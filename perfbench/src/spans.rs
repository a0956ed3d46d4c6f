//! In-memory spans around calls into the program's layers, written out
//! as a Chrome trace when the run ends.
//!
//! Spans are recorded only from this package's code: the program
//! itself carries no benchmark instrumentation. A disabled [`Tracer`]
//! records nothing.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cgra_telemetry::json::esc;

/// Chrome process lane of the client side (load threads and setup).
pub const CLIENT_PID: u32 = 1;
/// Chrome process lane of the in-process replays.
pub const REPLAY_PID: u32 = 2;
/// Thread id of the main (set-up) thread; load threads use 1.. .
pub const MAIN_TID: u32 = 100;
/// Thread id of the replay lane.
pub const REPLAY_TID: u32 = 200;

/// Most spans kept; later spans are counted, not stored, so a long
/// traced run cannot grow without bound.
pub const MAX_SPANS: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The span that caused this one (0: none).
    pub parent: u64,
    /// Layer call or client step.
    pub name: String,
    /// Job, request or sweep the span belongs to.
    pub job: u64,
    /// Chrome thread lane.
    pub tid: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Extra numeric annotations.
    pub args: Vec<(&'static str, f64)>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    next: u64,
    dropped: u64,
}

/// A shareable span recorder (cheap to clone).
#[derive(Debug, Clone)]
pub struct Tracer {
    state: Option<Arc<Mutex<State>>>,
    origin: Instant,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            state: on.then(|| Arc::new(Mutex::new(State::default()))),
            origin: Instant::now(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span; returns its id (0 when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: impl Into<String>,
        tid: u32,
        job: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.open();
        self.close(id, name, tid, job, parent, start, end, args);
        id
    }

    /// Reserves an id for a span whose children close before it does;
    /// close it with [`Tracer::close`].
    pub fn open(&self) -> u64 {
        let Some(state) = &self.state else { return 0 };
        let mut st = state
            .lock()
            .expect("span recorder lock is never held across a panic");
        st.next += 1;
        st.next
    }

    /// Closes a span reserved with [`Tracer::open`] (counted, not kept,
    /// once [`MAX_SPANS`] are kept).
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &self,
        id: u64,
        name: impl Into<String>,
        tid: u32,
        job: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, f64)>,
    ) {
        let Some(state) = &self.state else { return };
        let mut st = state
            .lock()
            .expect("span recorder lock is never held across a panic");
        if id == 0 || st.spans.len() >= MAX_SPANS {
            st.dropped += 1;
            return;
        }
        let span = Span {
            id,
            parent,
            name: name.into(),
            job,
            tid,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            args,
        };
        st.spans.push(span);
    }

    /// Every kept span, in recording order, and the dropped count.
    pub fn spans(&self) -> (Vec<Span>, u64) {
        match &self.state {
            Some(state) => {
                let st = state
                    .lock()
                    .expect("span recorder lock is never held across a panic");
                (st.spans.clone(), st.dropped)
            }
            None => (Vec::new(), 0),
        }
    }

    /// Renders the kept spans as a Chrome trace: complete (`X`) events
    /// in timestamp order (parents before the children they enclose),
    /// with id, parent and job in each event's args.
    pub fn chrome(&self, lanes: &[(u32, u32, &str)]) -> String {
        let (mut spans, dropped) = self.spans();
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.end_ns.cmp(&a.end_ns))
                .then(a.id.cmp(&b.id))
        });
        let mut events = vec![
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{CLIENT_PID},\"tid\":0,\
                 \"args\":{{\"name\":\"perfbench client\"}}}}"
            ),
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{REPLAY_PID},\"tid\":0,\
                 \"args\":{{\"name\":\"in-process replay\"}}}}"
            ),
        ];
        for (pid, tid, name) in lanes {
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                esc(name)
            ));
        }
        for s in &spans {
            let pid = if s.tid == REPLAY_TID {
                REPLAY_PID
            } else {
                CLIENT_PID
            };
            let mut args = format!("\"id\":{},\"parent\":{},\"job\":{}", s.id, s.parent, s.job);
            for (k, v) in &s.args {
                let v = if v.is_finite() { *v } else { 0.0 };
                args.push_str(&format!(",\"{k}\":{v:?}"));
            }
            events.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":{:?},\"dur\":{:?},\
                 \"args\":{{{args}}}}}",
                esc(&s.name),
                s.tid,
                s.start_ns as f64 / 1000.0,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0,
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"schema\":{},\"dropped_spans\":{dropped},\"traceEvents\":[\n{}\n]}}\n",
            cgra_telemetry::SCHEMA_VERSION,
            events.join(",\n")
        )
    }
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration, Instant, Instant) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let end = Instant::now();
    (out, end - start, start, end)
}

/// Writes the Chrome trace and validates it (T001..T008 clean);
/// returns the defect, if any, as a failure message.
pub fn write_chrome(
    tracer: &Tracer,
    lanes: &[(u32, u32, &str)],
    path: &std::path::Path,
) -> Result<usize, String> {
    let doc = tracer.chrome(lanes);
    let summary = cgra_telemetry::validate_chrome(&doc)
        .map_err(|d| format!("Chrome trace fails validation: {d}"))?;
    std::fs::write(path, &doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(summary.slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_a_valid_chrome_trace() {
        let t = Tracer::new(true);
        let a = Instant::now();
        let parent = t.open();
        let b = Instant::now();
        let child = t.record("child", 1, 7, parent, a, b, vec![("x", 1.5)]);
        let c = Instant::now();
        t.record("replayed", REPLAY_TID, 7, 0, b, c, Vec::new());
        t.close(parent, "parent", 1, 7, 0, a, c, Vec::new());
        assert!(child > parent);
        let doc = t.chrome(&[
            (CLIENT_PID, 1, "conn 0"),
            (REPLAY_PID, REPLAY_TID, "replay"),
        ]);
        let summary = cgra_telemetry::validate_chrome(&doc).expect("valid trace");
        assert_eq!(summary.slices, 3);
        let (spans, dropped) = t.spans();
        assert_eq!((spans.len(), dropped), (3, 0));
        assert!(spans.iter().any(|s| s.parent == parent && s.job == 7));
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 1, 0, 0, now, now, Vec::new()), 0);
        assert_eq!(t.open(), 0);
        assert!(t.spans().0.is_empty());
    }
}
