//! Metric declarations, the host fingerprint, and the result line.

use std::collections::BTreeMap;
use std::path::Path;

use cgra_telemetry::json::esc;

use crate::Args;

/// The end-to-end metrics every untraced run reports, `(name, unit)`,
/// in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("first_reply_p95_ms", "ms"),
    ("turnaround_p50_ms", "ms"),
    ("turnaround_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("result_eq1_sim_us", "sim_us"),
];

/// The per-layer metrics every traced run reports, `(name, unit)`, in
/// `BENCHMARK.json` order. A layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    // Both serve workloads.
    ("explore.schedule.build_ms", "ms"),
    ("serve.store.key_us", "us"),
    ("serve.store.lookup_us", "us"),
    ("serve.proto.codec_us", "us"),
    ("serve.store.hits", "count"),
    ("serve.store.misses", "count"),
    ("serve.store.entries", "count"),
    // serve-cold: the admission ladder.
    ("sim.verify_epochs_ms", "ms"),
    ("lint.lint_schedule_ms", "ms"),
    ("verify.analyze_footprint_ms", "ms"),
    ("sim.bound_epochs_ms", "ms"),
    ("serve.admit.admit_schedule_ms", "ms"),
    // serve-cold: packing, composition, execution.
    ("serve.sched.plan_batches_us", "us"),
    ("serve.sched.packs", "count"),
    ("serve.sched.tenants_per_pack", "count"),
    ("serve.sched.fallbacks", "count"),
    ("explore.compose.compose_schedules_ms", "ms"),
    ("sim.compose.run_composed_ms", "ms"),
    ("sim.compose.merged_epochs", "count"),
    ("telemetry.conservation_ms", "ms"),
    ("telemetry.events", "count"),
    ("serve.store.insert_us", "us"),
    ("serve.queue_and_wire_ms", "ms"),
    ("sim.attrib.busy_share", "ratio"),
    ("sim.attrib.foreground-reconfig_share", "ratio"),
    ("sim.attrib.link-wait_share", "ratio"),
    ("sim.attrib.idle-skipped_share", "ratio"),
    // serve-warm: the store-hit path.
    ("serve.admit.recheck_quote_us", "us"),
    ("serve.rejects", "count"),
    ("serve.wire_us", "us"),
    // dse-sweep: prepare, price, evaluate.
    ("explore.schedule.fft_column_schedule_ms", "ms"),
    ("lint.minimize_schedule_ms", "ms"),
    ("verify.bound_schedule_ms", "ms"),
    ("explore.sweep.prepare_share", "ratio"),
    ("verify.at_cost_us", "us"),
    ("sim.event_driven_cold_ms", "ms"),
    ("sim.serial_ms", "ms"),
    ("sim.decode.hits", "count"),
    ("sim.decode.misses", "count"),
    ("explore.cache.lookup_us", "us"),
    ("explore.cache.insert_us", "us"),
    ("explore.sweep.prepared", "count"),
    ("explore.sweep.priced", "count"),
    ("explore.sweep.pruned", "count"),
    ("explore.sweep.simulated", "count"),
    ("explore.sweep.cache_hits", "count"),
];

/// What the machine looked like: absolute times compare only between
/// runs with matching fingerprints.
#[derive(Debug, Clone)]
pub struct Host {
    nproc: usize,
    rustc: String,
    commit: String,
    profile: &'static str,
}

fn command_line(program: &str, args: &[&str], dir: &str) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Host {
        let dir = env!("CARGO_MANIFEST_DIR");
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"], dir).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"], dir)
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// Cores the load threads and the sweep engine may use.
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"profile\": \"{}\"}}",
            self.nproc,
            esc(&self.rustc),
            esc(&self.commit),
            self.profile
        )
    }
}

/// Starts a new peak-RSS window: the kernel resets this process's
/// `VmHWM` to its current resident set. Without that support the
/// window simply extends back to the start of the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process since the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A workload's result: counts, failures, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs, expected rejects or sweeps attempted.
    pub attempted: u64,
    /// Failure messages, one per failed operation.
    pub failures: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Per-layer figures of one replayed episode or sweep, by metric name:
/// busy time in ns for `_ms` and `_us` metrics, plain values otherwise.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `d` to a layer's busy time.
pub fn add_busy(layers: &mut Layers, name: &'static str, d: std::time::Duration) {
    *layers.entry(name).or_default() += d.as_nanos() as f64;
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets each layer metric to its median over the replayed units,
    /// busy times converted from ns to the metric's unit.
    pub fn set_layer_medians(&mut self, units: &[Layers]) {
        let names: std::collections::BTreeSet<&'static str> =
            units.iter().flat_map(|l| l.keys().copied()).collect();
        for name in names {
            let scale = if name.ends_with("_ms") {
                1e-6
            } else if name.ends_with("_us") {
                1e-3
            } else {
                1.0
            };
            let values: Vec<f64> = units
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0) * scale)
                .collect();
            self.set(name, crate::stats::median(&values));
        }
    }

    /// Builds the result line for this run's mode, prints the metrics
    /// by name with their units, and writes the result file
    /// `<workload>-s<seed>-trace<0|1>.json` (plus the tracing overhead,
    /// when the other mode's file for the same seed is already there).
    pub fn finish(mut self, args: &Args, host: &Host, out: &Path) -> Result<String, String> {
        let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut shown = Vec::new();
        for &(name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if args.trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                self.fail(format!("metric {name} is not finite ({value})"));
            }
            shown.push((name, unit, value));
        }
        let failed = self.failures.len() as u64;
        for msg in self.failures.iter().take(20) {
            println!("FAILED: {msg}");
        }
        for (name, unit, value) in &shown {
            println!("{name} = {value} {unit}");
        }
        println!(
            "attempted {} failed {} failed_share {}",
            self.attempted,
            failed,
            failed as f64 / self.attempted.max(1) as f64
        );
        let metrics_json = shown
            .iter()
            .map(|(name, unit, value)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics_json}}}}}",
            failed == 0 && self.attempted > 0,
            self.attempted.max(1),
        );

        let stem = format!("{}-s{}", args.workload, args.seed);
        let mine = out.join(format!("{stem}-trace{}.json", u8::from(args.trace)));
        let theirs = out.join(format!("{stem}-trace{}.json", u8::from(!args.trace)));
        let mut fields: Vec<(&str, String)> = vec![
            ("workload", format!("\"{}\"", esc(&args.workload))),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", args.trace.to_string()),
            ("host", host.to_json()),
            ("result", line.clone()),
            ("end_to_end", end_to_end_json(&self.metrics)),
        ];
        if let Some(overhead) = overhead_json(&self.metrics, &theirs, args.trace) {
            println!("tracing overhead (traced minus untraced): {overhead}");
            fields.push(("tracing_overhead", overhead));
        }
        let body = fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        std::fs::write(&mine, format!("{{\n{body}\n}}\n"))
            .map_err(|e| format!("cannot write {}: {e}", mine.display()))?;
        Ok(line)
    }
}

/// The end-to-end figures measured in this run (traced runs measure
/// them too, so the tracing overhead can be reported).
fn end_to_end_json(metrics: &BTreeMap<&'static str, f64>) -> String {
    let body = END_TO_END
        .iter()
        .filter_map(|(name, _)| metrics.get(name).map(|v| format!("\"{name}\": {v:?}")))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Traced minus untraced end-to-end figures, when the other mode's
/// result file for this workload and seed exists.
fn overhead_json(
    metrics: &BTreeMap<&'static str, f64>,
    other: &Path,
    traced: bool,
) -> Option<String> {
    let text = std::fs::read_to_string(other).ok()?;
    let doc = cgra_telemetry::json::parse(&text).ok()?;
    let theirs = doc.get("end_to_end")?;
    let body = END_TO_END
        .iter()
        .filter_map(|(name, _)| {
            let mine = metrics.get(name)?;
            let other = theirs.get(name)?.as_f64()?;
            let diff = if traced { mine - other } else { other - mine };
            Some(format!("\"{name}\": {diff:?}"))
        })
        .collect::<Vec<_>>()
        .join(", ");
    Some(format!("{{{body}}}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_telemetry::json::{parse, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS.to_vec());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.fail("one doctored result");
        let args = Args {
            workload: "unit-test".into(),
            seed: 0,
            seconds: 1,
            trace: false,
        };
        let out = crate::out_dir();
        std::fs::create_dir_all(&out).unwrap();
        let line = o.finish(&args, &Host::probe(), &out).unwrap();
        let v = parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = v.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }
}
