//! The two `cgra-serve` workloads.
//!
//! * `serve-cold`: every episode boots a fresh in-process [`Daemon`]
//!   (in-memory store, two fabrics) and two client connections submit
//!   the ten distinct jobs (five example schedules, hoisting off and
//!   on) in a seeded order, each connection owning a seeded half. Once
//!   all ten are quoted, both send `run` and read their own results.
//!   Every job runs the full admission ladder, certified composition,
//!   the composed simulator and the conservation gate.
//! * `serve-warm`: one daemon is booted and warmed with a cold pass over
//!   the ten jobs; then two connections loop `submit` + `run` over the
//!   keys in seeded rounds. Each round asks for every key once plus one
//!   extra request whose `max_wcet_ns` is half the key's quote, which
//!   must come back as a `V111` reject. Only the store is read.
//!
//! Submissions inside a cold episode go in descending order of their
//! quotes, the order the WCET-aware backfill packs most densely, and
//! are serialized (a connection waits for the previous job's quote
//! before it sends its own), so the queue order at the flush, and with
//! it the pack plan, is fixed by the seed. Every episode then starts
//! both long packs at once, so each run measures the same kind of
//! episode rather than a seed-dependent mix of plans whose turnaround
//! distribution is bimodal.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use cgra_explore::{build_example_schedule, compose_schedules, hoist_schedule, EXAMPLE_SCHEDULES};
use cgra_fabric::rng::Rng;
use cgra_fabric::CostModel;
use cgra_lint::{lint_schedule, LintLevels};
use cgra_serve::{
    admit_schedule, parse_request, parse_response, plan_batches, recheck_quote, render_bare,
    render_submit, AdmitLimits, Admitted, Client, Daemon, DoneMsg, Job, Quote, QuoteMsg, Response,
    ResultMsg, ResultStore, ServeConfig, StoreKey, StoredOutcome, SubmitRequest,
};
use cgra_sim::{
    bound_epochs, epoch_spec, verify_epochs, ArraySim, EpochRunner, Recorder, VerifyMode,
};
use cgra_telemetry::{conservation_violations, Attribution, Category};
use cgra_verify::{analyze_footprint, Code, EpochSpec};

use crate::report::{add_busy, peak_rss_mb, reset_peak_rss, Layers, Outcome};
use crate::spans::{timed, write_chrome, Tracer, CLIENT_PID, MAIN_TID, REPLAY_PID, REPLAY_TID};
use crate::stats::{beyond, median, quantile};
use crate::Args;

/// Distinct jobs: every example schedule, hoisting off and on.
pub const KEYS: usize = 2 * EXAMPLE_SCHEDULES.len();
/// Client connections (and load threads).
const CONNS: usize = 2;
/// Fabric workers per daemon.
const FABRICS: usize = 2;
/// Daemon connection poll interval (also bounds its teardown).
const DAEMON_POLL: Duration = Duration::from_millis(5);
/// A client read or write that stalls this long fails the job.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
/// Daemons booted and warmed during `serve-warm` set-up (the median is
/// reported; the last one serves the run).
const WARM_SETUPS: usize = 3;
/// Untimed cold episodes that warm the process up.
const WARMUP_EPISODES: u64 = 1;
/// Cold episodes replayed in-process by a traced run.
const REPLAY_EPISODES: usize = 6;
/// Warm requests replayed in-process by a traced run.
const REPLAY_REQUESTS: usize = 2000;
/// Seed salts, so the workloads draw independent streams.
const COLD_SALT: u64 = 0x636f_6c64;
const WARM_SALT: u64 = 0x7761_726d;

/// The schedule a job key names.
pub fn schedule_of(key: usize) -> &'static str {
    EXAMPLE_SCHEDULES[key / 2]
}

/// Whether a job key runs hoisted.
pub fn hoist_of(key: usize) -> bool {
    key % 2 == 1
}

fn request(tenant: String, key: usize, max_wcet_ns: Option<f64>) -> SubmitRequest {
    SubmitRequest {
        tenant,
        schedule: schedule_of(key).to_string(),
        hoist: hoist_of(key),
        max_tiles: None,
        max_wcet_ns,
        deny_lint_warnings: false,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        fabrics: FABRICS,
        // Plan packs only when a client sends `run`: all ten jobs of an
        // episode are queued by then.
        settle: Duration::from_secs(600),
        ..ServeConfig::default()
    }
}

fn shuffle(rng: &mut Rng, v: &mut [usize]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(i + 1));
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One cold episode's submission plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodePlan {
    /// Job keys in global submission order.
    pub order: [usize; KEYS],
    /// The connection that submits each key.
    pub conn_of: [usize; KEYS],
}

/// Draws the next episode's plan: the keys in descending order of
/// `quoted` cycles, equal quotes (a schedule's two hoist variants) in
/// seeded order, and a seeded half of the keys for each connection.
pub fn episode_plan(rng: &mut Rng, quoted: &[u64]) -> EpisodePlan {
    let mut order: [usize; KEYS] = std::array::from_fn(|k| k);
    shuffle(rng, &mut order);
    order.sort_by_key(|&k| std::cmp::Reverse(quoted[k]));
    let mut halves: [usize; KEYS] = std::array::from_fn(|k| k);
    shuffle(rng, &mut halves);
    let mut conn_of = [0; KEYS];
    for (i, &k) in halves.iter().enumerate() {
        conn_of[k] = i * CONNS / KEYS;
    }
    EpisodePlan { order, conn_of }
}

/// One warm request: a key, and whether it carries a deadline below
/// the key's quote (so it must be rejected).
pub type WarmRequest = (usize, bool);

/// Draws one warm round: every key once in a seeded order, plus one
/// seeded key repeated with a too-tight deadline at a seeded position.
pub fn warm_round(rng: &mut Rng) -> Vec<WarmRequest> {
    let mut keys: [usize; KEYS] = std::array::from_fn(|k| k);
    shuffle(rng, &mut keys);
    let mut round: Vec<WarmRequest> = keys.iter().map(|&k| (k, false)).collect();
    let reject = (rng.gen_range(KEYS), true);
    round.insert(rng.gen_range(KEYS + 1), reject);
    round
}

// ---------------------------------------------------------------------
// The oracle and the checks
// ---------------------------------------------------------------------

/// What a job's result must equal: the serial interpreter's run of the
/// same schedule (`run_hoisted_schedule` on `hoist_schedule`'s plan for
/// hoisted keys), plus the admission quote.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Serial Eq. 1 total, ns.
    pub eq1_ns: f64,
    /// Serial words moved over links.
    pub words_moved: u64,
    /// Serial reconfiguration time, ns.
    pub reconfig_ns: f64,
    /// The admission quote (for the deadline knob and warm replays).
    pub quote: Quote,
}

/// Computes every key's reference once.
pub fn references(cost: &CostModel) -> Result<Vec<Reference>, String> {
    (0..KEYS)
        .map(|key| {
            let name = schedule_of(key);
            let (mesh, epochs) =
                build_example_schedule(name).ok_or_else(|| format!("unknown schedule {name}"))?;
            let mut runner = EpochRunner::new(ArraySim::new(mesh), *cost);
            let report = if hoist_of(key) {
                let plan = hoist_schedule(mesh, &epochs, cost);
                runner.run_hoisted_schedule(&epochs, &plan)
            } else {
                runner.run_schedule(&epochs)
            }
            .map_err(|e| format!("serial oracle for {name}: {e}"))?;
            let admitted = admit_schedule(
                &request("oracle".into(), key, None),
                mesh,
                epochs,
                cost,
                &AdmitLimits::default(),
            )
            .map_err(|r| format!("{name} is not admissible: {}", r.code))?;
            Ok(Reference {
                eq1_ns: report.total_ns(),
                words_moved: report.epochs.iter().map(|e| e.words_copied).sum(),
                reconfig_ns: report.total_reconfig_ns(),
                quote: admitted.quote,
            })
        })
        .collect()
}

/// Checks one `result` frame against the serial reference, bit for bit.
pub fn check_result(
    key: usize,
    r: &ResultMsg,
    reference: &Reference,
    want_cached: bool,
) -> Result<(), String> {
    let what = format!(
        "{}{}",
        schedule_of(key),
        if hoist_of(key) { "+hoist" } else { "" }
    );
    if r.eq1_ns.to_bits() != reference.eq1_ns.to_bits() {
        return Err(format!(
            "{what}: eq1_ns {:?} differs from the serial interpreter's {:?}",
            r.eq1_ns, reference.eq1_ns
        ));
    }
    if r.words_moved != reference.words_moved {
        return Err(format!(
            "{what}: words_moved {} differs from the serial interpreter's {}",
            r.words_moved, reference.words_moved
        ));
    }
    if r.observed_cycles > r.quoted_cycles || !r.within_quote {
        return Err(format!(
            "{what}: observed {} cycles exceeds the quoted {}",
            r.observed_cycles, r.quoted_cycles
        ));
    }
    if !r.conservation_clean {
        return Err(format!("{what}: telemetry conservation violated"));
    }
    if r.cached != want_cached {
        return Err(format!(
            "{what}: cached = {}, expected {want_cached}",
            r.cached
        ));
    }
    Ok(())
}

/// Checks the first reply to a submission: a quote when none of the
/// request's limits bind, a `V111` deadline reject when one does.
pub fn check_reply(expect_reject: bool, resp: &Response) -> Result<Option<&QuoteMsg>, String> {
    let deadline = Code::DeadlineRisk.id();
    match (expect_reject, resp) {
        (false, Response::Quote(q)) => Ok(Some(q)),
        (true, Response::Reject(r)) if r.code == deadline => Ok(None),
        (true, Response::Quote(q)) => Err(format!(
            "{}: missing expected {deadline} reject (quoted job {})",
            q.schedule, q.job
        )),
        (_, Response::Reject(r)) => Err(format!("{}: unexpected reject {}", r.schedule, r.code)),
        (_, Response::Error(e)) => Err(format!("error frame {}: {}", e.code.id(), e.message)),
        (_, other) => Err(format!("unexpected reply {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

fn connect(path: &Path) -> std::io::Result<Client> {
    let stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(Client::from_stream(stream))
}

/// A daemon socket under `dir` (a path relative to the working
/// directory when the absolute one is too long for a Unix socket).
fn socket_path(dir: &Path, n: usize) -> PathBuf {
    let name = format!("serve-{}-{n}.sock", std::process::id());
    let abs = dir.join(&name);
    if abs.as_os_str().len() < 100 {
        abs
    } else {
        PathBuf::from(name)
    }
}

/// A daemon and its two client connections.
struct Booted {
    // Clients drop first, so the daemon's connection threads see EOF.
    clients: Vec<Client>,
    daemon: Daemon,
}

/// Binds a daemon and connects the clients; returns once the daemon
/// answers a `ping` on every connection, i.e. serves them.
fn boot(path: &Path) -> Result<Booted, String> {
    let daemon = Daemon::bind(path, serve_config(), DAEMON_POLL)
        .map_err(|e| format!("daemon bind {}: {e}", path.display()))?;
    let clients = (0..CONNS)
        .map(|_| {
            let mut c = connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;
            c.ping()
                .map_err(|e| format!("ping {}: {e}", path.display()))?;
            Ok(c)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Booted { clients, daemon })
}

/// One job of a cold episode, as the client saw it.
#[derive(Debug, Clone)]
pub struct JobRec {
    /// Job key.
    pub key: usize,
    /// Connection that submitted it.
    pub conn: usize,
    /// Submit frame sent.
    pub submit: Instant,
    /// Quote (or reject) frame received.
    pub reply: Option<Instant>,
    /// Result frame received.
    pub done: Option<Instant>,
    /// Daemon job id from the quote.
    pub job: u64,
    /// Eq. 1 total from the result frame, ns.
    pub eq1_ns: f64,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

/// Reads one `run` stream into the connection's pending jobs.
fn collect_results(
    client: &mut Client,
    pending: &mut [JobRec],
    refs: &[Reference],
    want_cached: bool,
) {
    let fail_open = |pending: &mut [JobRec], msg: &str| {
        for r in pending
            .iter_mut()
            .filter(|r| r.done.is_none() && r.failure.is_none())
        {
            r.failure = Some(msg.to_string());
        }
    };
    if let Err(e) = client.send_raw(&render_bare("run")) {
        return fail_open(pending, &format!("run: {e}"));
    }
    loop {
        let frame = client.read_response();
        let now = Instant::now();
        match frame {
            Ok(Some(Response::Done(_))) => break,
            Ok(Some(Response::Result(m))) => {
                match pending
                    .iter_mut()
                    .find(|r| r.job == m.job && r.done.is_none())
                {
                    Some(rec) => {
                        rec.done = Some(now);
                        rec.eq1_ns = m.eq1_ns;
                        if let Err(e) = check_result(rec.key, &m, &refs[rec.key], want_cached) {
                            rec.failure = Some(e);
                        }
                    }
                    None => {
                        return fail_open(pending, &format!("result for unknown job {}", m.job))
                    }
                }
            }
            Ok(Some(Response::Reject(r))) => {
                match pending.iter_mut().find(|p| {
                    p.done.is_none() && p.failure.is_none() && schedule_of(p.key) == r.schedule
                }) {
                    Some(rec) => rec.failure = Some(format!("execution refused: {}", r.code)),
                    None => return fail_open(pending, &format!("stray reject {}", r.code)),
                }
            }
            Ok(Some(other)) => return fail_open(pending, &format!("unexpected frame {other:?}")),
            Ok(None) => return fail_open(pending, "daemon closed the connection"),
            Err(e) => return fail_open(pending, &format!("result stream: {e}")),
        }
    }
    fail_open(pending, "no result before done");
}

/// Runs one cold pass of the ten keys through a booted daemon and
/// returns the jobs in submission order.
fn run_episode(
    booted: &mut Booted,
    plan: &EpisodePlan,
    refs: &[Reference],
    tracer: &Tracer,
    episode: u64,
) -> Vec<JobRec> {
    let turn = Mutex::new(0usize);
    let cv = Condvar::new();
    let mut recs: Vec<JobRec> = std::thread::scope(|s| {
        let handles: Vec<_> = booted
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (turn, cv) = (&turn, &cv);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    let wait_for = |pos: usize| {
                        let guard = turn.lock().expect("turn lock is never poisoned");
                        let (guard, waited) = cv
                            .wait_timeout_while(guard, CLIENT_TIMEOUT, |t| *t < pos)
                            .expect("turn lock is never poisoned");
                        drop(guard);
                        !waited.timed_out()
                    };
                    for (pos, &key) in plan.order.iter().enumerate() {
                        if plan.conn_of[key] != conn {
                            continue;
                        }
                        let in_turn = wait_for(pos);
                        let submit = Instant::now();
                        let mut rec = JobRec {
                            key,
                            conn,
                            submit,
                            reply: None,
                            done: None,
                            job: 0,
                            eq1_ns: 0.0,
                            failure: None,
                        };
                        if !in_turn {
                            rec.failure = Some("timed out waiting for the previous quote".into());
                        } else {
                            match client.submit(&request(format!("t{key}"), key, None)) {
                                Ok(resp) => {
                                    rec.reply = Some(Instant::now());
                                    match check_reply(false, &resp) {
                                        Ok(Some(q)) if q.cached => {
                                            rec.failure = Some(format!(
                                                "{}: cold job served from the store",
                                                q.schedule
                                            ))
                                        }
                                        Ok(Some(q)) => rec.job = q.job,
                                        Ok(None) => {}
                                        Err(e) => rec.failure = Some(e),
                                    }
                                }
                                Err(e) => rec.failure = Some(format!("submit: {e}")),
                            }
                        }
                        *turn.lock().expect("turn lock is never poisoned") = pos + 1;
                        cv.notify_all();
                        mine.push(rec);
                    }
                    // Barrier: run only once every job of the episode is
                    // queued, so one flush plans them all.
                    wait_for(KEYS);
                    let mut pending: Vec<JobRec> = mine
                        .iter()
                        .filter(|r| r.failure.is_none())
                        .cloned()
                        .collect();
                    collect_results(client, &mut pending, refs, false);
                    for p in pending {
                        if let Some(r) = mine.iter_mut().find(|r| r.key == p.key) {
                            *r = p;
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection threads do not panic"))
            .collect()
    });
    let pos_of = |key: usize| plan.order.iter().position(|&k| k == key).unwrap_or(KEYS);
    recs.sort_by_key(|r| pos_of(r.key));
    if tracer.enabled() {
        for r in &recs {
            let end = r.done.or(r.reply).unwrap_or(r.submit);
            let parent = tracer.open();
            if let Some(reply) = r.reply {
                tracer.record(
                    "submit->quote",
                    r.conn as u32 + 1,
                    episode_job(episode, r.key),
                    parent,
                    r.submit,
                    reply,
                    Vec::new(),
                );
                if let Some(done) = r.done {
                    tracer.record(
                        "quote->result",
                        r.conn as u32 + 1,
                        episode_job(episode, r.key),
                        parent,
                        reply,
                        done,
                        Vec::new(),
                    );
                }
            }
            tracer.close(
                parent,
                format!("job {}", key_label(r.key)),
                r.conn as u32 + 1,
                episode_job(episode, r.key),
                0,
                r.submit,
                end,
                vec![("episode", episode as f64), ("key", r.key as f64)],
            );
        }
    }
    recs
}

/// A trace-wide job id: episode and key.
fn episode_job(episode: u64, key: usize) -> u64 {
    episode * 100 + key as u64
}

fn key_label(key: usize) -> String {
    format!(
        "{}{}",
        schedule_of(key),
        if hoist_of(key) { "+hoist" } else { "" }
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean simulated Eq. 1 per completed job, µs, summed per key in key
/// order so equal per-key counts give the same bits on every run.
fn eq1_mean_us(per_key: &[(u64, f64)]) -> f64 {
    let total: u64 = per_key.iter().map(|(n, _)| n).sum();
    if total == 0 {
        return 0.0;
    }
    per_key
        .iter()
        .map(|&(n, eq1)| eq1 * (n as f64 / total as f64))
        .sum::<f64>()
        / 1e3
}

/// Sets the latency, throughput and Eq. 1 metrics shared by both serve
/// workloads.
fn set_client_metrics(
    out: &mut Outcome,
    replies_ms: &[f64],
    turnarounds_ms: &[f64],
    busy: Duration,
    per_key: &[(u64, f64)],
) {
    out.set("first_reply_p95_ms", quantile(replies_ms, 0.95));
    out.set("turnaround_p50_ms", median(turnarounds_ms));
    out.set("turnaround_p95_ms", quantile(turnarounds_ms, 0.95));
    out.set(
        "ops_per_s",
        turnarounds_ms.len() as f64 / busy.as_secs_f64().max(1e-9),
    );
    out.set("result_eq1_sim_us", eq1_mean_us(per_key));
    println!(
        "samples: {} first replies ({} beyond p95), {} turnarounds ({} beyond p95)",
        replies_ms.len(),
        beyond(replies_ms, 0.95),
        turnarounds_ms.len(),
        beyond(turnarounds_ms, 0.95)
    );
}

// ---------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------

/// The `serve-cold` workload.
pub fn run_cold(args: &Args, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cost = CostModel::default();
    let refs = match references(&cost) {
        Ok(r) => r,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    let quoted: Vec<u64> = refs.iter().map(|r| r.quote.quoted_cycles).collect();
    let tracer = Tracer::new(args.trace);
    let mut rng = Rng::seed_from_u64(args.seed ^ COLD_SALT);
    let window = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::new();
    let mut replies_ms = Vec::new();
    let mut turnarounds_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let mut per_key = vec![(0u64, 0.0f64); KEYS];
    let mut rss_mb = Vec::new();
    let mut layers = ColdLayers::default();
    let mut start = Instant::now();
    let mut episode = 0u64;
    // Episode 0 warms the process up; it is checked but not measured.
    let measured = |episode: u64| episode >= WARMUP_EPISODES;
    let min_episodes = WARMUP_EPISODES
        + if args.trace {
            REPLAY_EPISODES as u64
        } else {
            1
        };
    while episode < min_episodes || start.elapsed() < window {
        let plan = episode_plan(&mut rng, &quoted);
        let path = socket_path(dir, episode as usize);
        reset_peak_rss();
        let t0 = Instant::now();
        let mut booted = match boot(&path) {
            Ok(b) => b,
            Err(e) => {
                out.attempted += KEYS as u64;
                out.fail(e);
                break;
            }
        };
        let t1 = Instant::now();
        let recs = run_episode(&mut booted, &plan, &refs, &tracer, episode);
        let store = booted.daemon.server().store();
        let store_counts = [
            ("serve.store.hits", store.hits()),
            ("serve.store.misses", store.misses()),
            ("serve.store.entries", store.len() as u64),
        ];
        drop(booted);
        let rss = peak_rss_mb();
        for r in &recs {
            out.attempted += 1;
            if let Some(f) = &r.failure {
                out.fail(f.clone());
            } else if r.done.is_none() {
                out.fail(format!("{}: no result", key_label(r.key)));
            }
        }
        if !measured(episode) {
            episode += 1;
            start = Instant::now();
            continue;
        }
        setup_s.push((t1 - t0).as_secs_f64());
        rss_mb.push(rss);
        tracer.record("daemon bind", MAIN_TID, episode, 0, t0, t1, Vec::new());
        let first = recs.iter().map(|r| r.submit).min();
        let last = recs.iter().filter_map(|r| r.done.or(r.reply)).max();
        if let (Some(a), Some(b)) = (first, last) {
            busy += b.saturating_duration_since(a);
        }
        for r in &recs {
            if let Some(reply) = r.reply {
                replies_ms.push(ms(reply - r.submit));
            }
            if let (None, Some(done)) = (&r.failure, r.done) {
                turnarounds_ms.push(ms(done - r.submit));
                per_key[r.key].0 += 1;
                per_key[r.key].1 = r.eq1_ns;
            }
        }
        // A traced run replays its first measured episodes right after
        // each one, in the same process state.
        if args.trace && layers.busy.len() < REPLAY_EPISODES {
            replay_cold(
                episode,
                &plan,
                &recs,
                &refs,
                &cost,
                &tracer,
                &mut layers,
                &mut out,
            );
            if let Some(l) = layers.busy.last_mut() {
                l.extend(store_counts.map(|(k, v)| (k, v as f64)));
            }
        }
        episode += 1;
    }
    println!(
        "serve-cold: {} measured episodes of {KEYS} jobs",
        episode - WARMUP_EPISODES
    );
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", median(&rss_mb));
    set_client_metrics(&mut out, &replies_ms, &turnarounds_ms, busy, &per_key);

    if args.trace {
        layers.report(&mut out);
        let lanes = [
            (CLIENT_PID, 1, "connection 0"),
            (CLIENT_PID, 2, "connection 1"),
            (CLIENT_PID, MAIN_TID, "main"),
            (REPLAY_PID, REPLAY_TID, "replay"),
        ];
        let path = dir.join(format!("serve-cold-s{}.chrome.json", args.seed));
        match write_chrome(&tracer, &lanes, &path) {
            Ok(n) => println!("wrote {} ({n} spans)", path.display()),
            Err(e) => out.fail(e),
        }
    }
    out
}

/// Per-layer figures of the traced serve-cold replays.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ColdLayers {
    /// Per replayed episode: busy time per layer.
    pub busy: Vec<Layers>,
    /// Per replayed job: turnaround minus the modelled blocking path, ns.
    pub residual_ns: Vec<f64>,
    /// Packs planned, over all replayed episodes.
    pub packs: u64,
    /// Jobs packed, over all replayed episodes.
    pub packed_jobs: u64,
    /// Jobs whose pack fell back to isolated execution.
    pub fallbacks: u64,
    /// Merged epochs executed.
    pub merged_epochs: u64,
    /// Telemetry events recorded.
    pub events: u64,
    /// Attributed tile-cycles per category.
    pub attrib: [u64; 5],
    /// The pack plans, as job keys.
    pub plans: Vec<Vec<Vec<usize>>>,
}

impl ColdLayers {
    fn report(&self, out: &mut Outcome) {
        out.set_layer_medians(&self.busy);
        out.set("serve.queue_and_wire_ms", median(&self.residual_ns) * 1e-6);
        out.set("serve.sched.packs", self.packs as f64);
        out.set(
            "serve.sched.tenants_per_pack",
            self.packed_jobs as f64 / self.packs.max(1) as f64,
        );
        out.set("serve.sched.fallbacks", self.fallbacks as f64);
        out.set("sim.compose.merged_epochs", self.merged_epochs as f64);
        out.set("telemetry.events", self.events as f64);
        let total: u64 = self.attrib.iter().sum();
        let share = |c: Category| self.attrib[c as usize] as f64 / total.max(1) as f64;
        out.set("sim.attrib.busy_share", share(Category::Busy));
        out.set(
            "sim.attrib.foreground-reconfig_share",
            share(Category::ForegroundReconfig),
        );
        out.set("sim.attrib.link-wait_share", share(Category::LinkWait));
        out.set(
            "sim.attrib.idle-skipped_share",
            share(Category::IdleSkipped),
        );
    }
}

/// What the in-process replay of one pack measured.
struct PackRun {
    keys: Vec<usize>,
    busy_ns: f64,
}

/// Replays one cold episode in-process through the public functions
/// each layer exposes, models each job's blocking path, and adds the
/// figures to `layers`.
#[allow(clippy::too_many_arguments)]
pub fn replay_cold(
    episode: u64,
    plan: &EpisodePlan,
    recs: &[JobRec],
    refs: &[Reference],
    cost: &CostModel,
    tracer: &Tracer,
    layers: &mut ColdLayers,
    out: &mut Outcome,
) {
    let cfg = serve_config();
    let limits = AdmitLimits {
        max_cols: cfg.max_cols,
        link_budget_words: cfg.link_budget_words,
    };
    let mut busy = Layers::new();
    let store = ResultStore::in_memory();
    // Admission, in submission order.
    let mut admit_ns = [0.0f64; KEYS];
    let mut jobs: Vec<Job> = Vec::new();
    let (tx, _rx) = channel();
    for &key in &plan.order {
        let job_id = episode_job(episode, key);
        let parent = tracer.open();
        let t_start = Instant::now();
        let span = |name: &'static str, d: Duration, s: Instant, e: Instant| {
            tracer.record(name, REPLAY_TID, job_id, parent, s, e, Vec::new());
            d
        };
        let ((mesh, epochs), d, s, e) =
            timed(|| build_example_schedule(schedule_of(key)).expect("known schedule"));
        let d_build = span("explore::build_example_schedule", d, s, e);
        let (store_key, d, s, e) = timed(|| StoreKey::new(mesh, &epochs, cost, hoist_of(key)));
        let d_key = span("serve::StoreKey::new", d, s, e);
        let (_, d, s, e) = timed(|| store.lookup(store_key, cost));
        let d_lookup = span("serve::ResultStore::lookup", d, s, e);
        let (verdicts, d, s, e) = timed(|| verify_epochs(mesh, &epochs));
        let d_verify = span("sim::verify_epochs", d, s, e);
        let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
        let (_, d, s, e) = timed(|| lint_schedule(mesh, &specs, &LintLevels::default(), cost));
        let d_lint = span("lint::lint_schedule", d, s, e);
        let (_, d, s, e) = timed(|| analyze_footprint(mesh, &specs));
        let d_foot = span("verify::analyze_footprint", d, s, e);
        let (_, d, s, e) = timed(|| bound_epochs(mesh, cost, &epochs));
        let d_bound = span("sim::bound_epochs", d, s, e);
        let req = request(format!("t{key}"), key, None);
        let (admitted, d, s, e) = timed(|| admit_schedule(&req, mesh, epochs, cost, &limits));
        let d_admit = span("serve::admit_schedule", d, s, e);
        tracer.close(
            parent,
            format!("replay admission {}", key_label(key)),
            REPLAY_TID,
            job_id,
            0,
            t_start,
            Instant::now(),
            Vec::new(),
        );
        if cgra_verify::has_errors(&verdicts) {
            out.fail(format!(
                "{}: replayed verify_epochs refuses",
                key_label(key)
            ));
        }
        add_busy(&mut busy, "explore.schedule.build_ms", d_build);
        add_busy(&mut busy, "serve.store.key_us", d_key);
        add_busy(&mut busy, "serve.store.lookup_us", d_lookup);
        add_busy(&mut busy, "sim.verify_epochs_ms", d_verify);
        add_busy(&mut busy, "lint.lint_schedule_ms", d_lint);
        add_busy(&mut busy, "verify.analyze_footprint_ms", d_foot);
        add_busy(&mut busy, "sim.bound_epochs_ms", d_bound);
        add_busy(&mut busy, "serve.admit.admit_schedule_ms", d_admit);
        // The daemon's submit path: rebuild, key, probe, admit.
        admit_ns[key] = (d_build + d_key + d_lookup + d_admit).as_nanos() as f64;
        match admitted {
            Ok(a) => jobs.push(Job {
                id: job_id,
                admitted: a,
                reply: tx.clone(),
                submitted: t_start,
            }),
            Err(r) => out.fail(format!(
                "{}: replayed admission rejects {}",
                key_label(key),
                r.code
            )),
        }
    }
    let (packs, d, s, e) = timed(|| plan_batches(jobs, cfg.max_cols, cfg.max_tenants));
    tracer.record(
        "serve::plan_batches",
        REPLAY_TID,
        episode_job(episode, 99),
        0,
        s,
        e,
        Vec::new(),
    );
    add_busy(&mut busy, "serve.sched.plan_batches_us", d);
    let plan_ns = d.as_nanos() as f64;
    layers.packs += packs.len() as u64;
    layers.plans.push(
        packs
            .iter()
            .map(|p| p.iter().map(|j| key_of(&j.admitted)).collect())
            .collect(),
    );

    let mut runs: Vec<PackRun> = Vec::new();
    for pack in packs {
        layers.packed_jobs += pack.len() as u64;
        let admitted: Vec<Admitted> = pack.into_iter().map(|j| j.admitted).collect();
        replay_pack(
            &admitted, refs, cost, tracer, episode, layers, &mut busy, &mut runs, out,
        );
    }

    // Blocking path of each job: the admissions still to come when
    // it was submitted (the flush waits for all ten), the plan, and
    // its pack's finish on a list schedule over the fabrics.
    let mut free_at = [0.0f64; FABRICS];
    let mut finish_of = [0.0f64; KEYS];
    for run in &runs {
        let w = (0..FABRICS)
            .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
            .unwrap_or(0);
        free_at[w] += run.busy_ns;
        for &k in &run.keys {
            finish_of[k] = free_at[w];
        }
    }
    for (pos, &key) in plan.order.iter().enumerate() {
        let Some(rec) = recs.iter().find(|r| r.key == key) else {
            continue;
        };
        let Some(done) = rec.done else { continue };
        let turnaround = (done - rec.submit).as_nanos() as f64;
        let admissions: f64 = plan.order[pos..].iter().map(|&k| admit_ns[k]).sum();
        let stages = admissions + plan_ns + finish_of[key];
        let residual = turnaround - stages;
        layers.residual_ns.push(residual);
        tracer.record(
            format!("blocking path {}", key_label(key)),
            REPLAY_TID,
            episode_job(episode, key),
            0,
            rec.submit,
            done,
            vec![
                ("turnaround_ns", turnaround),
                ("stages_ns", stages),
                ("residual_ns", residual),
            ],
        );
    }
    layers.busy.push(busy);
}

fn key_of(a: &Admitted) -> usize {
    let base = EXAMPLE_SCHEDULES
        .iter()
        .position(|s| *s == a.schedule)
        .unwrap_or(0);
    base * 2 + usize::from(a.hoist)
}

/// Replays one pack the way a fabric worker executes it: certified
/// composition (isolated packs when it is refused), the composed run
/// under strict verification with a recorder, the conservation gate,
/// and the store inserts.
#[allow(clippy::too_many_arguments)]
fn replay_pack(
    pack: &[Admitted],
    refs: &[Reference],
    cost: &CostModel,
    tracer: &Tracer,
    episode: u64,
    layers: &mut ColdLayers,
    busy: &mut Layers,
    runs: &mut Vec<PackRun>,
    out: &mut Outcome,
) {
    let keys: Vec<usize> = pack.iter().map(key_of).collect();
    let job = episode_job(episode, 90 + keys[0]);
    let hoist = pack[0].hoist;
    let tenants: Vec<(String, cgra_fabric::Mesh, Vec<cgra_sim::Epoch>)> = pack
        .iter()
        .map(|a| (a.tenant.clone(), a.mesh, a.epochs.clone()))
        .collect();
    let parent = tracer.open();
    let t_start = Instant::now();
    let (comp, d_compose, s, e) = timed(|| compose_schedules(&tenants, cost, hoist));
    tracer.record(
        "explore::compose_schedules",
        REPLAY_TID,
        job,
        parent,
        s,
        e,
        Vec::new(),
    );
    add_busy(busy, "explore.compose.compose_schedules_ms", d_compose);
    let comp = match comp {
        Ok(c) => c,
        Err(diags) => {
            if pack.len() > 1 {
                layers.fallbacks += pack.len() as u64;
                tracer.close(
                    parent,
                    "replay pack (refused)",
                    REPLAY_TID,
                    job,
                    0,
                    t_start,
                    Instant::now(),
                    Vec::new(),
                );
                for a in pack {
                    replay_pack(
                        std::slice::from_ref(a),
                        refs,
                        cost,
                        tracer,
                        episode,
                        layers,
                        busy,
                        runs,
                        out,
                    );
                }
            } else {
                let codes: Vec<&str> = diags.iter().map(|d| d.code.id()).collect();
                out.fail(format!(
                    "{}: composition refused {codes:?}",
                    key_label(keys[0])
                ));
            }
            return;
        }
    };
    let mut sim = ArraySim::new(comp.mesh);
    sim.verify = VerifyMode::Strict;
    let recorder = Recorder::new();
    sim.attach_sink(Box::new(recorder.clone()));
    let mut runner = EpochRunner::new(sim, *cost);
    let (report, d_run, s, e) = timed(|| runner.run_composed_schedule(&comp.tenants));
    tracer.record(
        "sim::run_composed_schedule",
        REPLAY_TID,
        job,
        parent,
        s,
        e,
        Vec::new(),
    );
    add_busy(busy, "sim.compose.run_composed_ms", d_run);
    runner.sim.detach_sink();
    let report = match report {
        Ok(r) => r,
        Err(err) => {
            out.fail(format!(
                "{}: replayed composed run fails: {err}",
                key_label(keys[0])
            ));
            return;
        }
    };
    let events = recorder.events();
    let (violations, d_cons, s, e) = timed(|| conservation_violations(&events));
    tracer.record(
        "telemetry::conservation_violations",
        REPLAY_TID,
        job,
        parent,
        s,
        e,
        Vec::new(),
    );
    add_busy(busy, "telemetry.conservation_ms", d_cons);
    if !violations.is_empty() {
        out.fail(format!(
            "{}: conservation violated in replay",
            key_label(keys[0])
        ));
    }
    layers.merged_epochs += report.merged_epochs as u64;
    layers.events += events.len() as u64;
    let attribution = Attribution::from_events(&events);
    for (acc, v) in layers.attrib.iter_mut().zip(attribution.totals) {
        *acc += v;
    }
    let store = ResultStore::in_memory();
    let mut d_insert = Duration::ZERO;
    for ((a, outcome), &key) in pack.iter().zip(&report.tenants).zip(&keys) {
        let stored = StoredOutcome {
            observed_cycles: outcome.observed_cycles,
            eq1_ns: outcome.report.total_ns(),
            utilization: outcome.utilization,
            words_moved: outcome.report.epochs.iter().map(|e| e.words_copied).sum(),
            reconfig_ns: outcome.report.total_reconfig_ns(),
        };
        if stored.eq1_ns.to_bits() != refs[key].eq1_ns.to_bits() {
            out.fail(format!(
                "{}: replayed pack eq1 differs from serial",
                key_label(key)
            ));
        }
        let (_, d, s, e) = timed(|| store.insert(a.key, &a.quote, stored, cost));
        tracer.record(
            "serve::ResultStore::insert",
            REPLAY_TID,
            job,
            parent,
            s,
            e,
            Vec::new(),
        );
        d_insert += d;
    }
    add_busy(busy, "serve.store.insert_us", d_insert);
    tracer.close(
        parent,
        format!("replay pack of {}", keys.len()),
        REPLAY_TID,
        job,
        0,
        t_start,
        Instant::now(),
        Vec::new(),
    );
    runs.push(PackRun {
        keys,
        busy_ns: (d_compose + d_run + d_cons + d_insert).as_nanos() as f64,
    });
}

// ---------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------

/// One warm request as the client saw it (kept only by traced runs).
#[derive(Debug, Clone)]
struct WarmRec {
    key: usize,
    reject: bool,
    conn: usize,
    submit: Instant,
    end: Instant,
}

/// What one warm load thread measured.
#[derive(Debug, Default)]
struct WarmThread {
    replies_ms: Vec<f64>,
    turnarounds_ms: Vec<f64>,
    per_key: Vec<(u64, f64)>,
    attempted: u64,
    failures: Vec<String>,
    kept: Vec<WarmRec>,
}

fn warm_loop(
    client: &mut Client,
    conn: usize,
    seed: u64,
    deadline: Instant,
    refs: &[Reference],
    tracer: &Tracer,
    keep: usize,
) -> WarmThread {
    let mut rng =
        Rng::seed_from_u64(seed ^ WARM_SALT ^ (conn as u64 + 1).wrapping_mul(0x9e37_79b9));
    let mut t = WarmThread {
        per_key: vec![(0, 0.0); KEYS],
        ..WarmThread::default()
    };
    let tid = conn as u32 + 1;
    // Whole rounds only, so every key completes equally often.
    while Instant::now() < deadline {
        for (key, reject) in warm_round(&mut rng) {
            t.attempted += 1;
            let deadline_ns = reject.then(|| refs[key].quote.wcet_worst_ns * 0.5);
            let submit = Instant::now();
            let resp = client.submit(&request(format!("w{conn}"), key, deadline_ns));
            let reply = Instant::now();
            let job = t.attempted + 1_000_000 * conn as u64;
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    t.failures.push(format!("submit: {e}"));
                    return t;
                }
            };
            t.replies_ms.push(ms(reply - submit));
            tracer.record(
                if reject {
                    "submit->reject"
                } else {
                    "submit->quote"
                },
                tid,
                job,
                0,
                submit,
                reply,
                vec![("key", key as f64)],
            );
            // One failure per request, the first found.
            let mut failure = check_reply(reject, &resp).err();
            let mut end = reply;
            // A quoted job, wrongly admitted or not, owes a result.
            if let Response::Quote(q) = &resp {
                let mut pending = vec![JobRec {
                    key,
                    conn,
                    submit,
                    reply: Some(reply),
                    done: None,
                    job: q.job,
                    eq1_ns: 0.0,
                    failure: None,
                }];
                collect_results(client, &mut pending, refs, true);
                let rec = &pending[0];
                if let Some(done) = rec.done {
                    tracer.record("quote->result", tid, job, 0, reply, done, Vec::new());
                    end = done;
                }
                match (&rec.failure, rec.done) {
                    (Some(f), _) => failure = failure.or_else(|| Some(f.clone())),
                    (None, Some(done)) if failure.is_none() => {
                        t.turnarounds_ms.push(ms(done - submit));
                        t.per_key[key].0 += 1;
                        t.per_key[key].1 = rec.eq1_ns;
                    }
                    (None, Some(_)) => {}
                    (None, None) => {
                        failure = failure.or_else(|| Some(format!("{}: no result", key_label(key))))
                    }
                }
            }
            if let Some(f) = failure {
                t.failures.push(f);
            }
            if t.kept.len() < keep {
                t.kept.push(WarmRec {
                    key,
                    reject,
                    conn,
                    submit,
                    end,
                });
            }
        }
    }
    t
}

/// The `serve-warm` workload.
pub fn run_warm(args: &Args, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cost = CostModel::default();
    let refs = match references(&cost) {
        Ok(r) => r,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    let quoted: Vec<u64> = refs.iter().map(|r| r.quote.quoted_cycles).collect();
    let tracer = Tracer::new(args.trace);
    let mut rng = Rng::seed_from_u64(args.seed ^ WARM_SALT);

    // Set-up: boot and warm a daemon, several times; keep the last.
    let mut setup_s = Vec::new();
    let mut booted = None;
    for n in 0..WARM_SETUPS {
        drop(booted.take()); // the previous daemon shuts down first
        let path = socket_path(dir, n);
        let plan = episode_plan(&mut rng, &quoted);
        let t0 = Instant::now();
        let mut b = match boot(&path) {
            Ok(b) => b,
            Err(e) => {
                out.attempted += KEYS as u64;
                out.fail(e);
                return out;
            }
        };
        let recs = run_episode(&mut b, &plan, &refs, &Tracer::new(false), n as u64);
        setup_s.push(t0.elapsed().as_secs_f64());
        tracer.record(
            "daemon bind + warm-up pass",
            MAIN_TID,
            n as u64,
            0,
            t0,
            Instant::now(),
            Vec::new(),
        );
        for r in recs {
            if let Some(f) = r.failure {
                out.attempted += 1;
                out.fail(format!("warm-up: {f}"));
            }
        }
        booted = Some(b);
    }
    let Some(mut booted) = booted else {
        out.attempted = 1;
        out.fail("no daemon was booted");
        return out;
    };
    out.set("setup_s", median(&setup_s));
    let store = booted.daemon.server().store().clone();
    let (hits0, misses0) = (store.hits(), store.misses());
    let rejected0 = booted.daemon.server().stats().rejected;

    let keep = if args.trace {
        REPLAY_REQUESTS / CONNS
    } else {
        0
    };
    reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let threads: Vec<WarmThread> = std::thread::scope(|s| {
        let handles: Vec<_> = booted
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (refs, tracer) = (&refs, &tracer);
                s.spawn(move || warm_loop(client, conn, args.seed, deadline, refs, tracer, keep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load threads do not panic"))
            .collect()
    });
    let wall = start.elapsed();
    out.set("peak_rss_mb", peak_rss_mb());
    let server = booted.daemon.server();
    let hits = store.hits() - hits0;
    let misses = store.misses() - misses0;
    let entries = store.len();
    let rejects = server.stats().rejected - rejected0;
    drop(booted);

    let mut replies_ms = Vec::new();
    let mut turnarounds_ms = Vec::new();
    let mut per_key = vec![(0u64, 0.0f64); KEYS];
    let mut kept = Vec::new();
    for t in threads {
        out.attempted += t.attempted;
        replies_ms.extend(t.replies_ms);
        turnarounds_ms.extend(t.turnarounds_ms);
        for (acc, (n, eq1)) in per_key.iter_mut().zip(t.per_key) {
            acc.0 += n;
            if n > 0 {
                acc.1 = eq1;
            }
        }
        for f in t.failures {
            out.fail(f);
        }
        kept.extend(t.kept);
    }
    println!(
        "serve-warm: {} requests in {:.3} s",
        out.attempted,
        wall.as_secs_f64()
    );
    set_client_metrics(&mut out, &replies_ms, &turnarounds_ms, wall, &per_key);

    if args.trace {
        out.set("serve.store.hits", hits as f64);
        out.set("serve.store.misses", misses as f64);
        out.set("serve.store.entries", entries as f64);
        out.set("serve.rejects", rejects as f64);
        replay_warm(&kept, &refs, &cost, &tracer, &mut out);
        let lanes = [
            (CLIENT_PID, 1, "connection 0"),
            (CLIENT_PID, 2, "connection 1"),
            (CLIENT_PID, MAIN_TID, "main"),
            (REPLAY_PID, REPLAY_TID, "replay"),
        ];
        let path = dir.join(format!("serve-warm-s{}.chrome.json", args.seed));
        match write_chrome(&tracer, &lanes, &path) {
            Ok(n) => println!("wrote {} ({n} spans)", path.display()),
            Err(e) => out.fail(e),
        }
    }
    out
}

/// Replays kept warm requests through the in-process store-hit path:
/// by-name rebuild, fingerprint, store probe, quote re-check, and the
/// frame codec on both sides of the wire. What the client waited
/// beyond that is the wire residual.
fn replay_warm(
    kept: &[WarmRec],
    refs: &[Reference],
    cost: &CostModel,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let store = ResultStore::in_memory();
    for (key, r) in refs.iter().enumerate() {
        let (mesh, epochs) = build_example_schedule(schedule_of(key)).expect("known schedule");
        let stored = StoredOutcome {
            observed_cycles: r.quote.quoted_cycles,
            eq1_ns: r.eq1_ns,
            utilization: 0.0,
            words_moved: r.words_moved,
            reconfig_ns: r.reconfig_ns,
        };
        store.insert(
            StoreKey::new(mesh, &epochs, cost, hoist_of(key)),
            &r.quote,
            stored,
            cost,
        );
    }
    let mut build_ms = Vec::new();
    let mut key_us = Vec::new();
    let mut lookup_us = Vec::new();
    let mut recheck_us = Vec::new();
    let mut codec_us = Vec::new();
    let mut wire_us = Vec::new();
    for (n, rec) in kept.iter().enumerate() {
        let job = 10_000_000 + n as u64;
        let parent = tracer.open();
        let t_start = Instant::now();
        let req = request(
            format!("w{}", rec.conn),
            rec.key,
            rec.reject.then(|| refs[rec.key].quote.wcet_worst_ns * 0.5),
        );
        let ((mesh, epochs), d_build, s, e) =
            timed(|| build_example_schedule(&req.schedule).expect("known schedule"));
        tracer.record(
            "explore::build_example_schedule",
            REPLAY_TID,
            job,
            parent,
            s,
            e,
            Vec::new(),
        );
        let (skey, d_key, s, e) = timed(|| StoreKey::new(mesh, &epochs, cost, req.hoist));
        tracer.record(
            "serve::StoreKey::new",
            REPLAY_TID,
            job,
            parent,
            s,
            e,
            Vec::new(),
        );
        let (hit, d_lookup, s, e) = timed(|| store.lookup(skey, cost));
        tracer.record(
            "serve::ResultStore::lookup",
            REPLAY_TID,
            job,
            parent,
            s,
            e,
            Vec::new(),
        );
        let Some((quote, outcome)) = hit else {
            out.fail(format!("{}: replay store miss", key_label(rec.key)));
            continue;
        };
        let (verdict, d_recheck, s, e) = timed(|| recheck_quote(&req, &quote));
        tracer.record(
            "serve::recheck_quote",
            REPLAY_TID,
            job,
            parent,
            s,
            e,
            Vec::new(),
        );
        if verdict.is_err() != rec.reject {
            out.fail(format!(
                "{}: replayed recheck disagrees",
                key_label(rec.key)
            ));
        }
        let (codec_ok, d_codec, s, e) = timed(|| {
            let mut ok = parse_request(&render_submit(&req)).is_ok();
            let first = match &verdict {
                Err(rej) => Response::Reject(rej.clone()),
                Ok(()) => Response::Quote(QuoteMsg {
                    tenant: req.tenant.clone(),
                    schedule: req.schedule.clone(),
                    job,
                    fingerprint: skey.schedule,
                    quoted_cycles: quote.quoted_cycles,
                    wcet_best_ns: quote.wcet_best_ns,
                    wcet_worst_ns: quote.wcet_worst_ns,
                    tiles: quote.tiles,
                    links: quote.links,
                    link_words_worst: quote.link_words_worst,
                    queue_depth: 0,
                    cached: true,
                }),
            };
            ok &= parse_response(&first.to_json()).is_ok();
            if verdict.is_ok() {
                ok &= parse_request(&render_bare("run")).is_ok();
                let result = Response::Result(ResultMsg {
                    tenant: req.tenant.clone(),
                    schedule: req.schedule.clone(),
                    job,
                    observed_cycles: outcome.observed_cycles,
                    quoted_cycles: quote.quoted_cycles,
                    within_quote: outcome.observed_cycles <= quote.quoted_cycles,
                    eq1_ns: outcome.eq1_ns,
                    utilization: outcome.utilization,
                    words_moved: outcome.words_moved,
                    batch_tenants: 0,
                    turnaround_host_ns: 0,
                    cached: true,
                    conservation_clean: true,
                });
                ok &= parse_response(&result.to_json()).is_ok();
                let done = Response::Done(DoneMsg {
                    jobs: 1,
                    cache_hits: 1,
                });
                ok &= parse_response(&done.to_json()).is_ok();
            }
            ok
        });
        tracer.record(
            "serve::proto codec",
            REPLAY_TID,
            job,
            parent,
            s,
            e,
            Vec::new(),
        );
        if !codec_ok {
            out.fail(format!(
                "{}: replayed frames do not round-trip",
                key_label(rec.key)
            ));
        }
        let stages = d_build + d_key + d_lookup + d_recheck + d_codec;
        let turnaround = rec.end - rec.submit;
        let residual_ns = turnaround.as_nanos() as f64 - stages.as_nanos() as f64;
        tracer.close(
            parent,
            format!("replay hit {}", key_label(rec.key)),
            REPLAY_TID,
            job,
            0,
            t_start,
            Instant::now(),
            vec![
                ("turnaround_ns", turnaround.as_nanos() as f64),
                ("stages_ns", stages.as_nanos() as f64),
                ("residual_ns", residual_ns),
            ],
        );
        build_ms.push(ms(d_build));
        key_us.push(d_key.as_nanos() as f64 / 1e3);
        lookup_us.push(d_lookup.as_nanos() as f64 / 1e3);
        recheck_us.push(d_recheck.as_nanos() as f64 / 1e3);
        codec_us.push(d_codec.as_nanos() as f64 / 1e3);
        wire_us.push(residual_ns / 1e3);
    }
    out.set("explore.schedule.build_ms", median(&build_ms));
    out.set("serve.store.key_us", median(&key_us));
    out.set("serve.store.lookup_us", median(&lookup_us));
    out.set("serve.admit.recheck_quote_us", median(&recheck_us));
    out.set("serve.proto.codec_us", median(&codec_us));
    out.set("serve.wire_us", median(&wire_us));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_submission_sequence() {
        // Two keys per quote, like a schedule's two hoist variants.
        let quoted: Vec<u64> = (0..KEYS).map(|k| (k / 2) as u64).collect();
        let draw = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (
                (0..5)
                    .map(|_| episode_plan(&mut rng, &quoted))
                    .collect::<Vec<_>>(),
                (0..5).map(|_| warm_round(&mut rng)).collect::<Vec<_>>(),
            )
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let (plans, rounds) = draw(3);
        for p in &plans {
            let mut keys = p.order.to_vec();
            keys.sort_unstable();
            assert_eq!(keys, (0..KEYS).collect::<Vec<_>>());
            assert_eq!(p.conn_of.iter().filter(|&&c| c == 0).count(), KEYS / 2);
            assert!(p.order.windows(2).all(|w| quoted[w[0]] >= quoted[w[1]]));
        }
        for r in &rounds {
            assert_eq!(r.len(), KEYS + 1);
            assert_eq!(r.iter().filter(|(_, rej)| *rej).count(), 1);
            let mut keys: Vec<usize> = r.iter().filter(|(_, rej)| !rej).map(|(k, _)| *k).collect();
            keys.sort_unstable();
            assert_eq!(keys, (0..KEYS).collect::<Vec<_>>());
        }
    }

    fn fake_result(key: usize, r: &Reference) -> ResultMsg {
        ResultMsg {
            tenant: "t".into(),
            schedule: schedule_of(key).into(),
            job: 1,
            observed_cycles: 10,
            quoted_cycles: 12,
            within_quote: true,
            eq1_ns: r.eq1_ns,
            utilization: 0.5,
            words_moved: r.words_moved,
            batch_tenants: 2,
            turnaround_host_ns: 1,
            cached: false,
            conservation_clean: true,
        }
    }

    #[test]
    fn checker_catches_doctored_results() {
        let refs = references(&CostModel::default()).expect("references");
        for (key, r) in refs.iter().enumerate() {
            let good = fake_result(key, r);
            check_result(key, &good, r, false).expect("faithful result passes");
            let mut bad = good.clone();
            bad.eq1_ns = f64::from_bits(bad.eq1_ns.to_bits() + 1);
            assert!(
                check_result(key, &bad, r, false).is_err(),
                "eq1 off by one ulp"
            );
            let mut bad = good.clone();
            bad.words_moved += 1;
            assert!(check_result(key, &bad, r, false).is_err());
            let mut bad = good.clone();
            bad.observed_cycles = bad.quoted_cycles + 1;
            assert!(check_result(key, &bad, r, false).is_err());
            let mut bad = good.clone();
            bad.conservation_clean = false;
            assert!(check_result(key, &bad, r, false).is_err());
            assert!(
                check_result(key, &good, r, true).is_err(),
                "cold result claimed cached"
            );
        }
    }

    #[test]
    fn checker_catches_a_dropped_expected_reject() {
        let quote = Response::Quote(QuoteMsg {
            tenant: "w0".into(),
            schedule: "fft-16".into(),
            job: 3,
            fingerprint: 0,
            quoted_cycles: 1,
            wcet_best_ns: 1.0,
            wcet_worst_ns: 2.0,
            tiles: 1,
            links: 0,
            link_words_worst: None,
            queue_depth: 0,
            cached: true,
        });
        assert!(check_reply(false, &quote)
            .expect("quote expected")
            .is_some());
        assert!(
            check_reply(true, &quote).is_err(),
            "admitted despite a binding deadline"
        );
        let req = request("w0".into(), 0, Some(0.5));
        let refs = references(&CostModel::default()).expect("references");
        let reject =
            Response::Reject(recheck_quote(&req, &refs[0].quote).expect_err("deadline binds"));
        assert!(check_reply(true, &reject)
            .expect("reject expected")
            .is_none());
        assert!(check_reply(false, &reject).is_err());
    }

    #[test]
    fn same_seed_same_pack_plan_counts_and_results() {
        let cost = CostModel::default();
        let refs = references(&cost).expect("references");
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).expect("out dir");
        let quoted: Vec<u64> = refs.iter().map(|r| r.quote.quoted_cycles).collect();
        let episode = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let plan = episode_plan(&mut rng, &quoted);
            let mut booted = boot(&socket_path(&dir, seed as usize + 900)).expect("daemon boots");
            let recs = run_episode(&mut booted, &plan, &refs, &Tracer::new(false), 0);
            drop(booted);
            for r in &recs {
                assert!(r.failure.is_none(), "{:?}", r.failure);
            }
            let mut out = Outcome::default();
            let mut layers = ColdLayers::default();
            let tracer = Tracer::new(false);
            replay_cold(
                0,
                &plan,
                &recs,
                &refs,
                &cost,
                &tracer,
                &mut layers,
                &mut out,
            );
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            let eq1: Vec<(usize, u64)> = recs.iter().map(|r| (r.key, r.eq1_ns.to_bits())).collect();
            (
                layers.plans,
                layers.packs,
                layers.fallbacks,
                layers.merged_epochs,
                layers.events,
                layers.attrib,
                eq1,
            )
        };
        let a = episode(11);
        assert_eq!(a, episode(11));
        assert_eq!(a.1, a.0[0].len() as u64);
    }

    #[test]
    fn eq1_mean_is_order_independent_for_equal_counts() {
        let refs: Vec<(u64, f64)> = (0..KEYS).map(|k| (3, 1000.0 + k as f64 * 17.3)).collect();
        let more: Vec<(u64, f64)> = refs.iter().map(|&(_, e)| (41, e)).collect();
        assert_eq!(eq1_mean_us(&refs).to_bits(), eq1_mean_us(&more).to_bits());
    }
}
