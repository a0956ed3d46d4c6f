//! The `dse-sweep` workload: repeated `run_sweep` calls on the
//! `fft-1024` family, each over a fresh in-memory simulation cache and
//! a seeded four-point link-cost grid, exactly as one
//! `cgra-explore --sweep fft-1024` process runs.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cgra_explore::{
    cost_fingerprint, example_probe_input, fft_column_schedule, minimize_schedule, run_sweep,
    schedule_fingerprint, static_metrics, static_worst_ns, Candidate, CandidateMetrics,
    EngineConfig, Scheme, SimCache, SimResult, SweepOutcome, SweepSpec, Workload,
};
use cgra_fabric::rng::Rng;
use cgra_fabric::{CostModel, Mesh};
use cgra_kernels::fft::partition::FftPlan;
use cgra_sim::{epoch_spec, ArraySim, Epoch, EpochRunner, EventOptions, ProgramCache};
use cgra_verify::{bound_schedule_with, BoundCache, EpochSpec, ScheduleBound};

use crate::report::{add_busy, peak_rss_mb, reset_peak_rss, Host, Layers, Outcome};
use crate::spans::{timed, write_chrome, Tracer, CLIENT_PID, MAIN_TID, REPLAY_PID, REPLAY_TID};
use crate::stats::{median, quantile};
use crate::Args;

/// Frontier size, as `cgra-explore --frontier` defaults it.
const FRONTIER: usize = 6;
/// Sweeps run before timing starts (the median is `setup_s`).
const SETUP_SWEEPS: usize = 3;
/// Sweeps a traced run replays through the building blocks.
const REPLAY_SWEEPS: usize = 2;
/// Highest swept link cost, ns.
const MAX_LINK_NS: u64 = 700;
const DSE_SALT: u64 = 0x6473_6521;

/// A seeded link-cost grid: both endpoints of [0, 700] ns plus two
/// distinct interior points, ascending.
pub fn link_grid(rng: &mut Rng) -> Vec<f64> {
    let a = 1 + rng.gen_range(MAX_LINK_NS as usize - 1) as u64;
    let mut b = a;
    while b == a {
        b = 1 + rng.gen_range(MAX_LINK_NS as usize - 1) as u64;
    }
    let mut grid = vec![0, a.min(b), a.max(b), MAX_LINK_NS];
    grid.dedup();
    grid.into_iter().map(|ns| ns as f64).collect()
}

fn spec(grid: &[f64]) -> SweepSpec {
    SweepSpec {
        workload: Workload::Fft1024,
        link_costs_ns: grid.to_vec(),
    }
}

/// The cost model schedules are minimized under (the engine prepares
/// under the zero-link-cost model and reprices per candidate).
fn prep_cost() -> CostModel {
    CostModel::with_link_cost(0.0)
}

fn build(scheme: Scheme) -> Option<(Mesh, Vec<Epoch>)> {
    match scheme {
        Scheme::Fft { n, m } => {
            let plan = FftPlan::new(n, m).ok()?;
            Some(fft_column_schedule(&plan, &example_probe_input(n)))
        }
        _ => None,
    }
}

/// The serial interpreter's Eq. 1 for each (scheme, link cost) a
/// frontier row names, over the same minimized schedule the engine
/// simulates.
#[derive(Default)]
pub struct Oracle {
    minimized: HashMap<String, (Mesh, Vec<Epoch>)>,
    eq1: HashMap<(String, u64), f64>,
}

impl Oracle {
    /// Serial Eq. 1 of a candidate, ns.
    pub fn eq1_ns(&mut self, c: &Candidate) -> Result<f64, String> {
        let label = c.scheme.label();
        let memo = (label.clone(), c.link_ns.to_bits());
        if let Some(v) = self.eq1.get(&memo) {
            return Ok(*v);
        }
        if !self.minimized.contains_key(&label) {
            let (mesh, mut epochs) =
                build(c.scheme).ok_or_else(|| format!("cannot build {label}"))?;
            minimize_schedule(mesh, &mut epochs, &prep_cost());
            self.minimized.insert(label.clone(), (mesh, epochs));
        }
        let (mesh, epochs) = &self.minimized[&label];
        let mut runner = EpochRunner::new(ArraySim::new(*mesh), c.cost());
        let report = runner
            .run_schedule(epochs)
            .map_err(|e| format!("serial oracle for {}: {e}", c.label()))?;
        let v = report.total_ns();
        self.eq1.insert(memo, v);
        Ok(v)
    }
}

/// Checks a completed sweep: conservation-clean counters, a full
/// frontier, and every frontier row's simulated Eq. 1 equal to the
/// serial interpreter's, bit for bit. Returns the best frontier Eq. 1.
pub fn check_sweep(out: &SweepOutcome, oracle: &mut Oracle) -> Result<f64, String> {
    let violations = out.conservation_violations();
    if !violations.is_empty() {
        return Err(format!(
            "sweep counters do not conserve: {}",
            violations.join("; ")
        ));
    }
    let rows: Vec<_> = out.frontier_rows().collect();
    if rows.len() != out.frontier_k {
        return Err(format!(
            "frontier has {} simulated rows, expected {}",
            rows.len(),
            out.frontier_k
        ));
    }
    let mut best = f64::INFINITY;
    for row in rows {
        let sim = row.simulated().map_or(f64::NAN, |s| s.simulated_ns);
        let want = oracle.eq1_ns(&row.candidate)?;
        if sim.to_bits() != want.to_bits() {
            return Err(format!(
                "{}: frontier Eq. 1 {sim:?} ns differs from the serial interpreter's {want:?} ns",
                row.candidate.label()
            ));
        }
        best = best.min(sim);
    }
    Ok(best)
}

/// The `dse-sweep` workload.
pub fn run(args: &Args, host: &Host, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cfg = EngineConfig {
        jobs: host.nproc(),
        frontier: FRONTIER,
        prune: true,
    };
    let tracer = Tracer::new(args.trace);
    let mut rng = Rng::seed_from_u64(args.seed ^ DSE_SALT);
    let sweep = |rng: &mut Rng, n: u64| {
        let grid = link_grid(rng);
        let cache = SimCache::in_memory();
        let (res, d, s, e) = timed(|| run_sweep(&spec(&grid), &cfg, &cache));
        tracer.record("explore::run_sweep", MAIN_TID, n, 0, s, e, Vec::new());
        (grid, res, d)
    };

    let mut setup_s = Vec::new();
    let mut done = Vec::new();
    for n in 0..SETUP_SWEEPS {
        let (grid, res, d) = sweep(&mut rng, n as u64);
        setup_s.push(d.as_secs_f64());
        done.push((grid, res));
    }
    out.set("setup_s", median(&setup_s));

    let window = Duration::from_secs(args.seconds);
    reset_peak_rss();
    let start = Instant::now();
    let mut sweep_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let mut n = SETUP_SWEEPS as u64;
    while sweep_ms.is_empty() || start.elapsed() < window {
        let (grid, res, d) = sweep(&mut rng, n);
        sweep_ms.push(d.as_secs_f64() * 1e3);
        busy += d;
        done.push((grid, res));
        n += 1;
    }
    out.set("peak_rss_mb", peak_rss_mb());
    println!(
        "dse-sweep: {} timed sweeps after {SETUP_SWEEPS} set-up sweeps",
        sweep_ms.len()
    );

    // Every sweep, set-up ones included, is checked after the clock
    // stops.
    let mut oracle = Oracle::default();
    let mut best_us = Vec::new();
    let mut first_stats = None;
    for (grid, res) in &done {
        out.attempted += 1;
        match res {
            Err(e) => out.fail(format!("sweep over {grid:?} failed: {e}")),
            Ok(o) => {
                first_stats.get_or_insert(o.stats.total);
                match check_sweep(o, &mut oracle) {
                    Ok(best) => best_us.push(best / 1e3),
                    Err(e) => out.fail(format!("sweep over {grid:?}: {e}")),
                }
            }
        }
    }
    out.set("first_reply_p95_ms", quantile(&sweep_ms, 0.95));
    out.set("turnaround_p50_ms", median(&sweep_ms));
    out.set("turnaround_p95_ms", quantile(&sweep_ms, 0.95));
    out.set(
        "ops_per_s",
        sweep_ms.len() as f64 / busy.as_secs_f64().max(1e-9),
    );
    out.set("result_eq1_sim_us", median(&best_us));

    if args.trace {
        if let Some(t) = first_stats {
            out.set("explore.sweep.prepared", t.prepared as f64);
            out.set("explore.sweep.priced", t.priced as f64);
            out.set("explore.sweep.pruned", t.pruned as f64);
            out.set("explore.sweep.simulated", t.simulated as f64);
            out.set("explore.sweep.cache_hits", t.cache_hits as f64);
        }
        let mut layers: Vec<Layers> = Vec::new();
        for (n, (grid, res)) in done.iter().take(REPLAY_SWEEPS).enumerate() {
            let Ok(engine) = res else { continue };
            match replay_sweep(grid, engine, &tracer, n as u64) {
                Ok(l) => layers.push(l),
                Err(e) => out.fail(e),
            }
        }
        out.set_layer_medians(&layers);
        let lanes = [
            (CLIENT_PID, MAIN_TID, "main"),
            (REPLAY_PID, REPLAY_TID, "replay"),
        ];
        let path = dir.join(format!("dse-sweep-s{}.chrome.json", args.seed));
        match write_chrome(&tracer, &lanes, &path) {
            Ok(n) => println!("wrote {} ({n} spans)", path.display()),
            Err(e) => out.fail(e),
        }
    }
    out
}

/// One prepared shape in the replay.
struct Prepared {
    scheme: Scheme,
    mesh: Mesh,
    epochs: Vec<Epoch>,
    hash: u64,
    bound: ScheduleBound,
}

/// Replays one sweep's prepare, price and evaluate phases serially
/// through the public building blocks the engine uses, and returns the
/// busy time per layer (summed over the sweep), the decode counts and
/// the prepare share. The replayed frontier must match the engine's.
fn replay_sweep(
    grid: &[f64],
    engine: &SweepOutcome,
    tracer: &Tracer,
    n: u64,
) -> Result<Layers, String> {
    let spec = spec(grid);
    let cost0 = prep_cost();
    let root = tracer.open();
    let t_root = Instant::now();
    let mut busy = Layers::new();

    // Prepare: build, minimize, bound each shape once.
    let mut prepared = Vec::new();
    let mut prepare = Duration::ZERO;
    for scheme in spec.schemes() {
        let (built, d_build, s, e) = timed(|| build(scheme));
        tracer.record(
            "explore::fft_column_schedule",
            REPLAY_TID,
            n,
            root,
            s,
            e,
            Vec::new(),
        );
        let (mesh, mut epochs) = built.ok_or_else(|| format!("cannot build {}", scheme.label()))?;
        let (_, d_min, s, e) = timed(|| minimize_schedule(mesh, &mut epochs, &cost0));
        tracer.record(
            "lint::minimize_schedule",
            REPLAY_TID,
            n,
            root,
            s,
            e,
            Vec::new(),
        );
        let (bound, d_bound, s, e) = timed(|| {
            let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
            bound_schedule_with(mesh, &cost0, &specs, &mut BoundCache::new())
        });
        tracer.record(
            "verify::bound_schedule_with",
            REPLAY_TID,
            n,
            root,
            s,
            e,
            Vec::new(),
        );
        let (hash, d_hash, _, _) = timed(|| schedule_fingerprint(mesh, &epochs));
        add_busy(
            &mut busy,
            "explore.schedule.fft_column_schedule_ms",
            d_build,
        );
        add_busy(&mut busy, "lint.minimize_schedule_ms", d_min);
        add_busy(&mut busy, "verify.bound_schedule_ms", d_bound);
        prepare += d_build + d_min + d_bound + d_hash;
        prepared.push(Prepared {
            scheme,
            mesh,
            epochs,
            hash,
            bound,
        });
    }

    // Price: reprice each shape's bound per candidate.
    let cands = spec.candidates();
    let mut priced = Vec::new();
    let mut price = Duration::ZERO;
    for c in &cands {
        let p = prepared
            .iter()
            .find(|p| p.scheme == c.scheme)
            .ok_or("candidate without a prepared shape")?;
        let (b, d_at, s, e) = timed(|| p.bound.at_cost(&c.cost()));
        tracer.record(
            "verify::ScheduleBound::at_cost",
            REPLAY_TID,
            n,
            root,
            s,
            e,
            Vec::new(),
        );
        let (worst, d_rest, _, _) = timed(|| {
            let _ = static_metrics(&b);
            static_worst_ns(&b)
        });
        add_busy(&mut busy, "verify.at_cost_us", d_at);
        price += d_at + d_rest;
        priced.push(worst);
    }

    // Rank, then evaluate the frontier on fresh caches.
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&a, &b| priced[a].total_cmp(&priced[b]).then(a.cmp(&b)));
    let cache = SimCache::in_memory();
    let mut evaluate = Duration::ZERO;
    let mut frontier = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for &i in order.iter().take(FRONTIER) {
        let c = cands[i];
        let p = prepared
            .iter()
            .find(|p| p.scheme == c.scheme)
            .ok_or("candidate without a prepared shape")?;
        let cost = c.cost();
        let ch = cost_fingerprint(&cost);
        let (_, d_lookup, s, e) = timed(|| cache.lookup(p.hash, ch));
        tracer.record(
            "explore::SimCache::lookup",
            REPLAY_TID,
            n,
            root,
            s,
            e,
            Vec::new(),
        );
        let (event, d_event, s, e) = timed(|| {
            let mut runner = EpochRunner::new(ArraySim::new(p.mesh), cost);
            let mut progs = ProgramCache::new();
            let report =
                runner.run_schedule_event_driven(&p.epochs, &mut progs, &EventOptions::default());
            (
                report,
                progs.hits(),
                progs.misses(),
                CandidateMetrics::from_counters(&runner.counters(), &cost),
            )
        });
        tracer.record(
            "sim::run_schedule_event_driven (cold)",
            REPLAY_TID,
            n,
            root,
            s,
            e,
            Vec::new(),
        );
        let (serial, d_serial, s, e) =
            timed(|| EpochRunner::new(ArraySim::new(p.mesh), cost).run_schedule(&p.epochs));
        tracer.record(
            "sim::run_schedule (serial oracle)",
            REPLAY_TID,
            n,
            root,
            s,
            e,
            Vec::new(),
        );
        let (report, h, m, metrics) = event;
        let report =
            report.map_err(|e| format!("{}: event-driven replay fails: {e}", c.label()))?;
        let serial = serial.map_err(|e| format!("{}: serial replay fails: {e}", c.label()))?;
        if report.total_ns().to_bits() != serial.total_ns().to_bits() {
            return Err(format!(
                "{}: event-driven and serial Eq. 1 differ",
                c.label()
            ));
        }
        let r = SimResult {
            simulated_ns: report.total_ns(),
            metrics,
        };
        let (_, d_insert, s, e) = timed(|| cache.insert(p.hash, ch, &r));
        tracer.record(
            "explore::SimCache::insert",
            REPLAY_TID,
            n,
            root,
            s,
            e,
            Vec::new(),
        );
        add_busy(&mut busy, "explore.cache.lookup_us", d_lookup);
        add_busy(&mut busy, "sim.event_driven_cold_ms", d_event);
        add_busy(&mut busy, "sim.serial_ms", d_serial);
        add_busy(&mut busy, "explore.cache.insert_us", d_insert);
        hits += h;
        misses += m;
        evaluate += d_lookup + d_event + d_insert;
        frontier.push((c.label(), r.simulated_ns));
    }
    tracer.close(
        root,
        "replay sweep",
        REPLAY_TID,
        n,
        0,
        t_root,
        Instant::now(),
        Vec::new(),
    );

    let engine_frontier: Vec<(String, f64)> = engine
        .frontier_rows()
        .filter_map(|r| r.simulated().map(|s| (r.candidate.label(), s.simulated_ns)))
        .collect();
    if engine_frontier != frontier {
        return Err(format!(
            "replayed frontier {frontier:?} differs from the engine's {engine_frontier:?}"
        ));
    }
    busy.insert("sim.decode.hits", hits as f64);
    busy.insert("sim.decode.misses", misses as f64);
    let total = (prepare + price + evaluate).as_secs_f64();
    busy.insert(
        "explore.sweep.prepare_share",
        prepare.as_secs_f64() / total.max(1e-12),
    );
    Ok(busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_explore::RowOutcome;

    #[test]
    fn grids_are_seeded_and_anchored() {
        let grids = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..50).map(|_| link_grid(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(grids(5), grids(5));
        assert_ne!(grids(5), grids(6));
        for g in grids(9) {
            assert_eq!(g.len(), 4);
            assert_eq!((g[0], g[3]), (0.0, MAX_LINK_NS as f64));
            assert!(g.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// A small sweep (fft-64, two link costs) through the same checker.
    fn small_sweep() -> SweepOutcome {
        let spec = SweepSpec {
            workload: Workload::Fft64,
            link_costs_ns: vec![0.0, 350.0],
        };
        let cfg = EngineConfig {
            jobs: 2,
            frontier: 3,
            prune: true,
        };
        run_sweep(&spec, &cfg, &SimCache::in_memory()).expect("sweep runs")
    }

    #[test]
    fn checker_accepts_a_faithful_frontier_and_repeats_exactly() {
        let a = small_sweep();
        let b = small_sweep();
        let mut oracle = Oracle::default();
        let best = check_sweep(&a, &mut oracle).expect("faithful frontier passes");
        assert_eq!(
            best.to_bits(),
            check_sweep(&b, &mut oracle).unwrap().to_bits()
        );
        assert_eq!(a.stats.total, b.stats.total);
        assert_eq!(a.render_frontier(), b.render_frontier());
    }

    #[test]
    fn checker_catches_a_frontier_row_off_by_one_ns() {
        let mut doctored = small_sweep();
        let row = doctored
            .rows
            .iter_mut()
            .find(|r| r.simulated().is_some())
            .expect("a simulated row");
        if let RowOutcome::Simulated(r) | RowOutcome::FromCache(r) = &mut row.outcome {
            r.simulated_ns += 1.0;
        }
        let err =
            check_sweep(&doctored, &mut Oracle::default()).expect_err("doctored row is caught");
        assert!(err.contains("differs from the serial interpreter"), "{err}");
    }
}
