//! Soundness of the event-driven, certificate-gated simulator core:
//! on real schedules (FFT columns, the JPEG stream) the event-driven
//! and certified paths must be **bit-exact** with the serial engine —
//! memories, PE state, counters, clocks, reports, summary events, and
//! (up to interleaving) the fine-grained sink stream — and a fabricated
//! certificate must never execute: it is refused, recorded as `V122`,
//! and the run falls back to the serial engine with identical results.

use cgra_explore::schedule::{fft_column_schedule, jpeg_stream_schedule};
use cgra_fabric::rng::Rng;
use cgra_fabric::CostModel;
use cgra_kernels::fft::fixed::Cfx;
use cgra_kernels::fft::partition::FftPlan;
use cgra_kernels::fft::reference::Cf64;
use cgra_kernels::jpeg::quant::QuantTable;
use cgra_sim::{
    epoch_spec, ArraySim, Epoch, EpochRunner, EventOptions, ProgramCache, Recorder, VerifyMode,
};
use cgra_telemetry::conservation_violations;
use cgra_verify::{analyze_activity, ActivityCertificate, CycleInterval, EpochSpec};

/// Everything observable about a finished run, in comparable form.
struct Observed {
    dmems: Vec<Vec<i64>>,
    imems: Vec<Vec<u128>>,
    pe: String,
    stats: String,
    now: u64,
    report: String,
    summary: Vec<String>,
    sink_sorted: Vec<String>,
    conservation: Vec<String>,
}

enum Engine {
    Serial,
    Event,
    Certified(ActivityCertificate),
}

fn run(mesh: cgra_fabric::Mesh, epochs: &[Epoch], cost: &CostModel, engine: Engine) -> Observed {
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    let rec = Recorder::new();
    sim.attach_sink(Box::new(rec.clone()));
    let mut runner = EpochRunner::new(sim, *cost);
    let report = match engine {
        Engine::Serial => runner.run_schedule(epochs),
        Engine::Event => {
            let mut progs = ProgramCache::new();
            runner.run_schedule_event_driven(epochs, &mut progs, &EventOptions::default())
        }
        Engine::Certified(cert) => {
            let mut progs = ProgramCache::new();
            runner.run_schedule_certified(epochs, &cert, &mut progs)
        }
    }
    .expect("schedule runs");
    runner.sim.detach_sink();
    let mut sink: Vec<String> = rec.events().iter().map(|e| format!("{e:?}")).collect();
    let conservation = conservation_violations(&rec.events());
    sink.sort();
    Observed {
        dmems: runner
            .sim
            .tiles
            .iter()
            .map(|t| t.dmem.snapshot().iter().map(|w| w.value()).collect())
            .collect(),
        imems: runner
            .sim
            .tiles
            .iter()
            .map(|t| t.imem.image().to_vec())
            .collect(),
        pe: format!("{:?}", runner.sim.states),
        stats: format!("{:?}", runner.sim.stats),
        now: runner.sim.now,
        report: format!("{report:?}"),
        summary: runner.events().iter().map(|e| format!("{e:?}")).collect(),
        sink_sorted: sink,
        conservation,
    }
}

fn assert_bit_exact(a: &Observed, b: &Observed, label: &str) {
    assert_eq!(a.dmems, b.dmems, "{label}: data memories diverge");
    assert_eq!(a.imems, b.imems, "{label}: instruction memories diverge");
    assert_eq!(a.pe, b.pe, "{label}: PE states diverge");
    assert_eq!(a.stats, b.stats, "{label}: tile counters diverge");
    assert_eq!(a.now, b.now, "{label}: clocks diverge");
    assert_eq!(a.report, b.report, "{label}: Eq. 1 reports diverge");
    assert_eq!(
        a.summary, b.summary,
        "{label}: summary event streams diverge"
    );
    assert_eq!(
        a.sink_sorted, b.sink_sorted,
        "{label}: sink event streams diverge (sorted)"
    );
    assert_eq!(
        a.conservation,
        Vec::<String>::new(),
        "{label}: conservation violations"
    );
    assert_eq!(
        b.conservation,
        Vec::<String>::new(),
        "{label}: conservation violations"
    );
}

fn fft_schedule(n: usize, m: usize) -> (cgra_fabric::Mesh, Vec<Epoch>) {
    let plan = FftPlan::new(n, m).expect("valid plan");
    let input: Vec<Cfx> = (0..n)
        .map(|i| {
            Cfx::from_c(Cf64::new(
                (i as f64 * 0.21).sin(),
                (i as f64 * 0.55).cos() * 0.7,
            ))
        })
        .collect();
    fft_column_schedule(&plan, &input)
}

#[test]
fn fft_64_event_driven_is_bit_exact() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let event = run(mesh, &epochs, &cost, Engine::Event);
    assert_bit_exact(&serial, &event, "fft-64 event-driven");
}

/// The acceptance anchor: the paper's full 1024-point FFT schedule (232
/// epochs, 8 tiles) runs bit-exact through the event-driven core.
#[test]
fn fft_1024_event_driven_is_bit_exact() {
    let (mesh, epochs) = fft_schedule(1024, 128);
    let cost = CostModel::with_link_cost(150.0);
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let event = run(mesh, &epochs, &cost, Engine::Event);
    assert_bit_exact(&serial, &event, "fft-1024 event-driven");
}

#[test]
fn jpeg_stream_event_driven_is_bit_exact() {
    let blocks = cgra_explore::schedule::jpeg_probe_blocks();
    let (mesh, epochs) = jpeg_stream_schedule(&blocks, &QuantTable::luma(75));
    let cost = CostModel::default();
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let event = run(mesh, &epochs, &cost, Engine::Event);
    assert_bit_exact(&serial, &event, "jpeg-stream event-driven");
}

/// A genuine certificate is accepted: no `V122` in the diagnostics and
/// the certified entry point matches the serial engine bit for bit.
#[test]
fn genuine_certificate_is_accepted_and_bit_exact() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    let cert = analyze_activity(mesh, &cost, &specs).cert;
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let certified = run(mesh, &epochs, &cost, Engine::Certified(cert));
    assert_bit_exact(&serial, &certified, "fft-64 certified");
}

/// Seeded fabrication sweep: randomly corrupted certificates are always
/// refused (`V122` lands in the diagnostics), never executed, and the
/// serial fallback still produces bit-exact results.
#[test]
fn fabricated_certificates_are_refused_and_fall_back() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    let genuine = analyze_activity(mesh, &cost, &specs).cert;
    let serial = run(mesh, &epochs, &cost, Engine::Serial);

    let mut rng = Rng::seed_from_u64(0xAC7_CE57);
    for round in 0..12 {
        let mut cert = analyze_activity(mesh, &cost, &specs).cert;
        let ei = (rng.next_u64() as usize) % cert.epochs.len();
        let kind = rng.next_u64() % 6;
        let ea = &mut cert.epochs[ei];
        match kind {
            // Claim the rewritten tiles never stall.
            0 => ea.stall_cycles = 0,
            // Shrink a busy span below what actually executes.
            1 => {
                if let Some(iv) = ea.intervals.first_mut() {
                    iv.busy = CycleInterval::exact(0);
                } else {
                    ea.stall_cycles += 1;
                }
            }
            // Split a communicating class into singletons.
            2 => {
                if let Some(c) = ea.classes.iter().position(|c| c.tiles.len() > 1) {
                    let class = ea.classes.remove(c);
                    for t in class.tiles {
                        ea.classes.push(cgra_verify::IndependenceClass {
                            tiles: vec![t],
                            armed: class.armed.iter().copied().filter(|&a| a == t).collect(),
                            edges: 0,
                        });
                    }
                } else {
                    ea.classes.clear();
                }
            }
            // Forge the epoch total.
            3 => ea.total_cycles = CycleInterval::exact(0),
            // Rename the epoch.
            4 => ea.name.push('!'),
            // Drop the epoch's stalled set.
            _ => ea.stalled.clear(),
        }
        // Tampering with an epoch must break *something* the verifier
        // re-derives; if a mutation happened to be a no-op, skip it.
        if cert.epochs == genuine.epochs {
            continue;
        }

        let mut sim = ArraySim::new(mesh);
        sim.verify = VerifyMode::Strict;
        let mut runner = EpochRunner::new(sim, cost);
        let mut progs = ProgramCache::new();
        let report = runner
            .run_schedule_certified(&epochs, &cert, &mut progs)
            .expect("fallback still runs");
        assert!(
            runner
                .diagnostics
                .iter()
                .any(|d| d.code.id() == "V122" && d.is_error()),
            "round {round} (epoch {ei}, kind {kind}): fabricated certificate was not refused"
        );
        // Fallback is the serial engine: bit-exact end state.
        let dmems: Vec<Vec<i64>> = runner
            .sim
            .tiles
            .iter()
            .map(|t| t.dmem.snapshot().iter().map(|w| w.value()).collect())
            .collect();
        assert_eq!(dmems, serial.dmems, "round {round}: fallback diverged");
        assert_eq!(runner.sim.now, serial.now, "round {round}: clock diverged");
        assert_eq!(
            format!("{report:?}"),
            serial.report,
            "round {round}: report diverged"
        );
    }
}

/// A pre-armed tile (program loaded behind the analysis's back) voids
/// the certificate: the run is refused into the serial fallback, not
/// executed under proofs that never saw the tile.
#[test]
fn pre_armed_tile_refuses_the_certificate() {
    let (mesh, epochs) = fft_schedule(16, 4);
    let cost = CostModel::with_link_cost(150.0);
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    // Arm tile 0 directly, outside the schedule.
    let mut p = cgra_isa::ProgramBuilder::new();
    p.ldi(cgra_isa::ops::d(0), 3);
    let l = p.here_label();
    p.djnz(cgra_isa::ops::d(0), l);
    p.halt();
    sim.load_program(0, &cgra_isa::encode_program(&p.build().unwrap()))
        .unwrap();
    let mut runner = EpochRunner::new(sim, cost);
    let mut progs = ProgramCache::new();
    runner
        .run_schedule_event_driven(&epochs, &mut progs, &EventOptions::default())
        .expect("fallback still runs");
    assert!(
        runner
            .diagnostics
            .iter()
            .any(|d| d.code.id() == "V122" && d.is_error()),
        "pre-armed tile did not refuse the certificate"
    );
}

/// Deadline errors surface identically from both engines.
#[test]
fn deadline_errors_match_serial() {
    let (mesh, mut epochs) = fft_schedule(16, 4);
    let cost = CostModel::with_link_cost(150.0);
    // Choke an epoch mid-schedule so the failure happens after state
    // has accumulated.
    let mid = epochs.len() / 2;
    epochs[mid].budget = 1;
    let mut serial_runner = EpochRunner::new(ArraySim::new(mesh), cost);
    serial_runner.sim.verify = VerifyMode::Off; // let it reach the engine
    let serial_err = serial_runner.run_schedule(&epochs).unwrap_err();
    let mut event_runner = EpochRunner::new(ArraySim::new(mesh), cost);
    event_runner.sim.verify = VerifyMode::Off;
    let mut progs = ProgramCache::new();
    let event_err = event_runner
        .run_schedule_event_driven(&epochs, &mut progs, &EventOptions::default())
        .unwrap_err();
    assert_eq!(
        format!("{serial_err:?}"),
        format!("{event_err:?}"),
        "deadline errors diverge"
    );
}

/// The shared program cache pays off across DSE-style repeat runs: the
/// second identical schedule decodes nothing new.
#[test]
fn program_cache_amortizes_across_runs() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let mut progs = ProgramCache::new();
    let opts = EventOptions::default();
    let mut r1 = EpochRunner::new(ArraySim::new(mesh), cost);
    r1.sim.verify = VerifyMode::Strict;
    r1.run_schedule_event_driven(&epochs, &mut progs, &opts)
        .expect("first run");
    let misses_after_first = progs.misses();
    assert!(misses_after_first > 0, "nothing decoded at all");
    let mut r2 = EpochRunner::new(ArraySim::new(mesh), cost);
    r2.sim.verify = VerifyMode::Strict;
    r2.run_schedule_event_driven(&epochs, &mut progs, &opts)
        .expect("second run");
    assert_eq!(
        progs.misses(),
        misses_after_first,
        "second identical run should hit the decode cache only"
    );
    assert!(progs.hits() > 0);
}
