//! Golden telemetry: the serial interpreter's observable behaviour on
//! every example schedule, plain and under its hoisting plan, and on
//! the three-kernel composed pack, pinned against
//! `tests/golden/telemetry.txt`.
//!
//! Each run is strictly verified with a `Recorder` attached, and its
//! rendering pins the event count, per (tile, state) segment count and
//! summed length, the link-transfer count, the final cycle, the
//! per-tile `TileStats`, the Eq. 1 totals, and an ordered digest of
//! every recorded event other than `Segment` and `LinkTransfer` (epoch
//! brackets, reconfigurations, shadow prefetches and commits, per-tile
//! summaries and attributions, field for field). Any change to how the
//! engine steps tiles or switches configurations must leave every one
//! of these identical.
//!
//! On a mismatch the test prints the full rendering of the run; a
//! deliberate behaviour change replaces that run's section in the
//! golden file with it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use remorph::explore::{
    build_example_schedule, compose_examples, hoist_schedule, EXAMPLE_SCHEDULES,
};
use remorph::fabric::{CostModel, Mesh};
use remorph::lint::HoistPlan;
use remorph::sim::{ArraySim, EpochRunner, Recorder, RunReport, VerifyMode};
use remorph::telemetry::{Event, SegState};

const GOLDEN: &str = include_str!("golden/telemetry.txt");

const PACK: [&str; 3] = ["fft-64", "jpeg-stream", "fft-1024"];

fn strict_runner(mesh: Mesh, cost: &CostModel) -> (EpochRunner, Recorder) {
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    let rec = Recorder::new();
    sim.attach_sink(Box::new(rec.clone()));
    (EpochRunner::new(sim, *cost), rec)
}

fn eq1_line(out: &mut String, label: &str, rep: &RunReport) {
    writeln!(
        out,
        "{label} compute_ns={:?} reconfig_ns={:?} total_ns={:?}",
        rep.total_compute_ns(),
        rep.total_reconfig_ns(),
        rep.total_ns()
    )
    .unwrap();
}

/// Detaches the sink and renders the engine-level telemetry of a run.
fn render_engine(out: &mut String, runner: &mut EpochRunner, rec: &Recorder) {
    runner.sim.detach_sink();
    let events = rec.events();
    // (tile, state) -> (segment count, summed length)
    let mut segs: BTreeMap<(usize, &'static str), (u64, u64)> = BTreeMap::new();
    let mut transfers = 0u64;
    // FNV-1a over the ordered `Debug` renderings of the summary events.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut summary = 0u64;
    for e in &events {
        if !matches!(e, Event::Segment { .. } | Event::LinkTransfer { .. }) {
            summary += 1;
            for b in format!("{e:?}\n").bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        match e {
            Event::Segment {
                tile,
                state,
                start,
                end,
            } => {
                let key = match state {
                    SegState::Busy => "busy",
                    SegState::Stall => "stall",
                };
                let s = segs.entry((*tile, key)).or_default();
                s.0 += 1;
                s.1 += end - start;
            }
            Event::LinkTransfer { .. } => transfers += 1,
            _ => {}
        }
    }
    writeln!(out, "events {}", events.len()).unwrap();
    writeln!(out, "link_transfers {transfers}").unwrap();
    writeln!(out, "summary_events {summary} digest {digest:016x}").unwrap();
    writeln!(out, "now {}", runner.sim.now).unwrap();
    for (t, st) in runner.sim.stats.iter().enumerate() {
        let seg = |state| segs.get(&(t, state)).copied().unwrap_or_default();
        let (bn, bl) = seg("busy");
        let (sn, sl) = seg("stall");
        if *st == Default::default() && bn + sn == 0 {
            continue;
        }
        writeln!(
            out,
            "tile {t} busy={} reconfig={} sent={} recv={} busy_segs={bn}/{bl} stall_segs={sn}/{sl}",
            st.busy_cycles, st.reconfig_cycles, st.words_sent, st.words_received
        )
        .unwrap();
    }
}

fn render_serial(name: &str) -> String {
    let cost = CostModel::default();
    let (mesh, epochs) = build_example_schedule(name).expect("known example");
    let (mut runner, rec) = strict_runner(mesh, &cost);
    let rep = runner.run_schedule(&epochs).expect("example runs");
    let mut out = String::new();
    eq1_line(&mut out, "eq1", &rep);
    render_engine(&mut out, &mut runner, &rec);
    out
}

/// `name` under `plan`; `None` takes `hoist_schedule`'s plan.
fn render_hoisted(name: &str, plan: Option<HoistPlan>) -> String {
    let cost = CostModel::default();
    let (mesh, epochs) = build_example_schedule(name).expect("known example");
    let plan = plan.unwrap_or_else(|| hoist_schedule(mesh, &epochs, &cost));
    let (mut runner, rec) = strict_runner(mesh, &cost);
    let rep = runner
        .run_hoisted_schedule(&epochs, &plan)
        .expect("hoisted example runs");
    let mut out = String::new();
    writeln!(out, "hoists {}", plan.hoists.len()).unwrap();
    eq1_line(&mut out, "eq1", &rep);
    render_engine(&mut out, &mut runner, &rec);
    out
}

fn render_composed(hoist: bool) -> String {
    let cost = CostModel::default();
    let comp = compose_examples(&PACK, &cost, hoist).expect("pack composes");
    let (mut runner, rec) = strict_runner(comp.mesh, &cost);
    let rep = runner
        .run_composed_schedule(&comp.tenants)
        .expect("pack runs");
    let mut out = String::new();
    writeln!(
        out,
        "merged_epochs={} wall_cycles={} wall_ns={:?}",
        rep.merged_epochs, rep.wall_cycles, rep.wall_ns
    )
    .unwrap();
    for t in &rep.tenants {
        eq1_line(&mut out, &format!("eq1 {}", t.name), &t.report);
    }
    render_engine(&mut out, &mut runner, &rec);
    out
}

/// The golden section headed `== {name} ==`.
fn golden(name: &str) -> String {
    let head = format!("== {name} ==");
    let mut lines = GOLDEN.lines().skip_while(|l| *l != head);
    assert!(lines.next().is_some(), "no golden section '{name}'");
    lines
        .take_while(|l| !l.starts_with("== "))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn check(name: &str, got: String) {
    assert!(
        got == golden(name),
        "telemetry of '{name}' diverged from tests/golden/telemetry.txt; this run renders:\n\
         == {name} ==\n{got}"
    );
}

#[test]
fn fft_16_serial_matches_golden() {
    check("serial fft-16", render_serial("fft-16"));
}

#[test]
fn fft_64_serial_matches_golden() {
    check("serial fft-64", render_serial("fft-64"));
}

#[test]
fn fft_1024_serial_matches_golden() {
    check("serial fft-1024", render_serial("fft-1024"));
}

#[test]
fn jpeg_serial_matches_golden() {
    check("serial jpeg", render_serial("jpeg"));
}

#[test]
fn jpeg_stream_serial_matches_golden() {
    check("serial jpeg-stream", render_serial("jpeg-stream"));
}

#[test]
fn hoisted_examples_match_golden() {
    for name in EXAMPLE_SCHEDULES {
        check(&format!("hoisted {name}"), render_hoisted(name, None));
    }
}

/// An empty plan hoists nothing, so the hoisted runner must render
/// exactly what the plain runner does (past the plan's own header).
#[test]
fn empty_hoist_plan_renders_as_the_plain_run() {
    for name in EXAMPLE_SCHEDULES {
        let hoisted = render_hoisted(name, Some(HoistPlan::default()));
        let body = hoisted.strip_prefix("hoists 0\n").expect("empty plan");
        assert_eq!(body, render_serial(name), "{name}: empty plan diverged");
        check(&format!("serial {name}"), body.to_string());
    }
}

#[test]
fn composed_pack_matches_golden() {
    check(
        "composed fft-64,jpeg-stream,fft-1024",
        render_composed(false),
    );
}

#[test]
fn hoisted_composed_pack_matches_golden() {
    check(
        "composed hoisted fft-64,jpeg-stream,fft-1024",
        render_composed(true),
    );
}
