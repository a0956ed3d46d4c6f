//! Counter-conservation gate: runs every example schedule with a
//! telemetry recorder attached and checks that the event stream is
//! internally consistent (the invariants `conservation_violations`
//! enforces) and that the folded [`Counters`] registry agrees with the
//! simulator's own per-tile statistics — words sent == words received,
//! busy/stall cycles match, every epoch observed.

use remorph::explore::{build_example_schedule, EXAMPLE_SCHEDULES};
use remorph::fabric::CostModel;
use remorph::sim::{ArraySim, EpochRunner, EventOptions, ProgramCache, Recorder};
use remorph::telemetry::{conservation_violations, Attribution, Category, Counters, Event};

/// Runs `name` with a recorder attached, returning the runner (for its
/// simulator stats) and the recorded event stream.
fn run_recorded(name: &str) -> (EpochRunner, Vec<Event>) {
    let (mesh, epochs) = build_example_schedule(name).expect("known example schedule");
    let mut sim = ArraySim::new(mesh);
    let recorder = Recorder::new();
    sim.attach_sink(Box::new(recorder.clone()));
    let mut runner = EpochRunner::new(sim, CostModel::default());
    runner.run_schedule(&epochs).expect("schedule runs");
    runner.sim.detach_sink();
    (runner, recorder.events())
}

#[test]
fn every_example_schedule_conserves() {
    for name in EXAMPLE_SCHEDULES {
        let (_, events) = run_recorded(name);
        let violations = conservation_violations(&events);
        assert!(
            violations.is_empty(),
            "{name}: conservation violations:\n{}",
            violations.join("\n")
        );
    }
}

#[test]
fn counters_match_simulator_statistics() {
    for name in EXAMPLE_SCHEDULES {
        let (runner, events) = run_recorded(name);
        let c = Counters::from_events(&events);
        assert_eq!(
            c.tiles.len(),
            runner.sim.stats.len(),
            "{name}: every tile has a counter row"
        );
        for (t, stats) in runner.sim.stats.iter().enumerate() {
            let tc = &c.tiles[t];
            assert_eq!(tc.busy, stats.busy_cycles, "{name} tile {t}: busy cycles");
            assert_eq!(
                tc.stalled, stats.reconfig_cycles,
                "{name} tile {t}: reconfiguration stall cycles"
            );
            assert_eq!(
                tc.words_sent, stats.words_sent,
                "{name} tile {t}: words sent"
            );
            assert_eq!(
                tc.words_received, stats.words_received,
                "{name} tile {t}: words received"
            );
        }
        assert_eq!(
            c.total_words_sent(),
            c.total_words_received(),
            "{name}: every word sent over a link must land"
        );
        assert_eq!(
            c.epoch_cycles, runner.sim.now,
            "{name}: epoch spans cover the whole run"
        );
    }
}

#[test]
fn counters_count_every_epoch() {
    for name in EXAMPLE_SCHEDULES {
        let (_, events) = run_recorded(name);
        let c = Counters::from_events(&events);
        let begins = events
            .iter()
            .filter(|e| matches!(e, Event::EpochBegin { .. }))
            .count() as u64;
        assert_eq!(c.epochs, begins, "{name}: every begun epoch completed");
        assert!(c.epochs > 0, "{name}: schedule is non-trivial");
    }
}

/// Like [`run_recorded`] but through the event-driven certificate-gated
/// core instead of the serial per-cycle core.
fn run_recorded_event_driven(name: &str) -> (EpochRunner, Vec<Event>) {
    let (mesh, epochs) = build_example_schedule(name).expect("known example schedule");
    let mut sim = ArraySim::new(mesh);
    let recorder = Recorder::new();
    sim.attach_sink(Box::new(recorder.clone()));
    let mut runner = EpochRunner::new(sim, CostModel::default());
    let mut cache = ProgramCache::new();
    runner
        .run_schedule_event_driven(&epochs, &mut cache, &EventOptions::default())
        .expect("event-driven schedule runs");
    runner.sim.detach_sink();
    (runner, recorder.events())
}

/// The cycle attribution partitions `tiles x cycles` on every example
/// schedule (the conservation checker enforces the per-epoch sum and
/// the per-cell classification cross-check), and the folded totals
/// agree with the simulator's own statistics: the busy column is the
/// sum of per-tile busy cycles, the foreground-reconfig column the sum
/// of reconfiguration stalls.
#[test]
fn attribution_partitions_every_tile_cycle() {
    for name in EXAMPLE_SCHEDULES {
        let (runner, events) = run_recorded(name);
        let a = Attribution::from_events(&events);
        let tiles = runner.sim.stats.len() as u64;
        assert_eq!(
            a.total_cycles(),
            tiles * runner.sim.now,
            "{name}: attribution covers tiles x cycles exactly"
        );
        let busy: u64 = runner.sim.stats.iter().map(|s| s.busy_cycles).sum();
        let stalled: u64 = runner.sim.stats.iter().map(|s| s.reconfig_cycles).sum();
        assert_eq!(a.totals[Category::Busy as usize], busy, "{name}: busy");
        assert_eq!(
            a.totals[Category::ForegroundReconfig as usize],
            stalled,
            "{name}: foreground reconfig"
        );
        let share_sum: f64 = Category::ALL.iter().map(|&c| a.share(c)).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "{name}: shares sum to 1");
    }
}

/// The acceptance identity: the serial per-cycle core and the
/// event-driven certificate-gated core attribute every (tile, epoch)
/// cell identically, category by category, on every example schedule —
/// batch stall accounting decomposes into exactly the categories the
/// serial core observes cycle by cycle.
#[test]
fn serial_and_event_driven_attribution_are_identical() {
    for name in EXAMPLE_SCHEDULES {
        let (_, serial_events) = run_recorded(name);
        let (_, event_events) = run_recorded_event_driven(name);
        assert!(
            conservation_violations(&event_events).is_empty(),
            "{name}: event-driven stream conserves"
        );
        let serial = Attribution::from_events(&serial_events);
        let event = Attribution::from_events(&event_events);
        assert_eq!(
            serial.cells, event.cells,
            "{name}: per-(tile, epoch, category) attribution differs between cores"
        );
        assert_eq!(serial.totals, event.totals, "{name}: category totals");
    }
}

#[test]
fn link_matrix_agrees_with_tile_totals() {
    for name in EXAMPLE_SCHEDULES {
        let (_, events) = run_recorded(name);
        let c = Counters::from_events(&events);
        let link_total: u64 = c.links.values().sum();
        assert_eq!(
            link_total,
            c.total_words_sent(),
            "{name}: per-link matrix sums to the global traffic total"
        );
        for ((from, to), words) in &c.links {
            assert_ne!(from, to, "{name}: no tile sends to itself");
            assert!(*words > 0, "{name}: link rows are only created by traffic");
        }
    }
}
