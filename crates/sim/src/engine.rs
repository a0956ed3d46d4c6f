//! Cycle-driven simulation of the tile array.
//!
//! The array is synchronous: every active tile retires one instruction per
//! cycle. Remote writes travel over the writer's single active outgoing
//! link and land in the neighbour's data memory at the end of the cycle
//! (semi-systolic shared-memory communication).

use cgra_fabric::{FabricError, LinkConfig, Mesh, Tile, TileId, Word};
use cgra_isa::{step, ExecError, PeState, StepEffect};
use cgra_telemetry::{Coalescer, Event, EventSink, SegState};
use cgra_verify::Diagnostic;

/// Whether the simulator statically verifies programs and epochs before
/// running them (see `cgra-verify`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Skip static verification entirely.
    Off,
    /// Verify; error-severity findings abort the load or epoch switch.
    /// Warnings are collected but don't stop the run.
    Strict,
}

impl Default for VerifyMode {
    /// Verification is on by default in debug builds and opt-in in
    /// release builds (large design-space sweeps shouldn't pay for it
    /// unless asked).
    fn default() -> VerifyMode {
        if cfg!(debug_assertions) {
            VerifyMode::Strict
        } else {
            VerifyMode::Off
        }
    }
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A PE faulted.
    Exec {
        /// Faulting tile.
        tile: TileId,
        /// Underlying error.
        err: ExecError,
    },
    /// A remote write was issued with no active outgoing link.
    UnroutedWrite {
        /// Offending tile.
        tile: TileId,
    },
    /// Fabric-level error (bad link config, unknown tile...).
    Fabric(FabricError),
    /// A partial bitstream failed to parse.
    Bitstream(String),
    /// The cycle budget elapsed before the array quiesced.
    Deadline {
        /// Budget that elapsed.
        budget: u64,
    },
    /// Static verification rejected a program or epoch (error-severity
    /// findings only; see [`VerifyMode`]).
    Verify(Vec<Diagnostic>),
}

impl From<FabricError> for SimError {
    fn from(e: FabricError) -> Self {
        SimError::Fabric(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Exec { tile, err } => write!(f, "tile {tile}: {err}"),
            SimError::UnroutedWrite { tile } => {
                write!(f, "tile {tile} wrote remotely with no active link")
            }
            SimError::Fabric(e) => write!(f, "fabric: {e}"),
            SimError::Bitstream(e) => write!(f, "bitstream: {e}"),
            SimError::Deadline { budget } => {
                write!(f, "array did not quiesce within {budget} cycles")
            }
            SimError::Verify(diags) => {
                write!(f, "verification failed with {} finding(s)", diags.len())?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-tile activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Cycles spent executing instructions.
    pub busy_cycles: u64,
    /// Cycles spent stalled for partial reconfiguration.
    pub reconfig_cycles: u64,
    /// Remote words this tile sent.
    pub words_sent: u64,
    /// Remote words that landed in this tile's data memory.
    pub words_received: u64,
}

/// Fine-grained telemetry state, live only while a sink is attached.
/// The coalescer turns the per-cycle tile states into maximal
/// [`Event::Segment`]s so the sink sees runs, not cycles.
#[derive(Debug)]
struct TelemetryState {
    sink: Box<dyn EventSink>,
    coalesce: Coalescer,
}

/// The simulated array: mesh + per-tile hardware and PE state.
#[derive(Debug)]
pub struct ArraySim {
    /// Topology.
    pub mesh: Mesh,
    /// Tile hardware (memories).
    pub tiles: Vec<Tile>,
    /// PE architectural state.
    pub states: Vec<PeState>,
    /// Current interconnect configuration.
    pub links: LinkConfig,
    /// Per-tile reconfiguration stall counters (cycles remaining).
    stall: Vec<u64>,
    /// Per-tile activity counters.
    pub stats: Vec<TileStats>,
    /// Global cycle counter.
    pub now: u64,
    /// Static-verification policy for program loads and epoch switches.
    pub verify: VerifyMode,
    /// Fine-grained event telemetry; `None` (the default) costs one
    /// branch per stepped tile per cycle and nothing else.
    telemetry: Option<TelemetryState>,
}

impl ArraySim {
    /// Builds an idle array on `mesh` with halted PEs and empty memories.
    pub fn new(mesh: Mesh) -> ArraySim {
        let n = mesh.tiles();
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            let mut st = PeState::new();
            st.halted = true; // idle until a program is loaded
            states.push(st);
        }
        ArraySim {
            mesh,
            tiles: (0..n).map(Tile::new).collect(),
            states,
            links: LinkConfig::disconnected(n),
            stall: vec![0; n],
            stats: vec![TileStats::default(); n],
            now: 0,
            verify: VerifyMode::default(),
            telemetry: None,
        }
    }

    /// Attaches an event sink: from now on the engine emits coalesced
    /// per-tile [`Event::Segment`]s and per-word [`Event::LinkTransfer`]s
    /// into it. Replaces (and flushes) any previously attached sink.
    pub fn attach_sink(&mut self, sink: Box<dyn EventSink>) {
        self.detach_sink();
        let tiles = self.tiles.len();
        self.telemetry = Some(TelemetryState {
            sink,
            coalesce: Coalescer::new(tiles),
        });
    }

    /// Detaches the sink, closing any open segments at the current
    /// cycle, and returns it. The engine reverts to zero-overhead mode.
    pub fn detach_sink(&mut self) -> Option<Box<dyn EventSink>> {
        let now = self.now;
        self.telemetry.take().map(|mut ts| {
            ts.coalesce.flush(now, &mut *ts.sink);
            ts.sink
        })
    }

    /// True when a telemetry sink is attached.
    pub fn sink_attached(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Closes open segments at the current cycle without detaching
    /// (epoch boundaries call this so segments never straddle epochs).
    pub fn flush_segments(&mut self) {
        let now = self.now;
        if let Some(ts) = self.telemetry.as_mut() {
            ts.coalesce.flush(now, &mut *ts.sink);
        }
    }

    /// Forwards a summary event to the attached sink, if any (the epoch
    /// runner routes its always-on events through here).
    pub fn emit(&mut self, ev: &Event) {
        if let Some(ts) = self.telemetry.as_mut() {
            ts.sink.record(ev);
        }
    }

    /// Replaces the interconnect configuration (validated against the mesh).
    pub fn set_links(&mut self, links: LinkConfig) -> Result<(), SimError> {
        self.mesh.validate_links(&links)?;
        self.links = links;
        Ok(())
    }

    /// Loads a program onto tile `t` and arms its PE at pc 0.
    ///
    /// Under [`VerifyMode::Strict`] the decoded image is run through the
    /// program-level verifier first (with permissive preconditions — the
    /// host may have poked any word and ARs may carry over), and
    /// error-severity findings reject the load as [`SimError::Verify`].
    pub fn load_program(&mut self, t: TileId, image: &[u128]) -> Result<(), SimError> {
        if self.verify != VerifyMode::Off {
            self.verify_image(image)?;
        }
        let tile = self
            .tiles
            .get_mut(t)
            .ok_or(FabricError::UnknownTile { tile: t })?;
        tile.load_program(image)?;
        self.states[t].soft_reset();
        Ok(())
    }

    /// Statically verifies an encoded program image; `Err` carries the
    /// error-severity findings.
    pub fn verify_image(&self, image: &[u128]) -> Result<(), SimError> {
        use cgra_verify::{DmemInit, VerifyOptions};
        let prog = match cgra_isa::decode_program(image) {
            Ok(p) => p,
            // Undecodable slots fault at execution time with a precise
            // pc; don't mask that path here.
            Err(_) => return Ok(()),
        };
        let opts = VerifyOptions {
            dmem_init: DmemInit::Everything,
            ars_preloaded: true,
            ..VerifyOptions::default()
        };
        let diags = cgra_verify::verify_program_with(&prog, &opts);
        if cgra_verify::has_errors(&diags) {
            return Err(SimError::Verify(
                cgra_verify::errors(&diags).cloned().collect(),
            ));
        }
        Ok(())
    }

    /// Stalls tile `t` for `cycles` (partial reconfiguration in progress);
    /// the rest of the array keeps computing.
    pub fn stall_tile(&mut self, t: TileId, cycles: u64) {
        self.stall[t] = self.stall[t].max(cycles);
    }

    /// True when every PE is halted and no reconfiguration is in flight.
    pub fn quiesced(&self) -> bool {
        self.states.iter().all(|s| s.halted) && self.stall.iter().all(|&s| s == 0)
    }

    /// Runs until the array quiesces, up to `budget` cycles.
    ///
    /// The first cycle visits every tile. Each later cycle visits only
    /// the tiles that were stalled or busy on the cycle before, in
    /// ascending order: nothing re-arms a halted tile while the array
    /// runs (remote writes only poke data memory), so a tile that has
    /// gone idle stays idle until this call returns. It is observed once
    /// more while idle, which closes its open segment on the same cycle
    /// a full scan would, and then drops out of the list.
    pub fn run_until_quiesced(&mut self, budget: u64) -> Result<u64, SimError> {
        let start = self.now;
        let mut live: Vec<TileId> = (0..self.tiles.len()).collect();
        let mut writes: Vec<(TileId, TileId, usize, Word)> = Vec::new();
        while live
            .iter()
            .any(|&t| self.stall[t] > 0 || !self.states[t].halted)
        {
            if self.now - start >= budget {
                return Err(SimError::Deadline { budget });
            }
            let cyc = self.now;
            self.now += 1;
            let mut kept = 0;
            for i in 0..live.len() {
                let t = live[i];
                let state = if self.stall[t] > 0 {
                    self.stall[t] -= 1;
                    self.stats[t].reconfig_cycles += 1;
                    Some(SegState::Stall)
                } else if self.states[t].halted {
                    None
                } else {
                    let effect = step(&mut self.tiles[t], &mut self.states[t])
                        .map_err(|err| SimError::Exec { tile: t, err })?;
                    self.stats[t].busy_cycles += 1;
                    if let StepEffect::RemoteWrite { addr, value } = effect {
                        let dir = self
                            .links
                            .get(t)
                            .ok_or(SimError::UnroutedWrite { tile: t })?;
                        let dst = self
                            .mesh
                            .neighbour(t, dir)
                            .ok_or(FabricError::NotNeighbours { from: t, to: t })?;
                        self.stats[t].words_sent += 1;
                        writes.push((t, dst, addr, value));
                    }
                    Some(SegState::Busy)
                };
                if let Some(ts) = self.telemetry.as_mut() {
                    ts.coalesce.observe(t, state, cyc, &mut *ts.sink);
                }
                if state.is_some() {
                    live[kept] = t;
                    kept += 1;
                }
            }
            live.truncate(kept);
            // Remote writes land at the end of the cycle.
            for (src, dst, addr, value) in writes.drain(..) {
                self.tiles[dst].dmem.poke(addr, value)?;
                self.stats[dst].words_received += 1;
                if let Some(ts) = self.telemetry.as_mut() {
                    ts.sink.record(&Event::LinkTransfer {
                        from: src,
                        to: dst,
                        at: self.now,
                        words: 1,
                    });
                }
            }
        }
        Ok(self.now - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_fabric::Direction;
    use cgra_isa::ops::{at_off, d, rem_off};
    use cgra_isa::{encode_program, ProgramBuilder};

    fn copy_prog(src: u16, dst: u16, n: i32) -> Vec<u128> {
        let mut p = ProgramBuilder::new();
        p.ldar(0, src);
        p.ldar(1, dst);
        p.ldi(d(500), n);
        let l = p.here_label();
        p.mov(rem_off(1, 0), at_off(0, 0));
        p.adar(0, 1);
        p.adar(1, 1);
        p.djnz(d(500), l);
        p.halt();
        encode_program(&p.build().unwrap())
    }

    fn count_prog(n: i32) -> Vec<u128> {
        let mut p = ProgramBuilder::new();
        p.ldi(d(0), n);
        let l = p.here_label();
        p.djnz(d(0), l);
        p.halt();
        encode_program(&p.build().unwrap())
    }

    #[test]
    fn producer_ships_block_to_consumer() {
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        sim.set_links(mesh.disconnected().with(0, Direction::East))
            .unwrap();
        for i in 0..8 {
            sim.tiles[0]
                .dmem
                .poke(i, Word::wrap(100 + i as i64))
                .unwrap();
        }
        sim.load_program(0, &copy_prog(0, 64, 8)).unwrap();
        let cycles = sim.run_until_quiesced(10_000).unwrap();
        for i in 0..8 {
            assert_eq!(
                sim.tiles[1].dmem.peek(64 + i).unwrap().value(),
                100 + i as i64
            );
        }
        assert_eq!(sim.stats[0].words_sent, 8);
        assert_eq!(sim.stats[1].words_received, 8);
        assert!(cycles > 8);
        assert_eq!(sim.stats[1].busy_cycles, 0);
    }

    #[test]
    fn attached_sink_sees_segments_and_transfers() {
        use cgra_telemetry::Recorder;
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        sim.set_links(mesh.disconnected().with(0, Direction::East))
            .unwrap();
        for i in 0..4 {
            sim.tiles[0].dmem.poke(i, Word::wrap(7 + i as i64)).unwrap();
        }
        sim.load_program(0, &copy_prog(0, 64, 4)).unwrap();
        let rec = Recorder::new();
        sim.attach_sink(Box::new(rec.clone()));
        assert!(sim.sink_attached());
        sim.run_until_quiesced(10_000).unwrap();
        sim.detach_sink();
        assert!(!sim.sink_attached());
        let evs = rec.events();
        // One maximal busy segment for tile 0, spanning the whole run.
        let segs: Vec<_> = evs
            .iter()
            .filter(|e| matches!(e, Event::Segment { tile: 0, .. }))
            .collect();
        assert_eq!(segs.len(), 1);
        if let Event::Segment {
            state, start, end, ..
        } = segs[0]
        {
            assert_eq!(*state, SegState::Busy);
            assert_eq!(*start, 0);
            assert_eq!(*end, sim.now);
        }
        // Every shipped word shows up as a transfer.
        let words: u64 = evs
            .iter()
            .filter_map(|e| match e {
                Event::LinkTransfer {
                    from: 0,
                    to: 1,
                    words,
                    ..
                } => Some(*words),
                _ => None,
            })
            .sum();
        assert_eq!(words, 4);
        assert_eq!(sim.stats[1].words_received, 4);
    }

    #[test]
    fn unrouted_write_faults() {
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        sim.load_program(0, &copy_prog(0, 0, 1)).unwrap();
        assert!(matches!(
            sim.run_until_quiesced(100),
            Err(SimError::UnroutedWrite { tile: 0 })
        ));
    }

    #[test]
    fn stalled_tile_does_not_execute_but_others_do() {
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        // Both tiles count to 100.
        sim.load_program(0, &count_prog(100)).unwrap();
        sim.load_program(1, &count_prog(100)).unwrap();
        sim.stall_tile(0, 50);
        sim.run_until_quiesced(10_000).unwrap();
        assert_eq!(sim.stats[0].reconfig_cycles, 50);
        // Tile 1 overlapped the reconfiguration: same busy cycles, no stall.
        assert_eq!(sim.stats[1].reconfig_cycles, 0);
        assert_eq!(sim.stats[0].busy_cycles, sim.stats[1].busy_cycles);
    }

    /// The segments recorded for `tile`, as `(state, start, end)`.
    fn segments(evs: &[Event], tile: TileId) -> Vec<(SegState, u64, u64)> {
        evs.iter()
            .filter_map(|e| match e {
                Event::Segment {
                    tile: t,
                    state,
                    start,
                    end,
                } if *t == tile => Some((*state, *start, *end)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn halted_tile_closes_its_segment_while_its_neighbour_runs_on() {
        use cgra_telemetry::Recorder;
        let mut sim = ArraySim::new(Mesh::new(1, 3));
        sim.load_program(0, &count_prog(10)).unwrap();
        sim.load_program(2, &count_prog(100)).unwrap();
        let rec = Recorder::new();
        sim.attach_sink(Box::new(rec.clone()));
        let cycles = sim.run_until_quiesced(10_000).unwrap();
        let short = sim.stats[0].busy_cycles;
        assert!(short < cycles);
        assert_eq!(sim.stats[2].busy_cycles, cycles);
        // Tile 0's segment closed on the cycle after its halt, during
        // the run; tile 2's stays open until the flush.
        let before_flush = rec.len();
        assert_eq!(segments(&rec.events(), 0), [(SegState::Busy, 0, short)]);
        assert!(segments(&rec.events(), 2).is_empty());
        sim.detach_sink();
        let evs = rec.events();
        assert_eq!(evs.len(), before_flush + 1);
        assert_eq!(segments(&evs, 2), [(SegState::Busy, 0, cycles)]);
        assert!(segments(&evs, 1).is_empty());
    }

    #[test]
    fn patch_only_tile_is_only_stalled() {
        use cgra_telemetry::Recorder;
        let mut sim = ArraySim::new(Mesh::new(1, 2));
        // Tile 1 is rewritten (data patch) but runs nothing.
        sim.stall_tile(1, 30);
        sim.load_program(0, &count_prog(5)).unwrap();
        let rec = Recorder::new();
        sim.attach_sink(Box::new(rec.clone()));
        let cycles = sim.run_until_quiesced(10_000).unwrap();
        assert_eq!(cycles, 30, "the stall alone keeps the array live");
        sim.detach_sink();
        let evs = rec.events();
        let busy = sim.stats[0].busy_cycles;
        assert_eq!(segments(&evs, 0), [(SegState::Busy, 0, busy)]);
        assert_eq!(segments(&evs, 1), [(SegState::Stall, 0, 30)]);
        assert_eq!(
            sim.stats[1],
            TileStats {
                reconfig_cycles: 30,
                ..TileStats::default()
            }
        );
        assert!(sim.quiesced());
    }

    #[test]
    fn segment_left_open_spans_two_runs() {
        use cgra_telemetry::Recorder;
        let mut sim = ArraySim::new(Mesh::new(1, 3));
        sim.load_program(0, &count_prog(20)).unwrap();
        sim.load_program(1, &count_prog(20)).unwrap();
        let rec = Recorder::new();
        sim.attach_sink(Box::new(rec.clone()));
        let first = sim.run_until_quiesced(10_000).unwrap();
        // No flush between the runs: both busy segments stay open.
        assert!(rec.is_empty());
        // Tile 0 restarts at once, so its run continues; tile 1 stays
        // halted and its segment closes on the second run's first cycle;
        // tile 2 starts fresh.
        sim.load_program(0, &count_prog(20)).unwrap();
        sim.load_program(2, &count_prog(5)).unwrap();
        let second = sim.run_until_quiesced(10_000).unwrap();
        assert_eq!(segments(&rec.events(), 1), [(SegState::Busy, 0, first)]);
        sim.detach_sink();
        let evs = rec.events();
        let total = first + second;
        assert_eq!(sim.now, total);
        assert_eq!(segments(&evs, 0), [(SegState::Busy, 0, total)]);
        assert_eq!(segments(&evs, 1), [(SegState::Busy, 0, first)]);
        let short = sim.stats[2].busy_cycles;
        assert_eq!(segments(&evs, 2), [(SegState::Busy, first, first + short)]);
        // Event order: tile 1 closes first (second run, first cycle),
        // then tile 2 (on halting), then tile 0 at the flush.
        let order: Vec<TileId> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Segment { tile, .. } => Some(*tile),
                _ => None,
            })
            .collect();
        assert_eq!(order, [1, 2, 0]);
    }

    #[test]
    fn deadline_detected() {
        let mesh = Mesh::new(1, 1);
        let mut sim = ArraySim::new(mesh);
        // Deliberately load an infinite loop; verification would (rightly)
        // reject it before the deadline machinery gets a chance.
        sim.verify = VerifyMode::Off;
        let mut p = ProgramBuilder::new();
        let l = p.here_label();
        p.jmp(l);
        sim.load_program(0, &encode_program(&p.build().unwrap()))
            .unwrap();
        assert!(matches!(
            sim.run_until_quiesced(100),
            Err(SimError::Deadline { budget: 100 })
        ));
    }

    #[test]
    fn strict_verify_rejects_nonterminating_load() {
        let mesh = Mesh::new(1, 1);
        let mut sim = ArraySim::new(mesh);
        sim.verify = VerifyMode::Strict;
        let mut p = ProgramBuilder::new();
        let l = p.here_label();
        p.jmp(l);
        let err = sim
            .load_program(0, &encode_program(&p.build().unwrap()))
            .unwrap_err();
        match err {
            SimError::Verify(diags) => {
                assert!(diags.iter().all(|d| d.is_error()));
                assert!(!diags.is_empty());
            }
            other => panic!("expected Verify, got {other:?}"),
        }
        // The PE was left untouched (still idle).
        assert!(sim.states[0].halted);
    }

    #[test]
    fn bad_link_config_rejected() {
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        let bad = mesh.disconnected().with(0, Direction::North);
        assert!(sim.set_links(bad).is_err());
    }
}
