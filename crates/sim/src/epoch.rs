//! Epoch schedules and Eq. 1 accounting.
//!
//! An application runs as a sequence of **epochs**: each has its own link
//! configuration `C_i` and per-tile programs. Switching from `C_i` to
//! `C_j` costs `tau_ij` (proportional to the changed links, plus the ICAP
//! time for memory rewrites); because the reconfiguration is partial, only
//! rewritten tiles stall — the rest keep computing through the switch.
//!
//! The runner produces the paper's Eq. 1 decomposition:
//!
//! ```text
//! Runtime = sum_i T_i  +  sum_ij tau_ij  +  sum T_copy
//!           (A: epochs)   (B: reconfig)    (C: data copies)
//! ```

use crate::engine::{ArraySim, SimError, TileStats, VerifyMode};
use crate::trace::Trace;
use cgra_fabric::bitstream::{self, ParsedBitstream};
use cgra_fabric::{
    CostModel, DataPatch, LinkConfig, Mesh, ReconfigPlan, ShadowConfig, TileId, TileReconfig,
};
use cgra_isa::encode_program;
use cgra_isa::Instr;
use cgra_lint::HoistPlan;
use cgra_telemetry::{Counters, Event};
use cgra_verify::{Code, Diagnostic, EpochSpec, ScheduleChecker, TileSpec};

/// Reconfiguration payload for one tile in an epoch.
#[derive(Debug, Clone, Default)]
pub struct TileSetup {
    /// New program (assembled instructions), if the tile's code changes.
    pub program: Option<Vec<Instr>>,
    /// Data words rewritten during the switch (twiddles, copy variables).
    pub data_patches: Vec<DataPatch>,
}

/// One epoch: interconnect + the tiles it reconfigures.
#[derive(Debug, Clone, Default)]
pub struct Epoch {
    /// Human-readable name for traces.
    pub name: String,
    /// Interconnect for this epoch.
    pub links: LinkConfig,
    /// Per-tile reconfiguration payloads.
    pub setups: Vec<(TileId, TileSetup)>,
    /// Cycle budget for the epoch's computation.
    pub budget: u64,
}

/// Borrowed `cgra-verify` view of an [`Epoch`].
pub fn epoch_spec(e: &Epoch) -> EpochSpec<'_> {
    EpochSpec {
        name: &e.name,
        links: &e.links,
        tiles: e
            .setups
            .iter()
            .map(|(t, s)| TileSpec {
                tile: *t,
                program: s.program.as_deref(),
                data_patches: &s.data_patches,
            })
            .collect(),
    }
}

/// Statically verifies a whole schedule for `mesh` (a cold array),
/// without running anything. Returns every finding; filter with
/// [`cgra_verify::has_errors`] to gate execution.
pub fn verify_epochs(mesh: Mesh, epochs: &[Epoch]) -> Vec<Diagnostic> {
    let mut checker = ScheduleChecker::new(mesh);
    epochs
        .iter()
        .flat_map(|e| checker.check_epoch(&epoch_spec(e)))
        .collect()
}

/// Statically bounds a whole schedule for `mesh` without running it:
/// the verifier's WCET engine ([`cgra_verify::bound_schedule`]) plus a
/// per-epoch deadline check against each [`Epoch::budget`]. A budget
/// the best case already exceeds is a [`Code::DeadlineRisk`] error (the
/// runner *will* abort with `CycleBudgetExhausted`); a budget only the
/// worst case exceeds — or an unbounded worst case — is a warning.
pub fn bound_epochs(mesh: Mesh, cost: &CostModel, epochs: &[Epoch]) -> cgra_verify::ScheduleBound {
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    let mut bound = cgra_verify::bound_schedule(mesh, cost, &specs);
    for (ei, (e, eb)) in epochs.iter().zip(bound.epochs.iter()).enumerate() {
        // The stall cycles spend budget too: quiescence counts them.
        let need_best = eb.stall_cycles.saturating_add(eb.compute.best);
        let need_worst = eb.compute.worst.map(|w| eb.stall_cycles.saturating_add(w));
        let risk = |d: Diagnostic| d.in_epoch(ei);
        if need_best > e.budget {
            bound.diags.push(risk(Diagnostic::error(
                Code::DeadlineRisk,
                format!(
                    "epoch '{}': needs at least {} cycles (stall {} + compute {}) but the \
                     budget is {}",
                    e.name, need_best, eb.stall_cycles, eb.compute.best, e.budget
                ),
            )));
        } else {
            match need_worst {
                None => bound.diags.push(risk(Diagnostic::warning(
                    Code::DeadlineRisk,
                    format!(
                        "epoch '{}': worst-case cycles unbounded; the {}-cycle budget \
                         cannot be guaranteed",
                        e.name, e.budget
                    ),
                ))),
                Some(w) if w > e.budget => bound.diags.push(risk(Diagnostic::warning(
                    Code::DeadlineRisk,
                    format!(
                        "epoch '{}': may need up to {} cycles (stall {} + worst-case \
                         compute) but the budget is {}",
                        e.name, w, eb.stall_cycles, e.budget
                    ),
                ))),
                Some(_) => {}
            }
        }
    }
    bound
}

/// Eq. 1 accounting for one executed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch name.
    pub name: String,
    /// Computation time (term A contribution), ns.
    pub compute_ns: f64,
    /// Reconfiguration time for the switch into this epoch (term B + the
    /// memory-rewrite part), ns.
    pub reconfig_ns: f64,
    /// How much of the reconfiguration overlapped computation that was
    /// still running on untouched tiles, ns (informational).
    pub links_changed: usize,
    /// Words copied across tiles during the epoch (term C traffic).
    pub words_copied: u64,
}

/// Whole-run accounting.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-epoch breakdown.
    pub epochs: Vec<EpochReport>,
}

impl RunReport {
    /// Term A: total compute, ns.
    pub fn total_compute_ns(&self) -> f64 {
        self.epochs.iter().map(|e| e.compute_ns).sum()
    }

    /// Term B: total reconfiguration, ns.
    pub fn total_reconfig_ns(&self) -> f64 {
        self.epochs.iter().map(|e| e.reconfig_ns).sum()
    }

    /// Eq. 1 total, ns.
    pub fn total_ns(&self) -> f64 {
        self.total_compute_ns() + self.total_reconfig_ns()
    }
}

/// Runs epochs on an array, applying partial reconfiguration between them.
#[derive(Debug)]
pub struct EpochRunner {
    /// The simulated array.
    pub sim: ArraySim,
    /// The cost model used for reconfiguration stalls.
    pub cost: CostModel,
    /// Every verifier finding gathered so far (warnings included; errors
    /// additionally abort the offending epoch as [`SimError::Verify`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Summary telemetry events, one small batch per executed epoch
    /// (always on; the trace and counters views fold over these).
    pub(crate) events: Vec<Event>,
    /// Epochs executed so far (indexes the event stream).
    pub(crate) epochs_run: usize,
    pub(crate) prev_links: LinkConfig,
    pub(crate) checker: ScheduleChecker,
}

impl EpochRunner {
    /// Wraps an array.
    pub fn new(sim: ArraySim, cost: CostModel) -> EpochRunner {
        let prev_links = sim.links.clone();
        let checker = ScheduleChecker::new(sim.mesh);
        EpochRunner {
            sim,
            cost,
            diagnostics: Vec::new(),
            events: Vec::new(),
            epochs_run: 0,
            prev_links,
            checker,
        }
    }

    /// The summary event stream recorded so far (fine-grained engine
    /// events go to the sim's attached sink instead; see
    /// [`ArraySim::attach_sink`]).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Per-tile activity trace, rebuilt from the event stream.
    pub fn trace(&self) -> Trace {
        Trace::from_events(&self.events)
    }

    /// The metrics registry folded from the event stream.
    pub fn counters(&self) -> Counters {
        Counters::from_events(&self.events)
    }

    /// Records a summary event and forwards it to the sim's attached
    /// sink (if any) so external consumers see one merged stream.
    pub(crate) fn emit(&mut self, ev: Event) {
        self.sim.emit(&ev);
        self.events.push(ev);
    }

    /// Closes one executed epoch: flushes open engine segments and
    /// emits the per-tile activity summaries and the end bracket.
    pub(crate) fn finish_epoch(&mut self, epoch: usize, name: &str, before: &[TileStats]) {
        self.sim.flush_segments();
        let deltas: Vec<(TileId, TileStats)> = self
            .sim
            .stats
            .iter()
            .zip(before)
            .enumerate()
            .map(|(t, (now, then))| {
                (
                    t,
                    TileStats {
                        busy_cycles: now.busy_cycles - then.busy_cycles,
                        reconfig_cycles: now.reconfig_cycles - then.reconfig_cycles,
                        words_sent: now.words_sent - then.words_sent,
                        words_received: now.words_received - then.words_received,
                    },
                )
            })
            .collect();
        let at = self.sim.now;
        // The epoch's begin bracket is already in the summary stream;
        // its span is what the attribution below must partition.
        let start = self
            .events
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::EpochBegin { epoch: i, at, .. } if *i == epoch => Some(*at),
                _ => None,
            })
            .unwrap_or(at);
        let span = at.saturating_sub(start);
        for (t, d) in deltas {
            self.emit(Event::TileEpoch {
                epoch,
                tile: t,
                busy: d.busy_cycles,
                stalled: d.reconfig_cycles,
                words_sent: d.words_sent,
                words_received: d.words_received,
            });
            // Cycle attribution is a pure function of the summary just
            // emitted, so all three cores (serial, event-driven,
            // composed) attribute identically by construction.
            self.emit(Event::TileAttrib {
                epoch,
                tile: t,
                cycles: cgra_telemetry::classify(
                    span,
                    d.busy_cycles,
                    d.reconfig_cycles,
                    d.words_sent,
                    d.words_received,
                ),
            });
        }
        self.emit(Event::EpochEnd {
            epoch,
            name: name.to_string(),
            at,
        });
        self.epochs_run += 1;
    }

    /// Applies an epoch's reconfiguration and runs it to quiescence.
    ///
    /// Under [`VerifyMode::Strict`] the epoch is first checked by the
    /// schedule verifier (which carries initialized-memory state across
    /// the epochs this runner has executed); error findings abort the
    /// switch before anything is applied.
    pub fn run_epoch(&mut self, epoch: &Epoch) -> Result<EpochReport, SimError> {
        self.run_switched_epoch(epoch, self.epochs_run, None)
    }

    /// Runs an epoch whose reconfiguration arrives as a serialized partial
    /// bitstream — the prototype's CompactFlash -> ICAP path. The stream is
    /// parsed, the rewritten tiles stall for the ICAP time, the link
    /// settings it carries are applied, and the epoch runs to quiescence.
    pub fn run_bitstream_epoch(
        &mut self,
        name: &str,
        bytes: &[u8],
        budget: u64,
    ) -> Result<EpochReport, SimError> {
        let parsed: ParsedBitstream =
            bitstream::parse(bytes).map_err(|e| SimError::Bitstream(e.to_string()))?;
        // Target links: current config with the stream's settings applied.
        let mut links = self.sim.links.clone();
        for (t, d) in &parsed.links {
            links.set(*t, *d);
        }
        let mut plan = parsed.plan.clone();
        plan.changed_links = self.prev_links.delta(&links);
        let reconfig_ns = plan.total_ns(&self.cost);
        let stall_cycles = self.cost.stall_cycles(reconfig_ns);
        let epoch_idx = self.epochs_run;
        let start = self.sim.now;
        self.emit(Event::EpochBegin {
            epoch: epoch_idx,
            name: name.to_string(),
            at: start,
        });
        self.emit(Event::Reconfig {
            epoch: epoch_idx,
            at: start,
            breakdown: plan.breakdown(),
            reconfig_ns,
            stall_cycles,
            stalled_tiles: plan.stalled_tiles(),
        });

        bitstream::apply(&parsed, &mut self.sim.tiles, &mut self.sim.links)
            .map_err(SimError::Fabric)?;
        // Re-arm reprogrammed PEs and stall rewritten tiles.
        for (t, rc) in &parsed.plan.tiles {
            if rc.program.is_some() {
                self.sim.states[*t].soft_reset();
            }
        }
        for t in plan.stalled_tiles() {
            self.sim.stall_tile(t, stall_cycles);
        }
        let switch = (reconfig_ns, stall_cycles, plan.changed_links);
        self.run_switched(epoch_idx, name, links, budget, switch)
    }

    /// Runs a whole schedule.
    ///
    /// Unlike [`EpochRunner::run_epoch`] (which only sees one epoch at a
    /// time), this has the whole schedule in hand, so under any verify
    /// mode other than [`VerifyMode::Off`] it first runs the
    /// `cgra-lint` inter-epoch pass at its default levels: deny-level
    /// findings (e.g. a reconfiguration patch clobbering live data,
    /// [`cgra_verify::Code::ClobberByPatch`]) abort before anything is
    /// applied, warnings land in [`EpochRunner::diagnostics`]. The lint
    /// pass assumes a cold array, so it is skipped when this runner has
    /// already executed epochs.
    pub fn run_schedule(&mut self, epochs: &[Epoch]) -> Result<RunReport, SimError> {
        self.cold_lint_gate(epochs)?;
        let mut report = RunReport::default();
        for e in epochs {
            report.epochs.push(self.run_epoch(e)?);
        }
        Ok(report)
    }

    /// The cold-run `cgra-lint` inter-epoch gate shared by every
    /// whole-schedule entry point: deny-level findings abort before
    /// anything is applied, warnings land in
    /// [`EpochRunner::diagnostics`]. Skipped when verification is off or
    /// when this runner has already executed epochs (the lint pass
    /// assumes a cold array).
    pub(crate) fn cold_lint_gate(&mut self, epochs: &[Epoch]) -> Result<(), SimError> {
        if self.sim.verify != VerifyMode::Off && self.checker.epochs_seen() == 0 {
            let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
            let lint = cgra_lint::lint_schedule(
                self.sim.mesh,
                &specs,
                &cgra_lint::LintLevels::default(),
                &self.cost,
            );
            let errs: Vec<Diagnostic> = cgra_verify::errors(&lint.diags).cloned().collect();
            self.diagnostics.extend(lint.diags);
            if !errs.is_empty() {
                return Err(SimError::Verify(errs));
            }
        }
        Ok(())
    }

    /// Runs a whole schedule under a hoisting plan from
    /// `cgra_lint::overlap`: hoisted reconfiguration payloads stream into
    /// the double-buffered shadow plane during their donor epochs' idle
    /// windows and commit — at zero foreground ICAP cost — at the switch
    /// into their target epoch.
    ///
    /// The execution is **bit-exact** with [`EpochRunner::run_schedule`]:
    /// a committed payload is byte-identical to the slot it replaces and
    /// lands at the same switch point, every touched tile (committed or
    /// foreground) still waits out the — now shorter — foreground stall,
    /// and untouched tiles stay halted; only the Eq. 1 reconfiguration
    /// term shrinks. Under any verify mode other than [`VerifyMode::Off`]
    /// this is enforced up front: the plan's certificates are re-derived
    /// by `cgra_lint::verify_hoists` and a single failed proof aborts the
    /// run ([`cgra_verify::Code::HoistRefused`]) before anything is
    /// applied, exactly like a verifier error; the cold-run inter-epoch
    /// lint gate of [`EpochRunner::run_schedule`] applies unchanged.
    pub fn run_hoisted_schedule(
        &mut self,
        epochs: &[Epoch],
        plan: &HoistPlan,
    ) -> Result<RunReport, SimError> {
        if self.sim.verify != VerifyMode::Off {
            let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
            let refused = cgra_lint::verify_hoists(self.sim.mesh, &specs, plan, &self.cost);
            if !refused.is_empty() {
                let errs: Vec<Diagnostic> = cgra_verify::errors(&refused).cloned().collect();
                self.diagnostics.extend(refused);
                return Err(SimError::Verify(errs));
            }
        }
        self.cold_lint_gate(epochs)?;
        let mut shadow = ShadowConfig::new(self.sim.mesh.tiles(), plan.shadow_depth.max(1));
        let mut report = RunReport::default();
        for (j, e) in epochs.iter().enumerate() {
            report
                .epochs
                .push(self.run_switched_epoch(e, j, Some((plan, &mut shadow)))?);
            self.stage_prefetches(epochs, j, plan, &mut shadow)?;
        }
        Ok(report)
    }

    /// The per-epoch verifier gate: under any verify mode other than
    /// [`VerifyMode::Off`] the epoch is checked against the
    /// initialized-memory state threaded through every epoch this runner
    /// has executed; error findings abort before anything is applied.
    pub(crate) fn gate_epoch(&mut self, epoch: &Epoch) -> Result<(), SimError> {
        if self.sim.verify != VerifyMode::Off {
            let found = self.checker.check_epoch(&epoch_spec(epoch));
            let errs: Vec<Diagnostic> = cgra_verify::errors(&found).cloned().collect();
            self.diagnostics.extend(found);
            if !errs.is_empty() {
                return Err(SimError::Verify(errs));
            }
        }
        Ok(())
    }

    /// One whole-array epoch of a plain (`hoist` = `None`) or hoisted run:
    /// gate, switch, run to quiescence, close. `idx` is the epoch's index
    /// in its schedule, which the hoisting plan is keyed by.
    fn run_switched_epoch(
        &mut self,
        epoch: &Epoch,
        idx: usize,
        hoist: Option<(&HoistPlan, &mut ShadowConfig)>,
    ) -> Result<EpochReport, SimError> {
        // Under a plan the checker still sees the *original* epoch: a
        // commit is the same write at the same point, so legality and the
        // threaded may-init state are those of the unhoisted schedule.
        self.gate_epoch(epoch)?;
        let epoch_idx = self.epochs_run;
        self.emit(Event::EpochBegin {
            epoch: epoch_idx,
            name: epoch.name.clone(),
            at: self.sim.now,
        });
        let prev = self.prev_links.clone();
        let switch = self.switch_region(epoch, idx, &prev, hoist)?;
        self.run_switched(
            epoch_idx,
            &epoch.name,
            epoch.links.clone(),
            epoch.budget,
            switch,
        )
    }

    /// Switches one region into `epoch` (index `idx` of its schedule)
    /// from the region's previous links `prev`: emits the `Reconfig`,
    /// commits the slots `hoist` prefetched from the shadow plane (zero
    /// foreground ICAP time) and streams the rest through the
    /// foreground, then stalls *every* touched tile for the foreground
    /// switch time — keeping all re-armed tiles cycle-aligned, which is
    /// what makes a hoisted replay bit-exact. The links themselves are
    /// left to the caller (a composed run overlays several regions).
    /// Returns the switch's `(reconfig_ns, stall_cycles, links_changed)`.
    pub(crate) fn switch_region(
        &mut self,
        epoch: &Epoch,
        idx: usize,
        prev: &LinkConfig,
        mut hoist: Option<(&HoistPlan, &mut ShadowConfig)>,
    ) -> Result<(f64, u64, usize), SimError> {
        // Foreground plan: the link delta plus the slots that are not
        // hoisted. The full plan still names every touched tile — they
        // all stall through the switch.
        let mut fg = ReconfigPlan::from_link_change(prev, &epoch.links);
        let mut full = fg.clone();
        // Per slot: whether it commits from the shadow plane, and the
        // image it loads otherwise (each program is encoded once).
        let mut slots = Vec::with_capacity(epoch.setups.len());
        for (slot, (t, setup)) in epoch.setups.iter().enumerate() {
            let rc = TileReconfig {
                program: setup.program.as_ref().map(|p| encode_program(p)),
                data_patches: setup.data_patches.clone(),
            };
            let hoisted = hoist.as_ref().is_some_and(|(p, _)| p.is_hoisted(idx, slot));
            if hoisted {
                slots.push((true, None));
            } else {
                slots.push((false, rc.program.clone()));
                fg.add_tile(*t, rc.clone());
            }
            full.add_tile(*t, rc);
        }
        let reconfig_ns = fg.total_ns(&self.cost);
        let stall_cycles = self.cost.stall_cycles(reconfig_ns);
        let epoch_idx = self.epochs_run;
        let start = self.sim.now;
        let stalled = full.stalled_tiles();
        self.emit(Event::Reconfig {
            epoch: epoch_idx,
            at: start,
            breakdown: fg.breakdown(),
            reconfig_ns,
            stall_cycles,
            stalled_tiles: stalled.clone(),
        });

        for ((t, setup), (hoisted, img)) in epoch.setups.iter().zip(slots) {
            if hoisted {
                let Some(rc) = hoist.as_mut().and_then(|(_, sh)| sh.commit(*t, idx)) else {
                    return Err(SimError::Bitstream(format!(
                        "shadow commit: tile {t} has no payload staged for epoch {idx}"
                    )));
                };
                let payload_ns = self.cost.data_reload_ns(rc.data_words())
                    + self.cost.instr_reload_ns(rc.instr_words());
                if let Some(img) = &rc.program {
                    self.sim.load_program(*t, img)?;
                }
                for patch in &rc.data_patches {
                    self.sim.tiles[*t].dmem.load(patch.base, &patch.words)?;
                }
                self.emit(Event::ShadowCommit {
                    epoch: epoch_idx,
                    at: start,
                    tile: *t,
                    payload_ns,
                });
            } else {
                if let Some(img) = img {
                    self.sim.load_program(*t, &img)?;
                }
                for patch in &setup.data_patches {
                    self.sim.tiles[*t].dmem.load(patch.base, &patch.words)?;
                }
            }
        }
        for t in stalled {
            self.sim.stall_tile(t, stall_cycles);
        }
        Ok((reconfig_ns, stall_cycles, fg.changed_links))
    }

    /// Stages the payloads of `plan` whose last donor window lies inside
    /// epoch `j` of `epochs`: they are fully streamed by its end.
    pub(crate) fn stage_prefetches(
        &mut self,
        epochs: &[Epoch],
        j: usize,
        plan: &HoistPlan,
        shadow: &mut ShadowConfig,
    ) -> Result<(), SimError> {
        for h in plan.hoists.iter() {
            if h.claims.iter().map(|c| c.epoch).max() != Some(j) {
                continue;
            }
            let Some((tile, setup)) = epochs.get(h.target).and_then(|t| t.setups.get(h.slot))
            else {
                continue; // verify_hoists already vouched; unreachable
            };
            let rc = TileReconfig {
                program: setup.program.as_ref().map(|p| encode_program(p)),
                data_patches: setup.data_patches.clone(),
            };
            shadow
                .stage(*tile, h.target, rc)
                .map_err(|e| SimError::Bitstream(format!("shadow stage: {e}")))?;
            let at = self.sim.now;
            let pending = shadow.pending(*tile);
            self.emit(Event::ShadowPrefetch {
                epoch: j,
                at,
                tile: *tile,
                target: h.target,
                payload_ns: h.payload_ns,
                pending,
            });
        }
        Ok(())
    }

    /// The post-switch tail of a whole-array epoch: applies `links`, runs
    /// the array to quiescence within `budget` and closes the epoch.
    fn run_switched(
        &mut self,
        epoch_idx: usize,
        name: &str,
        links: LinkConfig,
        budget: u64,
        switch: (f64, u64, usize),
    ) -> Result<EpochReport, SimError> {
        self.sim.set_links(links.clone())?;
        self.prev_links = links;
        let stats_before = self.sim.stats.clone();
        let cycles = self.sim.run_until_quiesced(budget)?;
        Ok(self.close_epoch(epoch_idx, name, &stats_before, cycles, switch))
    }

    /// Closes an executed epoch ([`EpochRunner::finish_epoch`]) and
    /// returns its Eq. 1 report: `cycles` since the switch, less the
    /// stall head, is the compute term.
    pub(crate) fn close_epoch(
        &mut self,
        epoch_idx: usize,
        name: &str,
        stats_before: &[TileStats],
        cycles: u64,
        (reconfig_ns, stall_cycles, links_changed): (f64, u64, usize),
    ) -> EpochReport {
        self.finish_epoch(epoch_idx, name, stats_before);
        let sent_after: u64 = self.sim.stats.iter().map(|s| s.words_sent).sum();
        let sent_before: u64 = stats_before.iter().map(|s| s.words_sent).sum();
        EpochReport {
            name: name.to_string(),
            compute_ns: self.cost.exec_ns(cycles.saturating_sub(stall_cycles)),
            reconfig_ns,
            links_changed,
            words_copied: sent_after - sent_before,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_fabric::{Direction, Mesh, Word};
    use cgra_isa::ops::{at_off, d, rem_off};
    use cgra_isa::ProgramBuilder;

    fn copy_prog(src: u16, dst: u16, n: i32) -> Vec<Instr> {
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
        p.build().unwrap()
    }

    fn idle_prog() -> Vec<Instr> {
        let mut p = ProgramBuilder::new();
        p.halt();
        p.build().unwrap()
    }

    #[test]
    fn two_epoch_ring() {
        // Epoch 1: tile 0 -> tile 1; epoch 2: tile 1 -> tile 0.
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        for i in 0..4 {
            sim.tiles[0].dmem.poke(i, Word::wrap(7 + i as i64)).unwrap();
        }
        let cost = CostModel::with_link_cost(100.0);
        let mut runner = EpochRunner::new(sim, cost);
        let e1 = Epoch {
            name: "east".into(),
            links: mesh.disconnected().with(0, Direction::East),
            setups: vec![
                (
                    0,
                    TileSetup {
                        program: Some(copy_prog(0, 100, 4)),
                        data_patches: vec![],
                    },
                ),
                (
                    1,
                    TileSetup {
                        program: Some(idle_prog()),
                        data_patches: vec![],
                    },
                ),
            ],
            budget: 10_000,
        };
        let e2 = Epoch {
            name: "west".into(),
            links: mesh.disconnected().with(1, Direction::West),
            setups: vec![
                (
                    1,
                    TileSetup {
                        program: Some(copy_prog(100, 200, 4)),
                        data_patches: vec![],
                    },
                ),
                (
                    0,
                    TileSetup {
                        program: Some(idle_prog()),
                        data_patches: vec![],
                    },
                ),
            ],
            budget: 10_000,
        };
        let report = runner.run_schedule(&[e1, e2]).unwrap();
        // Data made the round trip.
        for i in 0..4 {
            assert_eq!(
                runner.sim.tiles[0].dmem.peek(200 + i).unwrap().value(),
                7 + i as i64
            );
        }
        assert_eq!(report.epochs.len(), 2);
        // Epoch 1 changed 1 link (none -> east); epoch 2 changed 2.
        assert_eq!(report.epochs[0].links_changed, 1);
        assert_eq!(report.epochs[1].links_changed, 2);
        assert!(report.epochs[1].reconfig_ns >= 200.0);
        assert_eq!(report.epochs[0].words_copied, 4);
        assert!(report.total_ns() > 0.0);
    }

    #[test]
    fn data_patch_applied_and_costed() {
        let mesh = Mesh::new(1, 1);
        let sim = ArraySim::new(mesh);
        let cost = CostModel::default();
        let mut runner = EpochRunner::new(sim, cost);
        let epoch = Epoch {
            name: "patch".into(),
            links: mesh.disconnected(),
            setups: vec![(
                0,
                TileSetup {
                    program: Some(idle_prog()),
                    data_patches: vec![DataPatch::new(10, vec![Word::wrap(42); 3])],
                },
            )],
            budget: 100,
        };
        let rep = runner.run_epoch(&epoch).unwrap();
        assert_eq!(runner.sim.tiles[0].dmem.peek(12).unwrap().value(), 42);
        // 3 words + 1 instruction through the ICAP.
        let want = cost.data_reload_ns(3) + cost.instr_reload_ns(1);
        assert!((rep.reconfig_ns - want).abs() < 1e-9);
    }

    #[test]
    fn untouched_tiles_overlap_reconfig() {
        // Tile 1 computes while tile 0 is being reconfigured.
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        // Preload tile 1 with a long-running counter.
        let mut p = ProgramBuilder::new();
        p.ldi(d(0), 400);
        let l = p.here_label();
        p.djnz(d(0), l);
        p.halt();
        sim.load_program(1, &encode_program(&p.build().unwrap()))
            .unwrap();
        let cost = CostModel::default();
        let mut runner = EpochRunner::new(sim, cost);
        let epoch = Epoch {
            name: "reload-tile0".into(),
            links: mesh.disconnected(),
            setups: vec![(
                0,
                TileSetup {
                    program: Some(idle_prog()),
                    data_patches: vec![DataPatch::new(0, vec![Word::ZERO; 100])],
                },
            )],
            budget: 100_000,
        };
        runner.run_epoch(&epoch).unwrap();
        // Tile 0 stalled; tile 1 never did.
        assert!(runner.sim.stats[0].reconfig_cycles > 0);
        assert_eq!(runner.sim.stats[1].reconfig_cycles, 0);
        assert!(runner.sim.stats[1].busy_cycles >= 400);
    }
}

#[cfg(test)]
mod bitstream_tests {
    use super::*;
    use crate::engine::ArraySim;
    use cgra_fabric::bitstream::serialize;
    use cgra_fabric::{Direction, Mesh, Word};
    use cgra_isa::encode_program as enc;
    use cgra_isa::ProgramBuilder;

    #[test]
    fn bitstream_epoch_reprograms_and_runs() {
        use cgra_isa::ops::{at_off, d, rem_off};
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        for i in 0..4 {
            sim.tiles[0]
                .dmem
                .poke(i, Word::wrap(60 + i as i64))
                .unwrap();
        }
        // Build the copy program and ship it INSIDE a bitstream, together
        // with the link setting and a data patch (the copy count variable).
        let mut p = ProgramBuilder::new();
        p.ldar(0, 0);
        p.ldar(1, 32);
        let l = p.here_label();
        p.mov(rem_off(1, 0), at_off(0, 0));
        p.adar(0, 1);
        p.adar(1, 1);
        p.djnz(d(500), l);
        p.halt();
        let prog = enc(&p.build().unwrap());

        let mut plan = ReconfigPlan::default();
        plan.add_tile(
            0,
            TileReconfig {
                program: Some(prog),
                data_patches: vec![DataPatch::new(500, vec![Word::wrap(4)])],
            },
        );
        let bytes = serialize(&plan, &[(0, Some(Direction::East))]);

        let cost = CostModel::with_link_cost(100.0);
        let mut runner = EpochRunner::new(sim, cost);
        let rep = runner
            .run_bitstream_epoch("flash epoch", &bytes, 100_000)
            .unwrap();
        // The copy ran: tile 1 received the words.
        for i in 0..4 {
            assert_eq!(
                runner.sim.tiles[1].dmem.peek(32 + i).unwrap().value(),
                60 + i as i64
            );
        }
        assert_eq!(rep.links_changed, 1);
        assert_eq!(rep.words_copied, 4);
        // Reconfig charged: program bytes + 1 data word + 1 link.
        let plan_bytes = plan.bitstream_bytes();
        let want = cost.icap_ns(plan_bytes) + 100.0;
        assert!((rep.reconfig_ns - want).abs() < 1e-9);
    }

    #[test]
    fn corrupt_bitstream_rejected() {
        let mesh = Mesh::new(1, 1);
        let sim = ArraySim::new(mesh);
        let mut runner = EpochRunner::new(sim, CostModel::default());
        assert!(matches!(
            runner.run_bitstream_epoch("bad", b"garbage", 100),
            Err(SimError::Bitstream(_))
        ));
    }
}
