//! The event-driven, certificate-gated simulator core.
//!
//! [`EpochRunner::run_schedule`] steps, cycle by cycle, every tile that
//! is not yet idle, and only learns that a tile has gone idle by
//! stepping it — sound, but wasteful when the static analysis can prove
//! most of the array inactive. This module consumes the proofs instead:
//!
//! 1. `cgra-verify`'s activity analysis derives an
//!    [`ActivityCertificate`] for the whole schedule: per-tile activity
//!    intervals (stall head + busy span) and **independence classes** —
//!    groups of tiles that provably exchange no words within an epoch.
//! 2. The certificate is **re-verified from scratch**
//!    ([`cgra_verify::verify_activity`]) before the engine trusts it; a
//!    single refused proof ([`cgra_verify::Code::CertificateRefused`])
//!    drops the whole run to the bit-exact serial engine.
//! 3. Under an accepted certificate each epoch runs event-driven:
//!    provably-inactive tiles are never visited, the reconfiguration
//!    stall head is accounted in one step instead of cycle-by-cycle,
//!    and the tiles of the independence classes step together, in
//!    place, in ascending order on the calling thread — which is the
//!    serial engine's own order. Each tile keeps its class id, and a
//!    word that crosses between classes, or a live tile without a
//!    decoded program, is still refused at run time.
//!
//! Programs are decoded **once per distinct image** into a
//! [`ProgramCache`] (shared across epochs, and across DSE candidates
//! when the caller reuses the cache) instead of once per executed
//! instruction; the cache also memoizes strict-mode image verification
//! and — keyed by the full schedule content — certificates that have
//! already been derived *and* re-verified, so a warm replay (the DSE
//! sweep re-simulating a cached candidate) pays the static analysis
//! once, not once per run.
//!
//! The contract is bit-exactness: final data/instruction memories, PE
//! states, per-tile counters, Eq. 1 reports, the summary event stream,
//! and errors all match [`EpochRunner::run_schedule`] on the same
//! schedule. Fine-grained sink events (segments, link transfers) are
//! synthesized from the proofs and carry the same spans and landing
//! cycles as the serial engine's, though their interleaving in the
//! stream may differ (sort both streams to compare).

use crate::engine::{ArraySim, SimError, TileStats, VerifyMode};
use crate::epoch::{epoch_spec, Epoch, EpochReport, EpochRunner, RunReport};
use cgra_fabric::{CostModel, FabricError, Mesh, ReconfigPlan, TileId, TileReconfig, Word};
use cgra_isa::{decode, encode_program, step_decoded, ExecError, Instr, StepEffect};
use cgra_telemetry::{Event, SegState};
use cgra_verify::{
    analyze_activity, verify_activity, ActivityCertificate, Code, Diagnostic, EpochActivity,
    EpochSpec, ScheduleChecker,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A program image decoded once, slot by slot. Slots that fail to
/// decode are kept as the error text so execution still faults with the
/// precise pc (and the exact [`ExecError::Decode`] message) the serial
/// engine would produce.
#[derive(Debug)]
pub struct DecodedProgram {
    /// One entry per image slot, in pc order.
    pub slots: Vec<Result<Instr, String>>,
    /// The same slots as a plain instruction array when every slot
    /// decoded cleanly (`None` if any slot is poison): the certified
    /// stepper's fetch path indexes this without per-cycle `Result`
    /// matching.
    pub clean: Option<Vec<Instr>>,
}

/// Memoized program decode + strict-mode verification, keyed by the
/// encoded image. Shared across epochs of a schedule and — when the
/// caller holds it across runs — across DSE candidates, which re-use
/// the same kernel images at different shapes.
#[derive(Debug, Default)]
pub struct ProgramCache {
    decoded: HashMap<Vec<u128>, Arc<DecodedProgram>>,
    verified: HashSet<Vec<u128>>,
    schedules: HashMap<Vec<u8>, Arc<VerifiedSchedule>>,
    hits: u64,
    misses: u64,
}

/// The complete verification transcript of one clean certified run,
/// memoized under its [`schedule_key`]. A warm replay of the
/// byte-identical schedule from the same starting state (fresh checker,
/// quiesced array, same verify mode — all enforced by the lookup)
/// replays the transcript instead of re-deriving it: the recorded
/// diagnostics are appended verbatim, the checker jumps to its recorded
/// post-run state, and the epochs execute under the already-verified
/// certificate. Only [`EpochRunner::run_schedule_event_driven`] writes
/// this memo, and only after a run in which every gate passed — the
/// lint gate, per-epoch verification, certificate re-verification, and
/// the runtime conservation checks.
#[derive(Debug)]
pub struct VerifiedSchedule {
    /// The accepted activity certificate.
    pub cert: ActivityCertificate,
    /// Every diagnostic the cold run pushed (lint findings, per-epoch
    /// verifier warnings); errors never occur here — they abort the
    /// cold run before it memoizes.
    pub diags: Vec<Diagnostic>,
    /// The schedule checker's state after the cold run, so a replayed
    /// runner carries the same cross-epoch init/const knowledge into
    /// any schedule it runs next.
    pub checker_after: ScheduleChecker,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// The decoded form of `image`, decoding (and caching) on first use.
    pub fn decode_image(&mut self, image: &[u128]) -> Arc<DecodedProgram> {
        if let Some(hit) = self.decoded.get(image) {
            self.hits += 1;
            return Arc::clone(hit);
        }
        self.misses += 1;
        let slots: Vec<Result<Instr, String>> = image
            .iter()
            .map(|&raw| decode(raw).map_err(|e| e.to_string()))
            .collect();
        let clean = slots
            .iter()
            .map(|s| s.as_ref().ok().copied())
            .collect::<Option<Vec<Instr>>>();
        let dec = Arc::new(DecodedProgram { slots, clean });
        self.decoded.insert(image.to_vec(), Arc::clone(&dec));
        dec
    }

    /// True when `image` already passed strict verification.
    pub fn is_verified(&self, image: &[u128]) -> bool {
        self.verified.contains(image)
    }

    /// Records that `image` passed strict verification.
    pub fn mark_verified(&mut self, image: &[u128]) {
        self.verified.insert(image.to_vec());
    }

    /// Distinct images decoded so far.
    pub fn len(&self) -> usize {
        self.decoded.len()
    }

    /// True when nothing has been decoded yet.
    pub fn is_empty(&self) -> bool {
        self.decoded.is_empty()
    }

    /// Decode-cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Decode-cache misses (i.e. actual decodes) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The memoized transcript for exactly this schedule key
    /// ([`schedule_key`]), if a clean cold run recorded one. A hit
    /// carries the same trust as the `verified` image set: the
    /// soundness obligations were discharged once, for byte-identical
    /// input.
    pub fn verified_schedule(&self, key: &[u8]) -> Option<&Arc<VerifiedSchedule>> {
        self.schedules.get(key)
    }

    /// Memoizes a clean run's transcript under its schedule key.
    pub fn store_verified_schedule(&mut self, key: Vec<u8>, vs: Arc<VerifiedSchedule>) {
        self.schedules.insert(key, vs);
    }

    /// Verified schedule transcripts memoized so far.
    pub fn verified_schedules(&self) -> usize {
        self.schedules.len()
    }
}

/// The memo key for transcript reuse: every input the static pipeline
/// reads, serialized byte for byte — mesh shape, cost model, verify
/// mode, and the full schedule content (epoch names, budgets, link
/// configurations, encoded program images, data patches). Every
/// variable-length field is length-prefixed, so distinct schedules
/// cannot collide by concatenation. Byte-identical key ⟺ identical
/// analysis input, so a memoized transcript is exactly what a fresh
/// derivation would produce.
pub fn schedule_key(mesh: Mesh, cost: &CostModel, verify: VerifyMode, epochs: &[Epoch]) -> Vec<u8> {
    fn put_u64(k: &mut Vec<u8>, v: u64) {
        k.extend_from_slice(&v.to_le_bytes());
    }
    fn put_str(k: &mut Vec<u8>, s: &str) {
        put_u64(k, s.len() as u64);
        k.extend_from_slice(s.as_bytes());
    }
    let mut k = Vec::with_capacity(4096);
    put_str(&mut k, &format!("{mesh:?}|{cost:?}|{verify:?}"));
    put_u64(&mut k, epochs.len() as u64);
    for e in epochs {
        put_str(&mut k, &e.name);
        put_u64(&mut k, e.budget);
        put_str(&mut k, &format!("{:?}", e.links));
        put_u64(&mut k, e.setups.len() as u64);
        for (t, s) in &e.setups {
            put_u64(&mut k, *t as u64);
            match &s.program {
                // Image encoding is injective (decode ∘ encode = id),
                // so keying on the image is keying on the program.
                Some(p) => {
                    let img = encode_program(p);
                    put_u64(&mut k, img.len() as u64);
                    for w in &img {
                        k.extend_from_slice(&w.to_le_bytes());
                    }
                }
                None => put_u64(&mut k, u64::MAX),
            }
            put_u64(&mut k, s.data_patches.len() as u64);
            for p in &s.data_patches {
                put_u64(&mut k, p.base as u64);
                put_u64(&mut k, p.words.len() as u64);
                for w in &p.words {
                    k.extend_from_slice(&w.value().to_le_bytes());
                }
            }
        }
    }
    k
}

/// Options for [`EpochRunner::run_schedule_event_driven`]; it has none.
/// The certified tiles step in place on the calling thread, since the
/// unit of parallelism that pays is outside one run (the DSE sweep's
/// fan-out across candidates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventOptions {}

/// Class id of a tile outside every independence class.
const NO_CLASS: u32 = u32::MAX;

/// What stepping the certified tiles of one epoch produced.
#[derive(Debug)]
struct Stepped {
    /// Cycles until every stepped tile halted.
    cycles: u64,
    /// `(landing cycle relative to the stepping start, from, to)` per
    /// word, in landing order; empty unless `record_transfers`.
    transfers: Vec<(u64, TileId, TileId)>,
}

/// Steps `tiles` (ascending: the union of an epoch's independence
/// classes) in place on `sim` to quiescence, exactly as the serial
/// engine would: every live tile steps once per cycle in ascending
/// order, remote writes land at the end of the cycle in issue order,
/// and the run deadlines once `budget` cycles elapse without
/// quiescence. `class_of` maps every tile to its class ([`NO_CLASS`]
/// outside them) and `progs` to its decoded program; the certificate
/// guarantees that no word crosses a class boundary and that every live
/// tile has a program, and a run that breaks either is refused as
/// [`Code::CertificateRefused`].
///
/// An error comes with the cycle count the serial engine would have
/// reached: one past the faulting cycle, or `budget` at the deadline
/// (reported as `deadline_budget`, the epoch's own budget).
fn step_certified(
    sim: &mut ArraySim,
    tiles: &[TileId],
    class_of: &[u32],
    progs: &[Option<Arc<DecodedProgram>>],
    budget: u64,
    deadline_budget: u64,
    record_transfers: bool,
) -> Result<Stepped, (u64, SimError)> {
    let mut transfers: Vec<(u64, TileId, TileId)> = Vec::new();
    let mut writes: Vec<(TileId, TileId, usize, Word)> = Vec::new();
    // Resolve each tile's program and its fetch fast path (a plain
    // instruction slice when every slot decoded cleanly) once — the
    // cycle loop below runs ~10^5 times per schedule.
    let resolved: Vec<Option<&DecodedProgram>> = tiles
        .iter()
        .map(|&t| progs.get(t).and_then(|p| p.as_deref()))
        .collect();
    let lanes: Vec<Option<&[Instr]>> = resolved
        .iter()
        .map(|r| r.and_then(|p| p.clean.as_deref()))
        .collect();
    let refused =
        |msg: String| SimError::Verify(vec![Diagnostic::error(Code::CertificateRefused, msg)]);
    // Positions in `tiles` of the tiles still running, ascending; a tile
    // that halts drops out (nothing re-arms it within the epoch).
    let mut live: Vec<usize> = (0..tiles.len())
        .filter(|&k| !sim.states[tiles[k]].halted)
        .collect();
    let mut cyc: u64 = 0;
    while !live.is_empty() {
        if cyc >= budget {
            let err = SimError::Deadline {
                budget: deadline_budget,
            };
            return Err((budget, err));
        }
        let fault = |err| Err((cyc + 1, err));
        let mut kept = 0;
        for i in 0..live.len() {
            let k = live[i];
            let t = tiles[k];
            let st = &mut sim.states[t];
            let Some(prog) = resolved[k] else {
                return fault(refused(format!(
                    "tile {t} is active without a decoded program; the activity certificate \
                     does not cover it"
                )));
            };
            let tile = &mut sim.tiles[t];
            let effect = match lanes[k] {
                Some(clean) if st.pc < clean.len() => step_decoded(tile, st, clean[st.pc]),
                _ => match prog.slots.get(st.pc) {
                    None => Err(ExecError::Fabric(FabricError::PcOutOfRange {
                        pc: st.pc,
                        len: prog.slots.len(),
                    })),
                    Some(Ok(instr)) => step_decoded(tile, st, *instr),
                    Some(Err(msg)) => Err(ExecError::Decode(msg.clone())),
                },
            };
            let effect = match effect {
                Ok(e) => e,
                Err(err) => return fault(SimError::Exec { tile: t, err }),
            };
            sim.stats[t].busy_cycles += 1;
            if !st.halted {
                live[kept] = k;
                kept += 1;
            }
            match effect {
                StepEffect::None | StepEffect::Halted => {}
                StepEffect::RemoteWrite { addr, value } => {
                    let Some(dir) = sim.links.get(t) else {
                        return fault(SimError::UnroutedWrite { tile: t });
                    };
                    let Some(dst) = sim.mesh.neighbour(t, dir) else {
                        return fault(SimError::Fabric(FabricError::NotNeighbours {
                            from: t,
                            to: t,
                        }));
                    };
                    sim.stats[t].words_sent += 1;
                    if class_of.get(dst).copied().unwrap_or(NO_CLASS) != class_of[t] {
                        return fault(refused(format!(
                            "tile {t} wrote to tile {dst} outside its independence class; the \
                             activity certificate is unsound for this schedule"
                        )));
                    }
                    writes.push((t, dst, addr, value));
                }
            }
        }
        live.truncate(kept);
        // Remote writes land at the end of the cycle, in issue order.
        for (src, dst, addr, value) in writes.drain(..) {
            if let Err(e) = sim.tiles[dst].dmem.poke(addr, value) {
                return fault(SimError::Fabric(e));
            }
            sim.stats[dst].words_received += 1;
            // Per-landing telemetry is only consumed when a sink is
            // attached; sink-less runs skip the per-word bookkeeping.
            if record_transfers {
                transfers.push((cyc + 1, src, dst));
            }
        }
        cyc += 1;
    }
    Ok(Stepped {
        cycles: cyc,
        transfers,
    })
}

impl EpochRunner {
    /// Runs a whole schedule on the event-driven core.
    ///
    /// Derives the [`ActivityCertificate`] with
    /// [`cgra_verify::analyze_activity`], re-verifies it independently,
    /// and executes under it — or falls back to the bit-exact serial
    /// engine, recording the [`Code::CertificateRefused`] findings in
    /// [`EpochRunner::diagnostics`], when any proof is refused. The
    /// cold-run lint gate of [`EpochRunner::run_schedule`] applies
    /// unchanged.
    ///
    /// `progs` memoizes program decoding, strict-mode verification and
    /// whole-schedule verification transcripts; hold it across calls to
    /// amortize over DSE candidates that share kernel images — and over
    /// warm replays of the same schedule, which skip the static
    /// pipeline entirely: a [`VerifiedSchedule`] hit replays the cold
    /// run's recorded diagnostics and checker state instead of
    /// re-deriving them, and is only consulted from the exact state the
    /// transcript was recorded in (fresh checker, quiesced array; the
    /// verify mode is part of the key). `_opts` sets nothing.
    pub fn run_schedule_event_driven(
        &mut self,
        epochs: &[Epoch],
        progs: &mut ProgramCache,
        _opts: &EventOptions,
    ) -> Result<RunReport, SimError> {
        let key = schedule_key(self.sim.mesh, &self.cost, self.sim.verify, epochs);
        if self.checker.epochs_seen() == 0 && self.sim.quiesced() {
            if let Some(vs) = progs.verified_schedule(&key) {
                let vs = Arc::clone(vs);
                return self.replay_verified(epochs, &vs, progs);
            }
        }
        let fresh = self.checker.epochs_seen() == 0 && self.sim.quiesced();
        let mark = self.diagnostics.len();
        self.cold_lint_gate(epochs)?;
        let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
        let analysis = analyze_activity(self.sim.mesh, &self.cost, &specs);
        let refusals = verify_activity(self.sim.mesh, &self.cost, &specs, &analysis.cert);
        if !refusals.is_empty() {
            self.diagnostics.extend(refusals);
            return self.run_serial_tail(epochs);
        }
        let report = self.certified_after_gate(epochs, &analysis.cert, progs, true)?;
        // Memoize only a fully clean run from the recordable starting
        // state: no refusal fell back mid-way, no gate errored (an
        // error would have propagated above), and the run began on a
        // fresh checker over a quiesced array — the exact precondition
        // the replay path re-establishes before trusting the memo.
        let clean = fresh
            && !self.diagnostics[mark..]
                .iter()
                .any(|d| d.code == Code::CertificateRefused);
        if clean {
            progs.store_verified_schedule(
                key,
                Arc::new(VerifiedSchedule {
                    cert: analysis.cert,
                    diags: self.diagnostics[mark..].to_vec(),
                    checker_after: self.checker.clone(),
                }),
            );
        }
        Ok(report)
    }

    /// The warm path: replay a memoized transcript. Preconditions
    /// (checked by the caller): fresh checker, quiesced array,
    /// byte-identical schedule under the same verify mode — so every
    /// static gate of the cold run would reproduce exactly what the
    /// transcript recorded.
    fn replay_verified(
        &mut self,
        epochs: &[Epoch],
        vs: &VerifiedSchedule,
        progs: &mut ProgramCache,
    ) -> Result<RunReport, SimError> {
        self.diagnostics.extend(vs.diags.iter().cloned());
        let mut report = RunReport::default();
        for (e, ea) in epochs.iter().zip(&vs.cert.epochs) {
            report
                .epochs
                .push(self.run_epoch_certified(e, ea, progs, false)?);
        }
        self.checker = vs.checker_after.clone();
        Ok(report)
    }

    /// Runs a whole schedule under a caller-supplied certificate
    /// (normally from [`cgra_verify::analyze_activity`] — but the
    /// certificate is **never trusted**: it is re-verified from scratch
    /// first, and any refusal drops the run to the bit-exact serial
    /// engine with the [`Code::CertificateRefused`] findings recorded
    /// in [`EpochRunner::diagnostics`]).
    pub fn run_schedule_certified(
        &mut self,
        epochs: &[Epoch],
        cert: &ActivityCertificate,
        progs: &mut ProgramCache,
    ) -> Result<RunReport, SimError> {
        self.cold_lint_gate(epochs)?;
        self.certified_after_gate(epochs, cert, progs, false)
    }

    /// The post-gate half of the certified entry points: re-verify
    /// (unless this exact certificate already passed verification this
    /// run — `verified` is only set by the schedule-keyed memo in
    /// [`ProgramCache`]), then run certified or fall back serially.
    fn certified_after_gate(
        &mut self,
        epochs: &[Epoch],
        cert: &ActivityCertificate,
        progs: &mut ProgramCache,
        verified: bool,
    ) -> Result<RunReport, SimError> {
        // The certificate models a quiesced array at every epoch
        // boundary; tiles armed behind the analysis's back (e.g. a
        // program loaded directly on the sim) void it.
        if !self.sim.quiesced() {
            self.diagnostics.push(Diagnostic::error(
                Code::CertificateRefused,
                "array not quiesced at schedule entry; the activity certificate does not \
                 cover pre-armed tiles — falling back to the serial engine"
                    .to_string(),
            ));
            return self.run_serial_tail(epochs);
        }
        if !verified {
            let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
            let refusals = verify_activity(self.sim.mesh, &self.cost, &specs, cert);
            if !refusals.is_empty() {
                self.diagnostics.extend(refusals);
                return self.run_serial_tail(epochs);
            }
        }
        let mut report = RunReport::default();
        for (e, ea) in epochs.iter().zip(&cert.epochs) {
            report
                .epochs
                .push(self.run_epoch_certified(e, ea, progs, true)?);
        }
        Ok(report)
    }

    /// The bit-exact fallback: the plain serial epoch loop (the
    /// schedule-level gate has already run).
    fn run_serial_tail(&mut self, epochs: &[Epoch]) -> Result<RunReport, SimError> {
        let mut report = RunReport::default();
        for e in epochs {
            report.epochs.push(self.run_epoch(e)?);
        }
        Ok(report)
    }

    /// One epoch under an accepted certificate: identical verification,
    /// reconfiguration accounting, and event stream as
    /// [`EpochRunner::run_epoch`], but the array never steps cycle by
    /// cycle — the stall head is accounted in one batch and only the
    /// tiles of the certificate's independence classes execute.
    ///
    /// `gate` re-runs the per-epoch verifier; [`replay_verified`]
    /// passes `false` because the memoized transcript already carries
    /// this epoch's findings from the byte-identical cold run.
    ///
    /// [`replay_verified`]: EpochRunner::replay_verified
    fn run_epoch_certified(
        &mut self,
        epoch: &Epoch,
        ea: &EpochActivity,
        progs: &mut ProgramCache,
        gate: bool,
    ) -> Result<EpochReport, SimError> {
        if gate {
            self.gate_epoch(epoch)?;
        }
        // Reconfiguration plan and Eq. 1 accounting, bit for bit as the
        // serial path — but each image is encoded once and reused for
        // costing, loading, and the decode cache.
        let mut plan = ReconfigPlan::from_link_change(&self.prev_links, &epoch.links);
        let mut images: Vec<Option<Vec<u128>>> = Vec::with_capacity(epoch.setups.len());
        for (t, setup) in &epoch.setups {
            let img = setup.program.as_ref().map(|p| encode_program(p));
            plan.add_tile(
                *t,
                TileReconfig {
                    program: img.clone(),
                    data_patches: setup.data_patches.clone(),
                },
            );
            images.push(img);
        }
        let reconfig_ns = plan.total_ns(&self.cost);
        let stall_cycles = self.cost.stall_cycles(reconfig_ns);
        let epoch_idx = self.epochs_run;
        let start = self.sim.now;
        self.emit(Event::EpochBegin {
            epoch: epoch_idx,
            name: epoch.name.clone(),
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

        // Apply the rewrites through the cache: verify each distinct
        // image at most once, decode it at most once.
        let n = self.sim.tiles.len();
        let mut armed: Vec<Option<Arc<DecodedProgram>>> = vec![None; n];
        for ((t, setup), img) in epoch.setups.iter().zip(&images) {
            if let Some(img) = img {
                if self.sim.verify != VerifyMode::Off && !progs.is_verified(img) {
                    self.sim.verify_image(img)?;
                    progs.mark_verified(img);
                }
                let tile = self
                    .sim
                    .tiles
                    .get_mut(*t)
                    .ok_or(FabricError::UnknownTile { tile: *t })?;
                tile.load_program(img)?;
                self.sim.states[*t].soft_reset();
                armed[*t] = Some(progs.decode_image(img));
            }
            for patch in &setup.data_patches {
                self.sim.tiles[*t].dmem.load(patch.base, &patch.words)?;
            }
        }
        self.sim.set_links(epoch.links.clone())?;
        self.prev_links = epoch.links.clone();

        let stats_before = self.sim.stats.clone();
        let stalled = plan.stalled_tiles();
        // The stall head, proven word-free, is accounted in one batch
        // instead of cycle-by-cycle.
        if !stalled.is_empty() && stall_cycles > epoch.budget {
            self.sim.now = start + epoch.budget;
            return Err(SimError::Deadline {
                budget: epoch.budget,
            });
        }
        for &t in &stalled {
            if let Some(s) = self.sim.stats.get_mut(t) {
                s.reconfig_cycles += stall_cycles;
            }
        }
        let head = if stalled.is_empty() { 0 } else { stall_cycles };

        // Step the union of the independence classes in place; the
        // class ids stay to refuse any word that crosses between them.
        let mut class_of = vec![NO_CLASS; n];
        let mut union: Vec<TileId> = Vec::new();
        for (ci, class) in ea.classes.iter().enumerate() {
            for &t in class.tiles.iter().filter(|&&t| t < n) {
                class_of[t] = ci as u32;
                union.push(t);
            }
        }
        union.sort_unstable();
        union.dedup();
        let record_transfers = self.sim.sink_attached();
        let stepped = match step_certified(
            &mut self.sim,
            &union,
            &class_of,
            &armed,
            epoch.budget - head,
            epoch.budget,
            record_transfers,
        ) {
            Ok(stepped) => stepped,
            Err((elapsed, err)) => {
                self.sim.now = start + head + elapsed;
                return Err(err);
            }
        };

        // Busy-cycle conservation: what ran must sit inside the proved
        // intervals (Programmed tiles within their WCET span, PatchOnly
        // tiles at exactly zero).
        let ran = |stats: &[TileStats], t: TileId| {
            stats.get(t).map(|s| s.busy_cycles).unwrap_or(0)
                - stats_before.get(t).map(|s| s.busy_cycles).unwrap_or(0)
        };
        for iv in &ea.intervals {
            let ran = ran(&self.sim.stats, iv.tile);
            if !iv.busy.contains(ran) {
                return Err(SimError::Verify(vec![Diagnostic::error(
                    Code::CertificateRefused,
                    format!(
                        "tile {} executed {} cycles outside its proved activity interval; \
                         the certificate is unsound for epoch '{}'",
                        iv.tile, ran, epoch.name
                    ),
                )
                .in_epoch(ea.epoch)]));
            }
        }

        let cycles = head + stepped.cycles;
        self.sim.now = start + cycles;

        // Synthesize the fine-grained sink events the serial engine
        // would have streamed: one stall segment per rewritten tile, one
        // busy segment per armed tile, one transfer per landed word.
        if self.sim.sink_attached() {
            let mut synth: Vec<(u64, TileId, Event)> = Vec::new();
            if stall_cycles > 0 {
                for &t in &stalled {
                    synth.push((
                        start,
                        t,
                        Event::Segment {
                            tile: t,
                            state: SegState::Stall,
                            start,
                            end: start + stall_cycles,
                        },
                    ));
                }
            }
            for t in (0..n).filter(|&t| armed[t].is_some()) {
                let ran = ran(&self.sim.stats, t);
                if ran > 0 {
                    synth.push((
                        start + head,
                        t,
                        Event::Segment {
                            tile: t,
                            state: SegState::Busy,
                            start: start + head,
                            end: start + head + ran,
                        },
                    ));
                }
            }
            for &(rel, from, to) in &stepped.transfers {
                let at = start + head + rel;
                synth.push((
                    at,
                    from,
                    Event::LinkTransfer {
                        from,
                        to,
                        at,
                        words: 1,
                    },
                ));
            }
            synth.sort_by_key(|(at, tile, _)| (*at, *tile));
            for (_, _, ev) in synth {
                self.sim.emit(&ev);
            }
        }

        let switch = (reconfig_ns, stall_cycles, plan.changed_links);
        Ok(self.close_epoch(epoch_idx, &epoch.name, &stats_before, cycles, switch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_fabric::Direction;
    use cgra_isa::ops::{at_off, d, rem_off};
    use cgra_isa::ProgramBuilder;

    /// Tile 0 of a 1x2 mesh armed with a 4-word copy east into tile 1;
    /// the first remote write issues on cycle 3.
    fn armed_writer() -> (ArraySim, Vec<u128>) {
        let mesh = Mesh::new(1, 2);
        let mut p = ProgramBuilder::new();
        p.ldar(0, 0);
        p.ldar(1, 100);
        p.ldi(d(500), 4);
        let l = p.here_label();
        p.mov(rem_off(1, 0), at_off(0, 0));
        p.adar(0, 1);
        p.adar(1, 1);
        p.djnz(d(500), l);
        p.halt();
        let img = encode_program(&p.build().unwrap());
        let mut sim = ArraySim::new(mesh);
        sim.load_program(0, &img).unwrap();
        sim.set_links(mesh.disconnected().with(0, Direction::East))
            .unwrap();
        (sim, img)
    }

    fn refusal(r: Result<Stepped, (u64, SimError)>) -> (u64, String) {
        match r {
            Err((at, SimError::Verify(diags))) => {
                assert_eq!(diags.len(), 1);
                assert_eq!(diags[0].code, Code::CertificateRefused);
                (at, diags[0].message.clone())
            }
            other => panic!("want a V122 refusal, got {other:?}"),
        }
    }

    #[test]
    fn write_across_classes_is_refused() {
        let (mut sim, img) = armed_writer();
        let progs = vec![Some(ProgramCache::new().decode_image(&img)), None];
        // Writer and reader in one class: the copy completes.
        let (mut joined, _) = armed_writer();
        let ok = step_certified(&mut joined, &[0, 1], &[0, 0], &progs, 1000, 1000, true)
            .expect("one class steps clean");
        assert_eq!(joined.stats[1].words_received, 4);
        assert_eq!(ok.transfers.len(), 4);
        // Split into two classes: the first write is refused.
        let (at, msg) = refusal(step_certified(
            &mut sim,
            &[0, 1],
            &[0, 1],
            &progs,
            1000,
            1000,
            false,
        ));
        assert_eq!(at, 4, "refused on cycle 3, clock one past it");
        assert!(msg.contains("outside its independence class"), "{msg}");
        assert_eq!(sim.stats[1].words_received, 0);
    }

    #[test]
    fn live_tile_without_a_program_is_refused() {
        let (mut sim, _) = armed_writer();
        let (at, msg) = refusal(step_certified(
            &mut sim,
            &[0, 1],
            &[0, 0],
            &[None, None],
            1000,
            1000,
            false,
        ));
        assert_eq!(at, 1);
        assert!(msg.contains("without a decoded program"), "{msg}");
        assert_eq!(sim.stats[0].busy_cycles, 0);
    }
}
