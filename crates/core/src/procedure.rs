//! Procedure 1 — the per-fault simulation flow.

use std::time::Instant;

use moa_netlist::{Circuit, Fault};
use moa_sim::{
    conventional_detection, simulate, simulate_differential_counted, Detection, GoodFrames,
    SimTrace, TestSequence,
};

use crate::budget::{BudgetMeter, BudgetStage};
use crate::certificate::DetectionCertificate;
use crate::chain::FrameCache;
use crate::collect::{collect_pairs_with_cache, PairKey};
use crate::condition::{condition_c_holds, n_out_profile, n_sv_profile};
use crate::cones::ConeCache;
use crate::counters::Counters;
use crate::detect::detection_from_collection;
use crate::error::Error;
use crate::expand::{expand_metered, ExpandOutcome};
use crate::resim::resimulate_differential_metered;
use crate::MoaOptions;

/// How (or whether) a fault was identified as detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultStatus {
    /// Detected by conventional three-valued simulation (single observation
    /// time); the expansion machinery never ran.
    DetectedConventional(Detection),
    /// Dropped by the necessary condition (C): no time unit has both
    /// unspecified state variables and recoverable output values, so the
    /// restricted multiple observation time approach cannot detect it.
    SkippedConditionC,
    /// Statically proven undetectable by any test under any observation
    /// scheme ([`moa_analyze::UntestableScreen`]); skipped with zero
    /// simulation work when
    /// [`CampaignOptions::prune_untestable`](crate::CampaignOptions::prune_untestable)
    /// is on. Counted as not detected.
    Untestable {
        /// The static proof.
        proof: moa_analyze::UntestableProof,
    },
    /// Detected by the Section 3.2 check: for pair `(u, i)`, both values of
    /// `Y_i` at `u - 1` lead to a conflict or a detection.
    DetectedByImplications(PairKey),
    /// Detected because the forced assignments of Procedure 2's first phase
    /// contradicted each other.
    DetectedByForcedAssignments,
    /// Detected after expansion: every one of the expanded state sequences
    /// was dropped by a detection or proven infeasible during resimulation.
    DetectedByExpansion {
        /// Number of state sequences that were resimulated.
        sequences: usize,
    },
    /// Not identified as detected.
    NotDetected {
        /// Sequences that survived resimulation undecided.
        undecided: usize,
        /// Total sequences after expansion.
        sequences: usize,
        /// `true` if the collection sweep hit its budget — the verdict might
        /// improve with a larger [`MoaOptions::max_implication_runs`].
        truncated: bool,
        /// `true` if expansion hit the `N_STATES` limit with eligible pairs
        /// remaining — the paper's *aborted* faults, the ones a larger limit
        /// (or backward implications) might still detect.
        aborted: bool,
    },
    /// The fault's [`FaultBudget`](crate::FaultBudget) ran out before the
    /// procedure finished. Sound fallback to the conventional-simulation
    /// result: the fault had already survived conventional simulation
    /// undetected, and no multiple-observation-time detection is claimed.
    BudgetExceeded {
        /// The pipeline stage in which the budget was exhausted.
        stage: BudgetStage,
        /// Work units charged by the time the fault was abandoned.
        work: u64,
    },
    /// The budget (or the frontier cap,
    /// [`MoaOptions::max_frontier_states`]) ran out, and
    /// [`MoaOptions::degrade`] stepped down the ladder instead of
    /// abandoning the fault: full MOA with implications → the
    /// expansion-only baseline on a fresh budget slice → the bare
    /// conventional verdict. The recorded lower bound is *sound*: a
    /// detection found by a weaker rung is a genuine
    /// multiple-observation-time detection (the rungs only remove
    /// detection power, never add it), so [`PartialBound::Detected`]
    /// counts as detected and is audit-compatible.
    PartialVerdict {
        /// The strongest claim the completed rung could make.
        lower_bound: PartialBound,
        /// The rung that produced the bound.
        stage_reached: DegradeStage,
        /// The pipeline stage in which the *original* budget was exhausted.
        tripped: BudgetStage,
        /// Total work units charged across all rungs.
        work_spent: u64,
    },
    /// The fault's worker panicked and
    /// [`CampaignOptions::isolate_panics`](crate::CampaignOptions::isolate_panics)
    /// contained it. Counted as not detected.
    Faulted {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A campaign audit ([`CampaignOptions::audit`](crate::CampaignOptions::audit))
    /// refuted this fault's detection certificate: concrete two-valued
    /// replay could not reproduce the symbolic detection. The fault is
    /// quarantined — counted as *not* detected (the sound fallback to the
    /// conventional verdict) and surfaced in
    /// [`CampaignResult::audit_failed`](crate::CampaignResult::audit_failed).
    AuditFailed {
        /// Why the audit refuted the certificate.
        reason: String,
    },
}

/// How far down the graceful-degradation ladder a fault got before its
/// [`FaultStatus::PartialVerdict`] was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeStage {
    /// Rung 2: the expansion-only baseline of reference \[4] (backward
    /// implications off, halved frontier) completed within a fresh budget
    /// slice.
    ExpansionOnly,
    /// Rung 3: the baseline slice exhausted too; only the conventional
    /// three-valued single-observation verdict stands.
    Conventional,
}

impl std::fmt::Display for DegradeStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeStage::ExpansionOnly => "expansion-only",
            DegradeStage::Conventional => "conventional",
        })
    }
}

/// The sound detection lower bound carried by a
/// [`FaultStatus::PartialVerdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartialBound {
    /// The completed rung proved the fault detected. Sound for the full
    /// procedure: weaker rungs only remove detection power.
    Detected {
        /// State sequences resimulated by the proving rung (0 when the
        /// proof came from contradicting forced assignments).
        sequences: usize,
    },
    /// The completed rung finished undetected — the fault *might* still be
    /// detectable by the full procedure with a larger budget.
    NotDetected {
        /// Sequences that survived the rung's resimulation undecided.
        undecided: usize,
        /// Total sequences the rung expanded to.
        sequences: usize,
    },
    /// No rung completed; nothing beyond the conventional verdict is known.
    Unknown,
}

impl FaultStatus {
    /// `true` for any of the detected variants, including a
    /// [`PartialVerdict`](FaultStatus::PartialVerdict) whose lower bound is
    /// a (sound) detection.
    pub fn is_detected(&self) -> bool {
        matches!(
            self,
            FaultStatus::DetectedConventional(_)
                | FaultStatus::DetectedByImplications(_)
                | FaultStatus::DetectedByForcedAssignments
                | FaultStatus::DetectedByExpansion { .. }
                | FaultStatus::PartialVerdict {
                    lower_bound: PartialBound::Detected { .. },
                    ..
                }
        )
    }

    /// `true` for detections beyond conventional simulation — the paper's
    /// "extra" column.
    pub fn is_extra_detected(&self) -> bool {
        self.is_detected() && !matches!(self, FaultStatus::DetectedConventional(_))
    }
}

/// The per-fault result of [`simulate_fault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultResult {
    /// The verdict.
    pub status: FaultStatus,
    /// Table-3 effectiveness counters (nonzero only when the expansion
    /// machinery ran).
    pub counters: Counters,
    /// Implication-engine invocations spent on this fault.
    pub runs: usize,
}

/// Runs the full per-fault procedure:
///
/// 1. conventional fault simulation (drop if detected),
/// 2. the necessary condition (C) filter,
/// 3. collection of backward implications (Section 3.1),
/// 4. the direct detection check (Section 3.2),
/// 5. selection and state expansion (Section 3.3, Procedure 2),
/// 6. resimulation of the expanded sequences (Section 3.4).
///
/// `good` must be the fault-free trace of `seq` (compute it once with
/// [`moa_sim::simulate`] and share it across faults).
///
/// # Example
///
/// ```
/// use moa_core::{simulate_fault, FaultStatus, MoaOptions};
/// use moa_netlist::{parse_bench, Fault};
/// use moa_sim::{simulate, TestSequence};
///
/// // r=0 resets q; with r stuck-at-1 the faulty machine toggles forever
/// // from an unknown state. Conventional simulation sees only X, but every
/// // faulty initial state mismatches the reset response somewhere.
/// let c = parse_bench(
///     "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
/// )?;
/// let seq = TestSequence::from_words(&["0", "0", "0"])?;
/// let good = simulate(&c, &seq, None);
/// let fault = Fault::stem(c.find_net("r").unwrap(), true);
/// let result = simulate_fault(&c, &seq, &good, &fault, &MoaOptions::default());
/// assert!(result.status.is_extra_detected());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_fault(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
) -> FaultResult {
    simulate_fault_with(circuit, seq, good, fault, options, None)
}

/// Like [`simulate_fault`], with the conventional stage optionally running as
/// a delta from cached fault-free frames ([`moa_sim::simulate_differential`])
/// — the whole-campaign speedup for large circuits. Results are identical
/// either way.
pub fn simulate_fault_with(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
    good_frames: Option<&GoodFrames>,
) -> FaultResult {
    simulate_fault_budgeted(
        circuit,
        seq,
        good,
        fault,
        options,
        good_frames,
        &mut BudgetMeter::unlimited(),
    )
}

/// Fallible variant of [`simulate_fault_with`]: validates that the sequence,
/// trace and fault actually belong to `circuit` before running, instead of
/// panicking on an out-of-bounds index deep inside the pipeline.
pub fn try_simulate_fault_with(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
    good_frames: Option<&GoodFrames>,
) -> Result<FaultResult, Error> {
    validate_inputs(circuit, seq, good)?;
    validate_fault(circuit, 0, fault)?;
    Ok(simulate_fault_with(circuit, seq, good, fault, options, good_frames))
}

/// Checks that `seq` and `good` fit `circuit`.
pub(crate) fn validate_inputs(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
) -> Result<(), Error> {
    if seq.num_inputs() != circuit.num_inputs() {
        return Err(Error::SequenceWidthMismatch {
            expected: circuit.num_inputs(),
            got: seq.num_inputs(),
        });
    }
    if good.outputs.len() != seq.len() {
        return Err(Error::TraceLengthMismatch {
            expected: seq.len(),
            got: good.outputs.len(),
        });
    }
    Ok(())
}

/// Checks that `fault`'s site exists in `circuit`; `index` is only used to
/// label the error.
pub(crate) fn validate_fault(circuit: &Circuit, index: usize, fault: &Fault) -> Result<(), Error> {
    use moa_netlist::FaultSite;
    let in_range = match fault.site {
        FaultSite::Net(net) => net.index() < circuit.num_nets(),
        FaultSite::GateInput { gate, pin } => {
            gate.index() < circuit.num_gates()
                && pin < circuit.gate(gate).inputs().len()
        }
        FaultSite::FlipFlopInput(ff) => ff.index() < circuit.num_flip_flops(),
    };
    if in_range {
        Ok(())
    } else {
        Err(Error::FaultOutOfRange {
            index,
            fault: format!("{fault:?}"),
        })
    }
}

/// Like [`simulate_fault_with`], charging all expansion-machinery work
/// against `meter`. When the meter exhausts mid-procedure the fault is
/// abandoned with [`FaultStatus::BudgetExceeded`] — the sound fallback to
/// the conventional-simulation verdict. The conventional stage itself always
/// completes (it *is* the fallback).
pub fn simulate_fault_budgeted(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
    good_frames: Option<&GoodFrames>,
    meter: &mut BudgetMeter,
) -> FaultResult {
    run_procedure(circuit, seq, good, fault, options, good_frames, None, meter, false).0
}

/// Like [`simulate_fault_budgeted`], additionally emitting a
/// [`DetectionCertificate`] for every detected verdict — the machine-checkable
/// evidence [`crate::audit_certificate`] validates by concrete replay.
/// Non-detected verdicts (and the panic/budget fallbacks) carry no
/// certificate. The [`FaultResult`] is identical to the uncertified entry
/// points'.
pub fn simulate_fault_certified(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
    good_frames: Option<&GoodFrames>,
    meter: &mut BudgetMeter,
) -> (FaultResult, Option<DetectionCertificate>) {
    run_procedure(circuit, seq, good, fault, options, good_frames, None, meter, true)
}

/// Campaign-internal variant of [`simulate_fault_certified`] that reuses a
/// per-circuit [`ConeCache`] across faults (and workers) instead of building
/// implication regions and fan-out cones from scratch for each fault.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_fault_cached(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
    good_frames: Option<&GoodFrames>,
    cones: &ConeCache<'_>,
    meter: &mut BudgetMeter,
    want_certificate: bool,
) -> (FaultResult, Option<DetectionCertificate>) {
    run_procedure(
        circuit,
        seq,
        good,
        fault,
        options,
        good_frames,
        Some(cones),
        meter,
        want_certificate,
    )
}

/// The shared pipeline body. With `want_certificate` every detected verdict
/// assembles its certificate (costing clones of the pre-resimulation
/// sequences on the expansion path); without it no certificate work happens.
#[allow(clippy::too_many_arguments)]
fn run_procedure(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
    good_frames: Option<&GoodFrames>,
    cones: Option<&ConeCache<'_>>,
    meter: &mut BudgetMeter,
    want_certificate: bool,
) -> (FaultResult, Option<DetectionCertificate>) {
    // Step 0: conventional simulation. Timed under the screening phase —
    // it is the per-fault remainder of conventional detection.
    let started = Instant::now();
    let (faulty, sim_evals) = match good_frames {
        Some(frames) => simulate_differential_counted(circuit, seq, frames, fault),
        None => (
            simulate(circuit, seq, Some(fault)),
            (circuit.num_gates() * seq.len()) as u64,
        ),
    };
    meter.perf.gate_evals += sim_evals;
    meter.perf.screen_nanos += started.elapsed().as_nanos() as u64;
    if let Some(det) = conventional_detection(good, &faulty) {
        let certificate =
            want_certificate.then(|| DetectionCertificate::conventional(&det, good));
        return (
            FaultResult {
                status: FaultStatus::DetectedConventional(det),
                counters: Counters::new(),
                runs: 0,
            },
            certificate,
        );
    }

    // Necessary condition (C).
    let n_sv = n_sv_profile(&faulty);
    let n_out = n_out_profile(good, &faulty);
    if options.check_condition_c && !condition_c_holds(&n_sv[..n_out.len()], &n_out) {
        return (
            FaultResult {
                status: FaultStatus::SkippedConditionC,
                counters: Counters::new(),
                runs: 0,
            },
            None,
        );
    }

    // Steps 1–4 share one frame cache: frames forward-simulated for the
    // collection sweep are reused by the differential resimulators. The cone
    // cache is likewise shared — across faults and workers when the campaign
    // passes one in, per-fault otherwise.
    let local_cones;
    let cones = if let Some(c) = cones { c } else {
        local_cones = ConeCache::new(circuit);
        &local_cones
    };
    let learned = options.static_learning.then(|| cones.learned_db());
    let cache = FrameCache::new(circuit, seq, &faulty, Some(fault)).with_learned(learned);
    let out = run_expansion_stages(
        circuit,
        seq,
        good,
        fault,
        options,
        &cache,
        cones,
        &n_out,
        &n_sv,
        meter,
        want_certificate,
    );
    // Frame-construction work is accounted once, whichever stages consumed
    // the frames.
    meter.perf.gate_evals += (cache.frames_built() * circuit.num_gates()) as u64;
    if options.degrade {
        degrade_ladder(
            out,
            circuit,
            seq,
            good,
            fault,
            options,
            &cache,
            cones,
            &n_out,
            &n_sv,
            meter,
            want_certificate,
        )
    } else {
        out
    }
}

/// The options of the ladder's fallback rung: the expansion-only baseline
/// of reference \[4] (no backward implications, no static learning) with
/// `n_states` halved after the frontier cap, no frontier cap of its own and
/// no further degradation. The merge's audit replay re-derives a ladder
/// detection under exactly these options.
pub(crate) fn fallback_rung_options(options: &MoaOptions) -> MoaOptions {
    let capped = options
        .max_frontier_states
        .map_or(options.n_states, |cap| cap.min(options.n_states));
    MoaOptions {
        backward_implications: false,
        static_learning: false,
        n_states: (capped / 2).max(1),
        max_frontier_states: None,
        degrade: false,
        ..options.clone()
    }
}

/// The graceful-degradation ladder ([`MoaOptions::degrade`]): when the full
/// procedure exhausted its budget, retry as the expansion-only baseline of
/// reference \[4] — no backward implications (collection becomes nearly
/// free), frontier halved (halving both split and resimulation work) — on a
/// fresh budget slice with the same limits. A detection found there is a
/// genuine MOA detection, so the resulting [`FaultStatus::PartialVerdict`]
/// carries a sound lower bound; if the baseline slice exhausts too, only
/// the conventional verdict remains ([`DegradeStage::Conventional`]).
#[allow(clippy::too_many_arguments)]
fn degrade_ladder(
    out: (FaultResult, Option<DetectionCertificate>),
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
    cache: &FrameCache<'_>,
    cones: &ConeCache<'_>,
    n_out: &[usize],
    n_sv: &[usize],
    meter: &mut BudgetMeter,
    want_certificate: bool,
) -> (FaultResult, Option<DetectionCertificate>) {
    let FaultStatus::BudgetExceeded { stage: tripped, .. } = out.0.status else {
        return out;
    };
    let rung_options = fallback_rung_options(options);
    let mut rung_meter = meter.fresh_like();
    let (rung, rung_certificate) = run_expansion_stages(
        circuit,
        seq,
        good,
        fault,
        &rung_options,
        cache,
        cones,
        n_out,
        n_sv,
        &mut rung_meter,
        want_certificate,
    );
    meter.absorb(&rung_meter);
    let work_spent = meter.spent();
    let (lower_bound, stage_reached, certificate) = match rung.status {
        FaultStatus::BudgetExceeded { .. } => {
            (PartialBound::Unknown, DegradeStage::Conventional, None)
        }
        FaultStatus::DetectedByExpansion { sequences } => (
            PartialBound::Detected { sequences },
            DegradeStage::ExpansionOnly,
            rung_certificate,
        ),
        // Without backward implications the baseline cannot force
        // assignments or detect by implications, but stay total: any other
        // detection is still sound.
        ref s if s.is_detected() => (
            PartialBound::Detected { sequences: 0 },
            DegradeStage::ExpansionOnly,
            rung_certificate,
        ),
        FaultStatus::NotDetected {
            undecided,
            sequences,
            ..
        } => (
            PartialBound::NotDetected {
                undecided,
                sequences,
            },
            DegradeStage::ExpansionOnly,
            None,
        ),
        // Remaining variants (conventional/skip/untestable/faulted/audit)
        // are never produced by `run_expansion_stages`.
        _ => (PartialBound::Unknown, DegradeStage::Conventional, None),
    };
    (
        FaultResult {
            status: FaultStatus::PartialVerdict {
                lower_bound,
                stage_reached,
                tripped,
                work_spent,
            },
            counters: rung.counters,
            runs: out.0.runs.max(rung.runs),
        },
        certificate,
    )
}

/// Steps 1–4 of the procedure, split out so the caller can fold the shared
/// frame cache's construction cost into the meter exactly once.
#[allow(clippy::too_many_arguments)]
fn run_expansion_stages(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    options: &MoaOptions,
    cache: &FrameCache<'_>,
    cones: &ConeCache<'_>,
    n_out: &[usize],
    n_sv: &[usize],
    meter: &mut BudgetMeter,
    want_certificate: bool,
) -> (FaultResult, Option<DetectionCertificate>) {
    // Step 1: collection.
    let started = Instant::now();
    let collection =
        collect_pairs_with_cache(circuit, seq, good, n_out, options, cache, cones, meter);
    meter.perf.collect_nanos += started.elapsed().as_nanos() as u64;
    if meter.is_exhausted() {
        return (
            budget_exceeded(BudgetStage::Collection, collection.runs, meter),
            None,
        );
    }

    // Step 2: direct detection from the collected information.
    if let Some(key) = detection_from_collection(&collection) {
        let certificate =
            want_certificate.then(|| DetectionCertificate::from_pair(key, &collection));
        return (
            FaultResult {
                status: FaultStatus::DetectedByImplications(key),
                counters: Counters::new(),
                runs: collection.runs,
            },
            certificate,
        );
    }

    // Step 3: selection + expansion.
    let started = Instant::now();
    let expanded = expand_metered(&collection, cache.faulty(), n_out, n_sv, options, meter);
    meter.perf.expand_nanos += started.elapsed().as_nanos() as u64;
    let (sequences, forced, counters, aborted) = match expanded {
            ExpandOutcome::DetectedByForcedAssignments {
                counters,
                forced,
                both_forced,
            } => {
                let certificate = want_certificate
                    .then(|| DetectionCertificate::from_forced(&collection, &forced, both_forced));
                return (
                    FaultResult {
                        status: FaultStatus::DetectedByForcedAssignments,
                        counters,
                        runs: collection.runs,
                    },
                    certificate,
                );
            }
            ExpandOutcome::Expanded {
                sequences,
                forced,
                counters,
                aborted,
                ..
            } => (sequences, forced, counters, aborted),
        };
    if meter.is_exhausted() {
        return (
            budget_exceeded(BudgetStage::Expansion, collection.runs, meter),
            None,
        );
    }

    // Step 4: resimulation. Certificates claim the *pre-resimulation* cubes,
    // so keep a copy when one is wanted.
    let total = sequences.len();
    let pre_resim = want_certificate.then(|| sequences.clone());
    let started = Instant::now();
    let verdict =
        resimulate_differential_metered(circuit, seq, good, Some(fault), cache, sequences, meter);
    meter.perf.resim_nanos += started.elapsed().as_nanos() as u64;
    if meter.is_exhausted() {
        return (
            budget_exceeded(BudgetStage::Resimulation, collection.runs, meter),
            None,
        );
    }
    let (status, certificate) = if verdict.detected() {
        let certificate = pre_resim.map(|pre| {
            DetectionCertificate::from_expansion(
                &collection,
                &forced,
                &pre,
                &verdict.outcomes,
                good,
            )
        });
        (FaultStatus::DetectedByExpansion { sequences: total }, certificate)
    } else {
        (
            FaultStatus::NotDetected {
                undecided: verdict.undecided(),
                sequences: total,
                truncated: collection.truncated,
                aborted,
            },
            None,
        )
    };
    (
        FaultResult {
            status,
            counters,
            runs: collection.runs,
        },
        certificate,
    )
}

/// The abandoned-fault result: not detected, with the stage and spend
/// recorded for diagnosis.
fn budget_exceeded(stage: BudgetStage, runs: usize, meter: &BudgetMeter) -> FaultResult {
    FaultResult {
        status: FaultStatus::BudgetExceeded {
            stage,
            work: meter.spent(),
        },
        counters: Counters::new(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::GateKind;
    use moa_netlist::CircuitBuilder;

    /// The resettable toggle circuit of the module example.
    fn toggle() -> (Circuit, TestSequence, SimTrace) {
        let mut b = CircuitBuilder::new("toggle");
        b.add_input("r").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Not, "nq", &["q"]).unwrap();
        b.add_gate(GateKind::And, "d", &["r", "nq"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        (c, seq, good)
    }

    #[test]
    fn reset_line_fault_is_extra_detected() {
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let result = simulate_fault(&c, &seq, &good, &fault, &MoaOptions::default());
        assert!(result.status.is_extra_detected(), "{:?}", result.status);
        assert!(result.runs > 0, "backward implications ran");
    }

    #[test]
    fn conventional_detection_short_circuits() {
        let (c, seq, good) = toggle();
        // z stuck-at-1: good z = x,0,0 → conventional detection at time 1.
        let fault = Fault::stem(c.find_net("z").unwrap(), true);
        let result = simulate_fault(&c, &seq, &good, &fault, &MoaOptions::default());
        assert!(matches!(
            result.status,
            FaultStatus::DetectedConventional(Detection { time: 1, output: 0 })
        ));
        assert_eq!(result.runs, 0);
    }

    #[test]
    fn condition_c_skips_undetectable_faults() {
        // A fault whose faulty outputs are all specified cannot gain from
        // expansion: d stuck-at-0 keeps the good behaviour (good d is always
        // 0 under r=0), so traces match and N_out = 0.
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("d").unwrap(), false);
        let result = simulate_fault(&c, &seq, &good, &fault, &MoaOptions::default());
        assert_eq!(result.status, FaultStatus::SkippedConditionC);
    }

    #[test]
    fn baseline_also_detects_the_toggle_fault() {
        // This particular fault only needs plain expansion (both branches of
        // q at time 1 detect), so the reference-[4] baseline finds it too.
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let result = simulate_fault(&c, &seq, &good, &fault, &MoaOptions::baseline());
        assert!(result.status.is_extra_detected(), "{:?}", result.status);
        assert_eq!(result.runs, 0, "baseline never runs the engine");
        assert_eq!(result.counters.n_det, 0);
        assert_eq!(result.counters.n_conf, 0);
    }

    #[test]
    fn certified_run_matches_uncertified_and_audits_clean() {
        use crate::audit::audit_certificate;
        use crate::certificate::CertificateSource;
        let (c, seq, good) = toggle();
        for (net, stuck, expect_source) in [
            ("r", true, CertificateSource::Expansion),
            ("z", true, CertificateSource::Conventional),
        ] {
            let fault = Fault::stem(c.find_net(net).unwrap(), stuck);
            let opts = MoaOptions::default();
            let plain = simulate_fault(&c, &seq, &good, &fault, &opts);
            let (certified, certificate) = simulate_fault_certified(
                &c,
                &seq,
                &good,
                &fault,
                &opts,
                None,
                &mut BudgetMeter::unlimited(),
            );
            assert_eq!(plain, certified, "certification must not change results");
            let certificate = certificate.expect("detected fault emits a certificate");
            assert_eq!(certificate.source, expect_source);
            let status = audit_certificate(&c, &seq, &good, &fault, &certificate);
            assert!(status.is_confirmed(), "{net} stuck-at-{stuck}: {status:?}");
        }
    }

    #[test]
    fn undetected_fault_has_no_certificate() {
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("nq").unwrap(), true);
        let (result, certificate) = simulate_fault_certified(
            &c,
            &seq,
            &good,
            &fault,
            &MoaOptions::default(),
            None,
            &mut BudgetMeter::unlimited(),
        );
        assert!(!result.status.is_detected());
        assert!(certificate.is_none());
    }

    #[test]
    fn undetectable_fault_reports_not_detected_or_skip() {
        // q branch into nq stuck at 0 … pick a fault that changes behaviour
        // invisibly: nq stuck-at-1 makes d = r; under r = 0 the faulty d is
        // 0 — same as good → equivalent under this sequence.
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("nq").unwrap(), true);
        let result = simulate_fault(&c, &seq, &good, &fault, &MoaOptions::default());
        assert!(!result.status.is_detected(), "{:?}", result.status);
    }

    #[test]
    fn frontier_cap_without_degrade_reports_budget_exceeded() {
        // A cap of 1 forbids the very first split: the expansion stage must
        // exhaust the meter (recording the frontier high-water mark) instead
        // of growing past the cap.
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let options = MoaOptions::baseline().with_max_frontier_states(1);
        let mut meter = BudgetMeter::unlimited();
        let result =
            simulate_fault_budgeted(&c, &seq, &good, &fault, &options, None, &mut meter);
        assert!(
            matches!(
                result.status,
                FaultStatus::BudgetExceeded { stage: BudgetStage::Expansion, .. }
            ),
            "{:?}",
            result.status
        );
        assert!(meter.perf.max_frontier >= 1, "{:?}", meter.perf);
    }

    #[test]
    fn frontier_cap_with_degrade_yields_a_deterministic_partial_verdict() {
        // Same trip as above, but with the ladder armed: the expansion-only
        // rung reruns with a frontier of one state — the unsplit all-X
        // sequence — whose resimulation cannot decide the fault. The verdict
        // is the sound lower bound "not detected for 1 undecided of 1
        // sequence", never a bare BudgetExceeded.
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let options = MoaOptions::baseline()
            .with_max_frontier_states(1)
            .with_degrade(true);
        let mut meter = BudgetMeter::unlimited();
        let result =
            simulate_fault_budgeted(&c, &seq, &good, &fault, &options, None, &mut meter);
        match result.status {
            FaultStatus::PartialVerdict {
                lower_bound,
                stage_reached,
                tripped,
                work_spent,
            } => {
                assert_eq!(
                    lower_bound,
                    PartialBound::NotDetected { undecided: 1, sequences: 1 }
                );
                assert_eq!(stage_reached, DegradeStage::ExpansionOnly);
                assert_eq!(tripped, BudgetStage::Expansion);
                assert!(work_spent > 0);
            }
            other => panic!("expected PartialVerdict, got {other:?}"),
        }
    }

    #[test]
    fn work_limit_with_degrade_never_reports_bare_budget_exceeded() {
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let options = MoaOptions::default().with_degrade(true);
        let budget = crate::FaultBudget::none().with_work_limit(1);
        let mut meter = BudgetMeter::new(&budget);
        let result =
            simulate_fault_budgeted(&c, &seq, &good, &fault, &options, None, &mut meter);
        assert!(
            matches!(result.status, FaultStatus::PartialVerdict { .. }),
            "the ladder converts every budget trip: {:?}",
            result.status
        );
    }
}
