//! Whole-fault-list campaigns — the driver behind the paper's Table 2 and
//! Table 3.
//!
//! Every campaign screens its pending faults a word at a time with the
//! parallel-fault packed kernel ([`moa_sim::screen_faults_wide`]) before the
//! per-fault procedure: the screen settles conventional detections and,
//! under [`MoaOptions::check_condition_c`], condition-(C) failures, so only
//! the (C)-passers get a per-fault faulty trace and enter the expansion
//! machinery. Its verdicts are those of the scalar conventional stage and
//! (C) check, fault by fault.
//!
//! Beyond the plain driver, this module is the campaign's resilience layer:
//! per-fault budgets ([`FaultBudget`]), panic isolation
//! ([`CampaignOptions::isolate_panics`]), and checkpoint/resume
//! ([`CampaignOptions::checkpoint`] / [`CampaignOptions::resume`]). A
//! campaign over hundreds of thousands of faults survives one pathological
//! fault — whether it is slow (budget), crashing (isolation), or the whole
//! process is killed (checkpoint).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use moa_netlist::{collapse_faults, Circuit, Fault};
use moa_sim::{screen_faults_wide, simulate, GoodFrames, ScreenLanes, SimTrace, TestSequence};

use crate::audit::{audit_certificate, AuditStatus};
use crate::budget::{BudgetMeter, FaultBudget};
use crate::certificate::DetectionCertificate;
use crate::checkpoint::{
    read_checkpoint, read_checkpoint_sharded, write_checkpoint_v2, CheckpointHeader,
    CheckpointSkip, ShardInfo,
};
use crate::cones::ConeCache;
use crate::counters::{CounterAverages, Counters, PerfCounters};
use crate::error::Error;
use crate::procedure::{
    simulate_fault_cached, validate_fault, validate_inputs, FaultResult, FaultStatus,
    PartialBound,
};
use crate::MoaOptions;

/// A per-fault observation hook, called with the fault's index and the fault
/// just before it is simulated. Used by tests to inject failures (panics,
/// delays) into campaign workers; production campaigns leave it `None`.
pub type FaultHook = Arc<dyn Fn(usize, &Fault) + Send + Sync>;

/// A cooperative cancellation probe: returns `true` once the campaign
/// should stop. Polled at batch boundaries — between checkpoint flushes —
/// so cancellation never tears a record in half: either a fault's result is
/// in the checkpoint, or the fault is untouched. A closure (rather than a
/// bare `AtomicBool`) lets callers cancel on any condition: a signal-count
/// cell, a daemon drain flag, a deadline.
pub type CancelFlag = Arc<dyn Fn() -> bool + Send + Sync>;

/// Configuration of a campaign's self-audit pass
/// ([`CampaignOptions::audit`]): every detected fault (or a deterministic
/// sample of them) has its [`DetectionCertificate`](crate::DetectionCertificate)
/// validated by concrete replay, and a refuted detection is quarantined as
/// [`FaultStatus::AuditFailed`]. The outcome of every audit is tallied in
/// [`PerfCounters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignAudit {
    /// Audit every `sample_rate`-th detected fault (by fault-list index);
    /// `1` audits them all. `0` is treated as `1`. Sampling is deterministic
    /// — the audited subset depends only on the fault list, never on thread
    /// scheduling.
    pub sample_rate: usize,
}

impl Default for CampaignAudit {
    fn default() -> Self {
        CampaignAudit { sample_rate: 1 }
    }
}

/// Options for [`run_campaign`].
#[derive(Clone)]
pub struct CampaignOptions {
    /// Per-fault procedure options.
    pub moa: MoaOptions,
    /// Worker threads; `0` uses the machine's available parallelism. Results
    /// are deterministic regardless of the thread count (faults are
    /// independent and results are stored by index).
    pub threads: usize,
    /// Run the conventional stage as deltas from cached fault-free frames
    /// (event-driven differential simulation). Identical results, less work
    /// per fault on large circuits.
    pub differential: bool,
    /// Lane width of the screening kernel: 64 faults per `u64` word (the
    /// default), or 128/256 per `[u64; N]` block word
    /// ([`moa_sim::ScreenLanes`]). Purely an execution knob — verdicts and
    /// the gate-eval charge per word pass are lane-invariant (see
    /// [`PerfCounters::gate_evals`]), a wider word just screens the same
    /// faults in fewer passes.
    pub screen_lanes: ScreenLanes,
    /// Worker threads for the screening pre-pass. `0` uses the machine's
    /// available parallelism; `1` (the default) screens on the calling
    /// thread. Word-sized fault batches are partitioned across workers and
    /// merged positionally, so verdicts are independent of the thread count.
    pub screen_threads: usize,
    /// Statically prove faults untestable before simulating anything: a fault
    /// whose effect cannot reach any primary output, or whose fault-free line
    /// is tied to the stuck value, is recorded as
    /// [`FaultStatus::Untestable`] with zero simulation work charged. The
    /// proofs hold under *any* test sequence and *any* observation scheme, so
    /// pruning never changes the verdict of a testable fault. Off by default
    /// so plain campaigns report the paper's raw statuses.
    pub prune_untestable: bool,
    /// Per-fault resource budget (wall-clock deadline and/or work-unit
    /// ceiling). A fault exceeding it is abandoned with
    /// [`FaultStatus::BudgetExceeded`] — the campaign keeps going.
    pub budget: FaultBudget,
    /// Catch panics inside each fault's worker and record the fault as
    /// [`FaultStatus::Faulted`] instead of crashing the campaign. On by
    /// default; turn off to let a panic propagate (e.g. to debug it).
    pub isolate_panics: bool,
    /// Write a checkpoint of completed per-fault results to this file every
    /// [`checkpoint_every`](Self::checkpoint_every) faults (and after the
    /// final batch). `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Faults per batch between checkpoint writes. Only meaningful with
    /// [`checkpoint`](Self::checkpoint) set.
    pub checkpoint_every: usize,
    /// Resume from the [`checkpoint`](Self::checkpoint) file: faults already
    /// recorded there are not re-simulated. Requires the file to exist and
    /// match this campaign (circuit name, fault count, sequence length).
    pub resume: bool,
    /// Audit detections by concrete certificate replay and quarantine any
    /// refuted detection as [`FaultStatus::AuditFailed`]. `None` (the
    /// default) trusts the symbolic engine. Resumed faults keep their
    /// checkpointed status and are not re-audited.
    pub audit: Option<CampaignAudit>,
    /// This campaign's place in a sharded partition ([`crate::shard`]).
    /// When set, the fault list is one shard's slice: checkpoints carry the
    /// shard's place in the partition and global fault indices, and a
    /// resume uses the shard-aware reader. `None` (the default) is an
    /// ordinary unsharded campaign (shard 0 of 1).
    pub shard: Option<ShardInfo>,
    /// Test instrumentation: called with `(index, fault)` before each fault
    /// is simulated, inside the worker (and inside panic isolation).
    pub fault_hook: Option<FaultHook>,
    /// Cooperative cancellation, polled before each batch. When the probe
    /// returns `true` the campaign writes a final checkpoint (if one is
    /// configured) and returns [`Error::Interrupted`] with the completed
    /// count — a rerun with [`resume`](Self::resume) continues from there,
    /// bit-identically. `None` (the default) never cancels.
    pub cancel: Option<CancelFlag>,
}

impl std::fmt::Debug for CampaignOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignOptions")
            .field("moa", &self.moa)
            .field("threads", &self.threads)
            .field("differential", &self.differential)
            .field("screen_lanes", &self.screen_lanes)
            .field("screen_threads", &self.screen_threads)
            .field("prune_untestable", &self.prune_untestable)
            .field("budget", &self.budget)
            .field("isolate_panics", &self.isolate_panics)
            .field("checkpoint", &self.checkpoint)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("resume", &self.resume)
            .field("audit", &self.audit)
            .field("shard", &self.shard)
            .field(
                "fault_hook",
                &self.fault_hook.as_ref().map(|_| "Fn(usize, &Fault)"),
            )
            .field("cancel", &self.cancel.as_ref().map(|_| "Fn() -> bool"))
            .finish()
    }
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            moa: MoaOptions::default(),
            threads: 0,
            differential: false,
            screen_lanes: ScreenLanes::L64,
            screen_threads: 1,
            prune_untestable: false,
            budget: FaultBudget::none(),
            isolate_panics: true,
            checkpoint: None,
            checkpoint_every: 64,
            resume: false,
            audit: None,
            shard: None,
            fault_hook: None,
            cancel: None,
        }
    }
}

impl CampaignOptions {
    /// Campaign with the paper's per-fault defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Campaign running the expansion-only baseline of reference \[4].
    pub fn baseline() -> Self {
        CampaignOptions {
            moa: MoaOptions::baseline(),
            ..Self::default()
        }
    }
}

/// Aggregate results of simulating a fault list — one row of Table 2 (and,
/// via [`CampaignResult::counter_averages`], one row of Table 3).
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The circuit's name.
    pub circuit: String,
    /// Faults simulated.
    pub total_faults: usize,
    /// Faults detected by conventional simulation.
    pub conventional: usize,
    /// Faults detected beyond conventional simulation (the "extra" column).
    pub extra: usize,
    /// Faults dropped by the necessary condition (C).
    pub skipped_condition_c: usize,
    /// Faults statically proven untestable and skipped with zero simulation
    /// work ([`FaultStatus::Untestable`]). Always `0` without
    /// [`CampaignOptions::prune_untestable`].
    pub untestable: usize,
    /// Faults whose collection sweep hit the implication budget.
    pub truncated: usize,
    /// Undetected faults for which at least one expanded sequence was
    /// dropped: the fault is detected for *some* faulty initial states — the
    /// "potential detection" notion studied by the paper's reference \[7].
    pub partially_covered: usize,
    /// Undetected faults whose expansion was *aborted* at the `N_STATES`
    /// limit with eligible pairs remaining (the paper's abort notion).
    pub aborted: usize,
    /// Faults abandoned when their [`FaultBudget`] ran out.
    pub budget_exceeded: usize,
    /// Faults whose isolated worker panicked.
    pub faulted: usize,
    /// Faults that exhausted their budget under the full pipeline and were
    /// re-tried down the graceful-degradation ladder
    /// ([`MoaOptions::degrade`](crate::MoaOptions)), ending with a
    /// [`FaultStatus::PartialVerdict`] lower bound instead of a bare
    /// [`FaultStatus::BudgetExceeded`].
    pub degraded: usize,
    /// Detections refuted by the certificate audit and quarantined
    /// ([`FaultStatus::AuditFailed`]). Always `0` without
    /// [`CampaignOptions::audit`]; any nonzero count is an engine-soundness
    /// alarm, not a property of the circuit.
    pub audit_failed: usize,
    /// Per-fault statuses, in fault-list order.
    pub statuses: Vec<FaultStatus>,
    /// Table-3 counters of the faults detected beyond conventional
    /// simulation, in fault-list order.
    pub expansion_counters: Vec<Counters>,
    /// Work and per-phase wall-time instrumentation, summed over the
    /// screening pre-pass and every simulated fault. Faults restored from a
    /// checkpoint contribute nothing (they are not re-simulated). Excluded
    /// from equality: two runs with identical verdicts compare equal even
    /// though their timings differ.
    pub perf: PerfCounters,
    /// Checkpoint records that were skipped (with a located warning) while
    /// resuming, because they were corrupt, out of range, or duplicated.
    /// The faults behind them were simply re-simulated. Empty without
    /// [`CampaignOptions::resume`]. Excluded from equality alongside
    /// [`perf`](Self::perf): skips describe the journey, not the verdicts.
    pub resume_skipped: Vec<CheckpointSkip>,
}

/// Equality by verdicts: every field except the wall-clock-dependent
/// [`perf`](CampaignResult::perf) instrumentation and the
/// [`resume_skipped`](CampaignResult::resume_skipped) warnings (a resumed
/// run that healed a corrupt record still computes identical verdicts).
impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.circuit == other.circuit
            && self.total_faults == other.total_faults
            && self.conventional == other.conventional
            && self.extra == other.extra
            && self.skipped_condition_c == other.skipped_condition_c
            && self.untestable == other.untestable
            && self.truncated == other.truncated
            && self.partially_covered == other.partially_covered
            && self.aborted == other.aborted
            && self.budget_exceeded == other.budget_exceeded
            && self.faulted == other.faulted
            && self.degraded == other.degraded
            && self.audit_failed == other.audit_failed
            && self.statuses == other.statuses
            && self.expansion_counters == other.expansion_counters
    }
}

impl Eq for CampaignResult {}

impl CampaignResult {
    /// Total detected (`conventional + extra`) — Table 2's "tot" column.
    pub fn detected_total(&self) -> usize {
        self.conventional + self.extra
    }

    /// Averages of the Table-3 counters over the extra-detected faults.
    pub fn counter_averages(&self) -> CounterAverages {
        CounterAverages::of(&self.expansion_counters)
    }

    /// Tallies the [`FaultStatus::PartialVerdict`] lower bounds — what the
    /// degradation ladder ([`MoaOptions::degrade`](crate::MoaOptions))
    /// salvaged from budget-exhausted faults. All-zero for a run that never
    /// degraded.
    pub fn partial_summary(&self) -> PartialSummary {
        let mut summary = PartialSummary::default();
        for status in &self.statuses {
            let FaultStatus::PartialVerdict { lower_bound, .. } = status else {
                continue;
            };
            summary.partial += 1;
            match lower_bound {
                PartialBound::Detected { .. } => summary.detected += 1,
                PartialBound::NotDetected { .. } => summary.not_detected += 1,
                PartialBound::Unknown => summary.unknown += 1,
            }
        }
        summary
    }

    /// Fraction of faults *proven* detected, `detected_total / total_faults`
    /// — a lower bound on the true fault coverage whenever the run degraded
    /// or ran out of budget (those faults might still be detectable). Zero
    /// for an empty fault list.
    pub fn coverage_lower_bound(&self) -> f64 {
        if self.total_faults == 0 {
            return 0.0;
        }
        self.detected_total() as f64 / self.total_faults as f64
    }
}

/// Counts of the [`FaultStatus::PartialVerdict`] lower bounds in a campaign,
/// from [`CampaignResult::partial_summary`]. `partial` is the sum of the
/// three bound counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialSummary {
    /// Faults that ended with a partial verdict of any kind.
    pub partial: usize,
    /// Partial verdicts whose lower bound is [`PartialBound::Detected`]
    /// (these also count toward [`CampaignResult::detected_total`]).
    pub detected: usize,
    /// Partial verdicts whose lower bound is [`PartialBound::NotDetected`].
    pub not_detected: usize,
    /// Partial verdicts with no usable lower bound
    /// ([`PartialBound::Unknown`]).
    pub unknown: usize,
}

/// Simulates every fault of `faults` under `seq` and aggregates the results.
///
/// The fault-free trace is computed once; faults are processed independently
/// (optionally in parallel) with [`simulate_fault`](crate::simulate_fault).
///
/// Infallible convenience wrapper over [`try_run_campaign`]; panics on
/// invalid inputs or checkpoint failures.
///
/// # Example
///
/// ```
/// use moa_core::{run_campaign, CampaignOptions};
/// use moa_netlist::{full_fault_list, parse_bench};
/// use moa_sim::TestSequence;
///
/// let c = parse_bench(
///     "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
/// )?;
/// let faults = full_fault_list(&c);
/// let seq = TestSequence::from_words(&["0", "0", "0"])?;
/// let result = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
/// assert_eq!(result.total_faults, faults.len());
/// assert!(result.extra >= 1, "the reset-line fault needs expansion");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_campaign(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    options: &CampaignOptions,
) -> CampaignResult {
    match try_run_campaign(circuit, seq, faults, options) {
        Ok(result) => result,
        Err(e) => panic!("run_campaign: {e}"),
    }
}

/// Fallible variant of [`run_campaign`]: validates the inputs up front and
/// reports checkpoint problems as [`Error`] values instead of panicking.
pub fn try_run_campaign(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    options: &CampaignOptions,
) -> Result<CampaignResult, Error> {
    if seq.num_inputs() != circuit.num_inputs() {
        return Err(Error::SequenceWidthMismatch {
            expected: circuit.num_inputs(),
            got: seq.num_inputs(),
        });
    }
    for (index, fault) in faults.iter().enumerate() {
        validate_fault(circuit, index, fault)?;
    }
    let frames = options.differential.then(|| GoodFrames::compute(circuit, seq));
    let good = match &frames {
        Some(f) => f.to_trace(),
        None => simulate(circuit, seq, None),
    };
    validate_inputs(circuit, seq, &good)?;

    if let Some(info) = &options.shard {
        let consistent = info.shard_count > 0
            && info.shard_id < info.shard_count
            && info.len as usize == faults.len()
            && info
                .offset
                .checked_add(info.len)
                .is_some_and(|end| end <= info.total_faults);
        if !consistent {
            return Err(Error::Shard {
                shard_id: info.shard_id as usize,
                message: format!(
                    "inconsistent shard geometry: shard {} of {} covering [{}, {}+{}) of {} \
                     faults, but the campaign's fault list has {}",
                    info.shard_id,
                    info.shard_count,
                    info.offset,
                    info.offset,
                    info.len,
                    info.total_faults,
                    faults.len()
                ),
            });
        }
    }

    let header = CheckpointHeader {
        circuit: circuit.name().to_owned(),
        total_faults: faults.len(),
        seq_len: seq.len(),
    };
    let (mut slots, resume_skipped): (Vec<Option<FaultResult>>, Vec<CheckpointSkip>) =
        if options.resume {
            let path = options.checkpoint.as_ref().ok_or_else(|| Error::Checkpoint {
                path: "<none>".into(),
                record: None,
                message: "resume requested without a checkpoint path".into(),
            })?;
            let load = match &options.shard {
                Some(info) => read_checkpoint_sharded(path, &header, info)?,
                None => read_checkpoint(path, &header)?,
            };
            (load.slots, load.skipped)
        } else {
            (vec![None; faults.len()], Vec::new())
        };

    let mut perf = PerfCounters::new();
    run_all(
        circuit,
        seq,
        &good,
        faults,
        options,
        frames.as_ref(),
        &header,
        &mut slots,
        &mut perf,
    )?;

    let results = slots
        .into_iter()
        .map(|slot| slot.ok_or_else(|| Error::Checkpoint {
            path: "<internal>".into(),
            record: None,
            message: "a fault was left unsimulated".into(),
        }))
        .collect::<Result<Vec<_>, _>>()?;
    let mut result = aggregate(circuit, faults.len(), results);
    result.perf = perf;
    result.resume_skipped = resume_skipped;
    Ok(result)
}

pub(crate) fn aggregate(
    circuit: &Circuit,
    total_faults: usize,
    results: Vec<FaultResult>,
) -> CampaignResult {
    let mut campaign = CampaignResult {
        circuit: circuit.name().to_owned(),
        total_faults,
        conventional: 0,
        extra: 0,
        skipped_condition_c: 0,
        untestable: 0,
        truncated: 0,
        partially_covered: 0,
        aborted: 0,
        budget_exceeded: 0,
        faulted: 0,
        degraded: 0,
        audit_failed: 0,
        statuses: Vec::with_capacity(results.len()),
        expansion_counters: Vec::new(),
        perf: PerfCounters::new(),
        resume_skipped: Vec::new(),
    };
    for r in results {
        match &r.status {
            FaultStatus::DetectedConventional(_) => campaign.conventional += 1,
            FaultStatus::SkippedConditionC => campaign.skipped_condition_c += 1,
            FaultStatus::Untestable { .. } => campaign.untestable += 1,
            FaultStatus::NotDetected {
                truncated,
                undecided,
                sequences,
                aborted,
            } => {
                if *truncated {
                    campaign.truncated += 1;
                }
                if undecided < sequences {
                    campaign.partially_covered += 1;
                }
                if *aborted {
                    campaign.aborted += 1;
                }
            }
            FaultStatus::BudgetExceeded { .. } => campaign.budget_exceeded += 1,
            FaultStatus::Faulted { .. } => campaign.faulted += 1,
            FaultStatus::PartialVerdict { .. } => campaign.degraded += 1,
            FaultStatus::AuditFailed { .. } => campaign.audit_failed += 1,
            _ => {}
        }
        if r.status.is_extra_detected() {
            campaign.extra += 1;
            campaign.expansion_counters.push(r.counters);
        }
        campaign.statuses.push(r.status);
    }
    campaign
}

/// Simulates every fault whose slot is still `None`: screens the pending
/// faults, simulates them in checkpoint-sized batches, flushes after every
/// batch and observes cancellation at batch boundaries.
#[allow(clippy::too_many_arguments)]
fn run_all(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    options: &CampaignOptions,
    frames: Option<&GoodFrames>,
    header: &CheckpointHeader,
    slots: &mut [Option<FaultResult>],
    perf: &mut PerfCounters,
) -> Result<(), Error> {
    // Implication regions and fan-out cones are a property of the circuit
    // alone: build them once and share across faults and worker threads.
    let cones = ConeCache::new(circuit);
    // Static untestability pruning runs before any simulation: a proven
    // fault's slot is filled directly with zero counters and zero runs, so
    // neither the packed screen nor the per-fault procedure ever sees it.
    if options.prune_untestable {
        let screen = moa_analyze::UntestableScreen::new(circuit, cones.learned_db());
        for (index, slot) in slots.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            if let Some(proof) = screen.check(circuit, &faults[index]) {
                *slot = Some(FaultResult {
                    status: FaultStatus::Untestable { proof },
                    counters: Counters::new(),
                    runs: 0,
                });
            }
        }
    }
    let pending: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.is_none().then_some(i))
        .collect();
    // With nothing pending (a fully-resumed or fully-pruned campaign, or an
    // empty shard) no batch flushes; a shard must still publish its file so
    // the merge sees every member of the partition.
    if pending.is_empty() {
        return flush(options, header, slots);
    }

    let screened = screen_pending(circuit, seq, good, faults, options, &pending, perf);
    let batch_size = if options.checkpoint.is_some() {
        options.checkpoint_every.max(1)
    } else {
        pending.len()
    };
    let cancelled = || options.cancel.as_ref().is_some_and(|probe| probe());
    for batch in pending.chunks(batch_size) {
        // Cancellation is only observed here, at a batch boundary: every
        // completed batch is already flushed, so the checkpoint on disk is
        // consistent and a resume re-simulates nothing it already has.
        if cancelled() {
            flush(options, header, slots)?;
            return Err(Error::Interrupted {
                completed: slots.iter().filter(|slot| slot.is_some()).count(),
                total: slots.len(),
            });
        }
        run_batch(
            circuit,
            seq,
            good,
            faults,
            options,
            frames,
            &screened,
            &cones,
            batch,
            slots,
            perf,
        );
        flush(options, header, slots)?;
    }
    Ok(())
}

/// Publishes the campaign's completed slots to its checkpoint file, if it
/// has one.
fn flush(
    options: &CampaignOptions,
    header: &CheckpointHeader,
    slots: &[Option<FaultResult>],
) -> Result<(), Error> {
    match &options.checkpoint {
        Some(path) => write_checkpoint_v2(path, header, options.shard.as_ref(), slots),
        None => Ok(()),
    }
}

/// Conventionally screens the still-unresolved faults a word at a time with
/// the parallel-fault packed kernel, at the configured lane width and thread
/// count. Returns, indexed by fault-list position, the verdict the screen
/// settled: the earliest conventional detection, or — when
/// [`MoaOptions::check_condition_c`] is set — a condition-(C) skip for an
/// undetected fault failing (C); `None` for a fault that needs the per-fault
/// procedure.
///
/// One lane screens each structural equivalence class of `pending`
/// ([`collapse_faults`]): equivalent faults have identical faulty traces, so
/// every member gets its class representative's detection and (C) bit. Each
/// slot's verdict therefore still depends only on its own fault, and the
/// result is independent of batch composition, lane width, and thread count
/// — a resumed campaign screening a different subset (or with different
/// knobs) reaches identical per-fault conclusions.
fn screen_pending(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    options: &CampaignOptions,
    pending: &[usize],
    perf: &mut PerfCounters,
) -> Vec<Option<FaultStatus>> {
    let mut screened = vec![None; faults.len()];
    let started = Instant::now();
    let batch: Vec<Fault> = pending.iter().map(|&i| faults[i]).collect();
    let classes = collapse_faults(circuit, &batch);
    let threads = if options.screen_threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        options.screen_threads
    };
    let outcome = screen_faults_wide(
        circuit,
        seq,
        good,
        classes.representatives(),
        options.screen_lanes,
        threads,
    );
    for (&index, &fault) in pending.iter().zip(&batch) {
        let lane = classes
            .class_index(fault)
            .expect("collapse_faults classes every fault of its list");
        screened[index] = match outcome.detections[lane] {
            Some(det) => Some(FaultStatus::DetectedConventional(det)),
            None if options.moa.check_condition_c && !outcome.condition_c[lane] => {
                Some(FaultStatus::SkippedConditionC)
            }
            None => None,
        };
    }
    perf.gate_evals += outcome.gate_evaluations;
    perf.screen_nanos += started.elapsed().as_nanos() as u64;
    screened
}

/// Simulates the faults at `batch` indices (in parallel when configured)
/// and stores their results into `slots`.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    options: &CampaignOptions,
    frames: Option<&GoodFrames>,
    screened: &[Option<FaultStatus>],
    cones: &ConeCache<'_>,
    batch: &[usize],
    slots: &mut [Option<FaultResult>],
    perf: &mut PerfCounters,
) {
    let run_one = |index: usize| -> (FaultResult, PerfCounters) {
        let fault = &faults[index];
        // Deterministic sampling by fault-list index: the audited subset is
        // independent of thread count and batch boundaries.
        let audited = options
            .audit
            .as_ref()
            .is_some_and(|a| index.is_multiple_of(a.sample_rate.max(1)));
        let simulate_one = || {
            if let Some(hook) = &options.fault_hook {
                hook(index, fault);
            }
            // The screening pre-pass already proved a conventional
            // detection or a condition-(C) failure: the per-fault pipeline
            // (including its conventional stage) is skipped entirely. The
            // verdict — and, when sampled, the audited certificate — is
            // exactly what the pipeline would have produced.
            if let Some(status) = &screened[index] {
                let mut result = FaultResult {
                    status: status.clone(),
                    counters: Counters::new(),
                    runs: 0,
                };
                let mut perf = PerfCounters::new();
                if let (true, FaultStatus::DetectedConventional(det)) = (audited, status) {
                    let cert = DetectionCertificate::conventional(det, good);
                    apply_audit(circuit, seq, good, fault, &mut result, Some(&cert), &mut perf);
                }
                return (result, perf);
            }
            let mut meter = BudgetMeter::new(&options.budget);
            let (mut result, certificate) = simulate_fault_cached(
                circuit,
                seq,
                good,
                fault,
                &options.moa,
                frames,
                cones,
                &mut meter,
                audited,
            );
            if audited {
                apply_audit(
                    circuit,
                    seq,
                    good,
                    fault,
                    &mut result,
                    certificate.as_ref(),
                    &mut meter.perf,
                );
            }
            (result, meter.perf)
        };
        if options.isolate_panics {
            match catch_unwind(AssertUnwindSafe(simulate_one)) {
                Ok(result) => result,
                Err(payload) => (
                    FaultResult {
                        status: FaultStatus::Faulted {
                            message: panic_message(payload.as_ref()),
                        },
                        counters: Counters::new(),
                        runs: 0,
                    },
                    PerfCounters::new(),
                ),
            }
        } else {
            simulate_one()
        }
    };

    let threads = if options.threads == 0 {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZero::get)
    } else {
        options.threads
    };
    let threads = threads.min(batch.len().max(1));

    if threads <= 1 || batch.len() < 2 {
        for &index in batch {
            let (result, fault_perf) = run_one(index);
            *perf += fault_perf;
            slots[index] = Some(result);
        }
        return;
    }

    // A pull pool: workers claim batch positions from a shared cursor and
    // fill that position's result cell. A worker that dies (a panic outside
    // per-fault isolation) or never spawns just stops claiming; the
    // coordinating thread then fills every cell left empty — so each fault
    // is simulated once, and none is lost to a dying worker. This fill does
    // not hit the worker failpoints: it is the last-resort guarantee. The
    // cursor only hands out positions (each claimed once); results reach
    // the coordinating thread through the cells and the joins, so `Relaxed`
    // suffices.
    let cells: Vec<OnceLock<(FaultResult, PerfCounters)>> =
        (0..batch.len()).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let worker = || loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&index) = batch.get(k) else { break };
            fail_hit!("fp/campaign.worker.run");
            let _ = cells[k].set(run_one(index));
        };
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            #[cfg(feature = "failpoints")]
            if crate::failpoint::fires_error("fp/campaign.worker.spawn") {
                continue;
            }
            handles.extend(std::thread::Builder::new().spawn_scoped(scope, worker).ok());
        }
        for handle in handles {
            // A dead worker's unfinished cells are filled below.
            let _ = handle.join();
        }
    });
    for (cell, &index) in cells.into_iter().zip(batch) {
        let (fault_result, fault_perf) = cell.into_inner().unwrap_or_else(|| run_one(index));
        *perf += fault_perf;
        slots[index] = Some(fault_result);
    }
}

/// Audits a detected fault's certificate by concrete replay, tallies the
/// outcome in `perf`, and quarantines the detection as
/// [`FaultStatus::AuditFailed`] when the audit refutes it. Shared between
/// the screening short-circuit and the full pipeline so both paths treat
/// (and count) an audit identically.
fn apply_audit(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    result: &mut FaultResult,
    certificate: Option<&DetectionCertificate>,
    perf: &mut PerfCounters,
) {
    if !result.status.is_detected() {
        return;
    }
    let status = match certificate {
        Some(cert) => audit_certificate(circuit, seq, good, fault, cert),
        None => AuditStatus::Refuted {
            reason: "detected fault emitted no certificate".to_owned(),
        },
    };
    match status {
        AuditStatus::Confirmed { .. } => perf.audits_confirmed += 1,
        AuditStatus::Inconclusive { .. } => perf.audits_inconclusive += 1,
        AuditStatus::Refuted { reason } => {
            perf.audits_refuted += 1;
            result.status = FaultStatus::AuditFailed { reason };
        }
    }
}

/// Renders a panic payload into the stored [`FaultStatus::Faulted`] message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::GateKind;
    use moa_netlist::{full_fault_list, CircuitBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn toggle() -> (Circuit, TestSequence) {
        let mut b = CircuitBuilder::new("toggle");
        b.add_input("r").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Not, "nq", &["q"]).unwrap();
        b.add_gate(GateKind::And, "d", &["r", "nq"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0", "0"]).unwrap();
        (c, seq)
    }

    /// The campaign's statuses, and the Table-3 counters of its
    /// extra-detected faults, equal the per-fault procedure's — with its own
    /// scalar conventional stage and (C) check — under the campaign's
    /// budget. A pruning campaign's untestability proofs come first.
    fn assert_matches_per_fault(
        c: &Circuit,
        seq: &TestSequence,
        faults: &[Fault],
        options: &CampaignOptions,
        result: &CampaignResult,
    ) {
        let good = simulate(c, seq, None);
        let cones = ConeCache::new(c);
        let untestable = moa_analyze::UntestableScreen::new(c, cones.learned_db());
        let mut counters = Vec::new();
        for (i, fault) in faults.iter().enumerate() {
            let proof = options
                .prune_untestable
                .then(|| untestable.check(c, fault))
                .flatten();
            let expected = if let Some(proof) = proof {
                FaultStatus::Untestable { proof }
            } else {
                let mut meter = BudgetMeter::new(&options.budget);
                let r = crate::simulate_fault_budgeted(
                    c,
                    seq,
                    &good,
                    fault,
                    &options.moa,
                    None,
                    &mut meter,
                );
                if r.status.is_extra_detected() {
                    counters.push(r.counters);
                }
                r.status
            };
            assert_eq!(result.statuses[i], expected, "fault {i}: {fault}");
        }
        assert_eq!(result.expansion_counters, counters);
    }

    #[test]
    fn campaign_aggregates_statuses() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let result = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        assert_eq!(result.total_faults, faults.len());
        assert_eq!(result.statuses.len(), faults.len());
        assert_eq!(
            result.expansion_counters.len(),
            result.extra,
            "one counter record per extra-detected fault"
        );
        assert!(result.conventional > 0);
        assert!(result.extra >= 1);
        assert_eq!(
            result.detected_total(),
            result.conventional + result.extra
        );
        assert_eq!(result.budget_exceeded, 0);
        assert_eq!(result.faulted, 0);
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let serial = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial.statuses, parallel.statuses);
        assert_eq!(serial.extra, parallel.extra);
    }

    #[test]
    fn proposed_detects_at_least_as_many_as_baseline() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let baseline = run_campaign(&c, &seq, &faults, &CampaignOptions::baseline());
        let proposed = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        assert_eq!(baseline.conventional, proposed.conventional);
        assert!(proposed.detected_total() >= baseline.detected_total());
    }

    #[test]
    fn empty_fault_list() {
        let (c, seq) = toggle();
        let result = run_campaign(&c, &seq, &[], &CampaignOptions::new());
        assert_eq!(result.total_faults, 0);
        assert_eq!(result.detected_total(), 0);
        assert_eq!(result.counter_averages().faults, 0);
    }

    #[test]
    fn mismatched_sequence_is_a_clean_error() {
        let (c, _) = toggle();
        let wide = TestSequence::from_words(&["00", "01"]).unwrap();
        let faults = full_fault_list(&c);
        let err = try_run_campaign(&c, &wide, &faults, &CampaignOptions::new()).unwrap_err();
        assert!(matches!(err, Error::SequenceWidthMismatch { expected: 1, got: 2 }));
    }

    #[test]
    fn out_of_range_fault_is_a_clean_error() {
        let (c, seq) = toggle();
        let bogus = Fault::stem(moa_netlist::NetId::new(999), true);
        let err = try_run_campaign(&c, &seq, &[bogus], &CampaignOptions::new()).unwrap_err();
        assert!(matches!(err, Error::FaultOutOfRange { index: 0, .. }));
    }

    #[test]
    fn panicking_hook_is_isolated_and_counted() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let victim = faults.len() / 2;
        let options = CampaignOptions {
            fault_hook: Some(Arc::new(move |index, _fault: &Fault| {
                assert!(index != victim, "injected fault-worker panic");
            })),
            ..Default::default()
        };
        let result = run_campaign(&c, &seq, &faults, &options);
        assert_eq!(result.faulted, 1);
        assert_eq!(result.total_faults, faults.len());
        match &result.statuses[victim] {
            FaultStatus::Faulted { message } => {
                assert!(message.contains("injected fault-worker panic"), "{message}");
            }
            other => panic!("expected Faulted, got {other:?}"),
        }
        // Every other fault completed normally.
        let healthy = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        for (i, (a, b)) in result.statuses.iter().zip(&healthy.statuses).enumerate() {
            if i != victim {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn unisolated_panic_propagates() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let options = CampaignOptions {
            isolate_panics: false,
            threads: 1,
            fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                assert!(index != 0, "unisolated panic");
            })),
            ..Default::default()
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_campaign(&c, &seq, &faults, &options)
        }));
        assert!(outcome.is_err(), "the panic must escape the campaign");
    }

    #[test]
    fn tiny_work_budget_abandons_expansion_faults_soundly() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let unlimited = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let strangled = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                budget: FaultBudget::none().with_work_limit(1),
                ..Default::default()
            },
        );
        assert!(strangled.budget_exceeded > 0, "the expansion faults must trip");
        // Budget exhaustion only ever downgrades to not-detected: sound.
        assert!(strangled.detected_total() <= unlimited.detected_total());
        // Conventional detections never consume budget.
        assert_eq!(strangled.conventional, unlimited.conventional);
        for (a, b) in strangled.statuses.iter().zip(&unlimited.statuses) {
            match a {
                FaultStatus::BudgetExceeded { work, .. } => assert!(*work > 0),
                other => assert_eq!(other, b, "non-budgeted faults are unaffected"),
            }
        }
    }

    #[test]
    fn zero_deadline_still_terminates_with_sound_statuses() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let result = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                budget: FaultBudget::none().with_deadline(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        assert_eq!(result.total_faults, faults.len());
        // A zero deadline may or may not trip before small faults finish —
        // but every status must be a valid verdict either way.
        for status in &result.statuses {
            assert!(!matches!(status, FaultStatus::Faulted { .. }));
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes_to_identical_result() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.checkpoint");
        let _ = std::fs::remove_file(&path);

        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let checkpointed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 3,
                ..Default::default()
            },
        );
        assert_eq!(plain, checkpointed, "checkpointing must not change results");

        // The finished checkpoint is complete: resuming from it re-simulates
        // nothing (hook proves it) and reproduces the identical result.
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                    panic!("fault {index} re-simulated after a complete checkpoint");
                })),
                isolate_panics: false,
                ..Default::default()
            },
        );
        assert_eq!(plain, resumed);
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_result() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-interrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("interrupted.checkpoint");
        let _ = std::fs::remove_file(&path);

        let reference = run_campaign(&c, &seq, &faults, &CampaignOptions::new());

        // Emulate a mid-campaign crash: an unisolated panic after a few
        // batches have been flushed. The atomic write leaves the last
        // complete checkpoint on disk.
        let killer = faults.len() - 2;
        let interrupted = catch_unwind(AssertUnwindSafe(|| {
            run_campaign(
                &c,
                &seq,
                &faults,
                &CampaignOptions {
                    checkpoint: Some(path.clone()),
                    checkpoint_every: 2,
                    threads: 1,
                    isolate_panics: false,
                    fault_hook: Some(Arc::new(move |index, _fault: &Fault| {
                        assert!(index != killer, "simulated crash");
                    })),
                    ..Default::default()
                },
            )
        }));
        assert!(interrupted.is_err(), "the campaign must have been interrupted");

        // Some but not all work survived in the checkpoint.
        let header = CheckpointHeader {
            circuit: c.name().to_owned(),
            total_faults: faults.len(),
            seq_len: seq.len(),
        };
        let load = read_checkpoint(&path, &header).unwrap();
        assert!(load.skipped.is_empty(), "{:?}", load.skipped);
        let done = load.slots.iter().filter(|s| s.is_some()).count();
        assert!(done > 0 && done < faults.len(), "{done} of {}", faults.len());

        // Resume: the remaining faults (including the one that crashed) are
        // simulated and the aggregate is bit-identical to the clean run.
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 2,
                resume: true,
                ..Default::default()
            },
        );
        assert_eq!(reference, resumed);
    }

    #[test]
    fn cancelled_campaign_checkpoints_and_resumes_to_identical_result() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-cancel-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cancelled.checkpoint");
        let _ = std::fs::remove_file(&path);

        let reference = run_campaign(&c, &seq, &faults, &CampaignOptions::new());

        // The probe trips after the first poll: batch 1 runs, then the
        // campaign flushes and reports Interrupted at the next boundary.
        let polls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let probe_polls = Arc::clone(&polls);
        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 2,
                threads: 1,
                cancel: Some(Arc::new(move || {
                    probe_polls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= 1
                })),
                ..Default::default()
            },
        )
        .unwrap_err();
        let Error::Interrupted { completed, total } = err else {
            panic!("expected Interrupted, got {err}");
        };
        assert_eq!(total, faults.len());
        assert!(completed > 0 && completed < total, "{completed} of {total}");

        // The checkpoint holds exactly the completed records; a resume with
        // no cancel probe finishes the rest bit-identically.
        let header = CheckpointHeader {
            circuit: c.name().to_owned(),
            total_faults: faults.len(),
            seq_len: seq.len(),
        };
        let load = read_checkpoint(&path, &header).unwrap();
        assert_eq!(
            load.slots.iter().filter(|s| s.is_some()).count(),
            completed
        );
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            },
        );
        assert_eq!(reference, resumed);
    }

    #[test]
    fn cancel_probe_already_tripped_interrupts_before_any_work() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                cancel: Some(Arc::new(|| true)),
                fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                    panic!("fault {index} simulated under a tripped cancel probe");
                })),
                isolate_panics: false,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Interrupted { completed: 0, .. }), "{err}");
    }

    #[test]
    fn resume_against_missing_or_mismatched_checkpoint_fails_cleanly() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-resume-error-test");
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("missing.checkpoint");
        let _ = std::fs::remove_file(&missing);
        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(missing),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Checkpoint { .. }), "{err}");

        let err = try_run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("without a checkpoint path"), "{err}");
    }

    #[test]
    fn audited_campaign_matches_plain_on_a_sound_engine() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let audited = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                audit: Some(CampaignAudit::default()),
                ..Default::default()
            },
        );
        assert_eq!(audited.audit_failed, 0, "a sound engine never fails its own audit");
        assert_eq!(plain, audited, "a clean audit must not change any result");
    }

    #[test]
    fn audit_sampling_agrees_across_thread_counts() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let audit = CampaignAudit { sample_rate: 3 };
        let serial = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                audit: Some(audit.clone()),
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                audit: Some(audit),
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial, parallel, "index-based sampling is schedule-independent");
    }

    #[test]
    fn audited_campaign_checkpoints_and_resumes_identically() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-audit-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audited.checkpoint");
        let _ = std::fs::remove_file(&path);

        let options = CampaignOptions {
            audit: Some(CampaignAudit::default()),
            checkpoint: Some(path.clone()),
            checkpoint_every: 2,
            ..Default::default()
        };
        let first = run_campaign(&c, &seq, &faults, &options);
        // Resuming from the finished checkpoint re-simulates (and re-audits)
        // nothing and reproduces the identical aggregate.
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                resume: true,
                fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                    panic!("fault {index} re-simulated after a complete checkpoint");
                })),
                isolate_panics: false,
                ..options
            },
        );
        assert_eq!(first, resumed);
    }

    #[test]
    fn screened_campaign_matches_the_per_fault_procedure() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let options = CampaignOptions::new();
        let screened = run_campaign(&c, &seq, &faults, &options);
        assert_matches_per_fault(&c, &seq, &faults, &options, &screened);
        assert!(screened.conventional > 0, "the screen had faults to drop");
    }

    /// The screen's condition-(C) skips follow
    /// [`MoaOptions::check_condition_c`]: with the check off the campaign
    /// skips nothing; with the default it skips some faults, exactly those
    /// the per-fault procedure skips.
    #[test]
    fn screened_condition_c_skips_follow_the_option() {
        let c = moa_circuits::iscas::s27();
        let seq = moa_tpg::random_sequence(&c, 8, 7);
        let faults = full_fault_list(&c);
        for check_condition_c in [false, true] {
            let mut options = CampaignOptions::new();
            options.moa.check_condition_c = check_condition_c;
            let screened = run_campaign(&c, &seq, &faults, &options);
            assert_matches_per_fault(&c, &seq, &faults, &options, &screened);
            assert_eq!(
                screened.skipped_condition_c > 0,
                check_condition_c,
                "the screen drops (C) failures only under the check"
            );
        }
    }

    /// Every detection is audited on the screened and the full per-fault
    /// path alike, and each audit is counted: the toggle's one flip-flop is
    /// far under the cap, so every audit confirms.
    #[test]
    fn screened_audited_campaign_counts_every_audit() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let options = CampaignOptions {
            audit: Some(CampaignAudit::default()),
            ..Default::default()
        };
        let screened = run_campaign(&c, &seq, &faults, &options);
        assert_eq!(screened.audit_failed, 0, "screened detections audit clean");
        assert_matches_per_fault(&c, &seq, &faults, &options, &screened);
        assert!(screened.conventional > 0 && screened.extra > 0, "both paths ran");
        let perf = screened.perf;
        assert_eq!(perf.audits_confirmed, screened.detected_total() as u64, "{perf:?}");
        assert_eq!((perf.audits_refuted, perf.audits_inconclusive), (0, 0));

        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        assert_eq!(plain.perf.audits_confirmed, 0, "no audit, no count");
    }

    #[test]
    fn perf_counters_are_populated_and_excluded_from_equality() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let result = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        assert!(result.perf.gate_evals > 0, "{:?}", result.perf);
        let mut stripped = result.clone();
        stripped.perf = PerfCounters::new();
        assert_eq!(result, stripped, "perf must not participate in equality");
    }

    #[test]
    fn fault_hook_sees_every_fault_once() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let options = CampaignOptions {
            fault_hook: Some(Arc::new(move |_, _: &Fault| {
                counter.fetch_add(1, Ordering::Relaxed);
            })),
            ..Default::default()
        };
        run_campaign(&c, &seq, &faults, &options);
        assert_eq!(calls.load(Ordering::Relaxed), faults.len());
    }

    #[test]
    fn degrade_ladder_turns_budget_trips_into_partial_verdicts() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let unlimited = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let degraded = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                moa: MoaOptions::default().with_degrade(true),
                budget: FaultBudget::none().with_work_limit(1),
                audit: Some(CampaignAudit::default()),
                ..Default::default()
            },
        );
        assert!(degraded.degraded > 0, "the expansion faults must step down the ladder");
        assert_eq!(
            degraded.budget_exceeded, 0,
            "every budget trip is upgraded to a partial verdict"
        );
        assert_eq!(
            degraded.audit_failed, 0,
            "partial detections carry replayable certificates"
        );
        // Degradation only ever removes detection power: sound.
        assert!(degraded.detected_total() <= unlimited.detected_total());
        // Conventional detections never consume budget.
        assert_eq!(degraded.conventional, unlimited.conventional);
        for status in &degraded.statuses {
            if let FaultStatus::PartialVerdict { work_spent, .. } = status {
                assert!(*work_spent > 0);
            }
        }
        let summary = degraded.partial_summary();
        assert_eq!(summary.partial, degraded.degraded);
        assert_eq!(
            summary.detected + summary.not_detected + summary.unknown,
            summary.partial
        );
        assert!(
            degraded.coverage_lower_bound() <= unlimited.coverage_lower_bound(),
            "the lower bound never exceeds the full-pipeline coverage"
        );
    }

    #[test]
    fn resume_skips_corrupt_checkpoint_records_and_heals_them() {
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let dir = std::env::temp_dir().join("moa-campaign-corrupt-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.checkpoint");
        let _ = std::fs::remove_file(&path);

        let reference = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                ..Default::default()
            },
        );

        // Flip one bit inside the first record's payload, as bit rot might.
        // The body starts after the 12-byte magic and the length-prefixed,
        // checksummed header; the record's tag and length word come first.
        let mut bytes = std::fs::read(&path).unwrap();
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let first_record = 12 + 4 + header_len + 4;
        bytes[first_record + 5 + 8] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();

        let simulated = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&simulated);
        let resumed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                fault_hook: Some(Arc::new(move |index, _fault: &Fault| {
                    seen.lock().unwrap().push(index);
                })),
                ..Default::default()
            },
        );
        assert_eq!(resumed.resume_skipped.len(), 1, "{:?}", resumed.resume_skipped);
        assert_eq!(resumed.resume_skipped[0].record, 1, "the first record");
        let located = format!("record 1 at byte {first_record}: checksum mismatch");
        assert!(resumed.resume_skipped[0].message.contains(&located));
        assert_eq!(
            *simulated.lock().unwrap(),
            vec![0],
            "only the damaged record's fault re-simulates; the records after it load"
        );
        assert_eq!(reference, resumed, "the skipped record is simply re-simulated");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn dying_and_unspawned_workers_lose_no_fault() {
        use crate::failpoint::{self, ChaosSchedule, FailAction, SitePlan};
        let _serial = failpoint::test_lock();
        failpoint::clear();
        let (c, seq) = toggle();
        let faults = full_fault_list(&c);
        let options = CampaignOptions {
            threads: 4,
            ..Default::default()
        };
        let clean = run_campaign(&c, &seq, &faults, &options);
        // p=1.0 makes the outcome schedule-independent: the first two spawn
        // attempts are refused and the first two workers to reach the run
        // site die, regardless of thread interleaving.
        failpoint::install(
            ChaosSchedule::empty(11)
                .with_site(
                    "fp/campaign.worker.spawn",
                    SitePlan::new(1.0, vec![FailAction::Error]).with_max_fires(2),
                )
                .with_site(
                    "fp/campaign.worker.run",
                    SitePlan::new(1.0, vec![FailAction::Panic]).with_max_fires(2),
                ),
        );
        let chaotic = run_campaign(&c, &seq, &faults, &options);
        let combos = failpoint::fired_combos();
        failpoint::clear();
        assert_eq!(clean, chaotic, "worker deaths must not change any verdict");
        assert_eq!(combos.len(), 2, "{combos:?}");
    }

    #[test]
    fn fully_untestable_fault_list_finishes_with_zero_gate_evals() {
        // Both proof kinds in one netlist: `w` is a dead cone (unobservable)
        // and `x` is statically constant 0 but observable through `z`. A
        // fault list holding only proven faults must finish without a single
        // gate evaluation — no screening, no good-trace frames, no per-fault
        // simulation.
        let mut b = CircuitBuilder::new("allproven");
        b.add_input("a").unwrap();
        b.add_input("r").unwrap();
        b.add_gate(GateKind::Not, "na", &["a"]).unwrap();
        b.add_gate(GateKind::And, "x", &["a", "na"]).unwrap();
        b.add_gate(GateKind::Not, "w", &["a"]).unwrap();
        b.add_gate(GateKind::Or, "z", &["r", "x"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["00", "10", "01"]).unwrap();
        let w = c.find_net("w").unwrap();
        let x = c.find_net("x").unwrap();
        let faults = vec![
            Fault::stem(w, false),
            Fault::stem(w, true),
            Fault::stem(x, false),
        ];
        let result = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                prune_untestable: true,
                ..Default::default()
            },
        );
        assert_eq!(result.untestable, faults.len());
        assert_eq!(result.detected_total(), 0);
        assert_eq!(result.perf.gate_evals, 0, "{:?}", result.perf);
        let tags: Vec<String> = result
            .statuses
            .iter()
            .map(|s| match s {
                FaultStatus::Untestable { proof } => proof.tag(),
                other => panic!("expected Untestable, got {other:?}"),
            })
            .collect();
        assert_eq!(tags, ["unobservable", "unobservable", "constant-0"]);
    }

    #[test]
    fn screened_pruned_full_list_campaign_matches_the_per_fault_procedure() {
        // Untestable proofs carry member-specific payload (the constant
        // value, the proof tag) and are decided per fault before the screen,
        // so a class whose members were pruned apart must not leak a shared
        // screen verdict onto a pruned slot.
        let mut b = CircuitBuilder::new("deadend");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate(GateKind::And, "m", &["a", "b"]).unwrap();
        b.add_gate(GateKind::Buf, "dead", &["m"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["a"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["00", "11", "10"]).unwrap();
        let faults = full_fault_list(&c);
        let options = CampaignOptions {
            prune_untestable: true,
            ..Default::default()
        };
        let screened = run_campaign(&c, &seq, &faults, &options);
        assert_matches_per_fault(&c, &seq, &faults, &options, &screened);
        assert!(screened.untestable > 0, "the dead cone must be pruned");
        assert!(screened.conventional > 0, "the screen decided some faults");
    }

    /// The screen spends one lane per structural equivalence class of the
    /// pending list: its gate evaluations equal those of screening the
    /// class representatives alone, and every member gets exactly the
    /// verdict an unshared screen of the whole list gives it.
    #[test]
    fn screen_shares_one_lane_per_equivalence_class() {
        let e = moa_circuits::suite::entry("s208").unwrap();
        let c = e.build();
        let seq = moa_tpg::random_sequence(&c, 16, 7);
        let good = simulate(&c, &seq, None);
        let faults = full_fault_list(&c);
        let reps = collapse_faults(&c, &faults).representatives().to_vec();
        assert!(reps.len() + 64 <= faults.len(), "the classes save whole words");

        let options = CampaignOptions::new();
        let all: Vec<usize> = (0..faults.len()).collect();
        let mut shared = PerfCounters::new();
        let screened = screen_pending(&c, &seq, &good, &faults, &options, &all, &mut shared);
        let reps_only = screen_faults_wide(&c, &seq, &good, &reps, ScreenLanes::L64, 1);
        assert_eq!(shared.gate_evals, reps_only.gate_evaluations);

        let unshared = screen_faults_wide(&c, &seq, &good, &faults, ScreenLanes::L64, 1);
        assert!(unshared.gate_evaluations > shared.gate_evals);
        let mut skips = 0;
        for (i, verdict) in screened.iter().enumerate() {
            let expected = match unshared.detections[i] {
                Some(det) => Some(FaultStatus::DetectedConventional(det)),
                None if !unshared.condition_c[i] => Some(FaultStatus::SkippedConditionC),
                None => None,
            };
            skips += usize::from(matches!(verdict, Some(FaultStatus::SkippedConditionC)));
            assert_eq!(*verdict, expected, "fault {i}: {}", faults[i]);
        }
        assert!(skips > 0, "the shared (C) bits were exercised");
    }
}
