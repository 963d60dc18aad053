//! Fault simulation under the restricted multiple observation time approach
//! using state expansion and **backward implications**.
//!
//! This crate implements the core contribution of
//!
//! > I. Pomeranz and S. M. Reddy, *"Fault Simulation under the Multiple
//! > Observation Time Approach using Backward Implications"*, DAC 1997,
//!
//! on top of the [`moa_netlist`] / [`moa_sim`] substrates:
//!
//! - [`imply::FrameContext`] — the single-time-frame implication engine
//!   (one outputs→inputs justification pass, one inputs→outputs propagation
//!   pass, with stuck-at fault injection),
//! - [`collect_pairs`] — Section 3.1: per `(u, i, α)` records of conflicts,
//!   detections and extra specified state variables,
//! - [`detection_from_collection`] — Section 3.2: faults proven detected by
//!   implications alone,
//! - [`expand`] — Section 3.3 / Procedure 2: forced assignments plus limited
//!   state expansion under the `N_out`/`N_sv`/`N_extra` selection criteria,
//! - [`resimulate`] — Section 3.4: marked-time-unit resimulation dropping
//!   each expanded sequence on detection or infeasibility,
//! - [`simulate_fault`] — Procedure 1, tying the steps together,
//! - [`run_campaign`] — whole-fault-list driver (with the necessary
//!   condition (C) filter, Table-3 counters and optional multithreading),
//! - [`exact_moa_check`] — an exhaustive ground-truth checker for circuits
//!   with few flip-flops, used to validate soundness in tests.
//!
//! # Robustness layer
//!
//! Long campaigns over large fault lists get a resilience toolkit:
//!
//! - [`FaultBudget`] / [`BudgetMeter`] — per-fault wall-clock deadlines and
//!   work-unit ceilings, threaded through collection, expansion and
//!   resimulation; an over-budget fault yields the sound
//!   [`FaultStatus::BudgetExceeded`] verdict (its conventional-simulation
//!   result stands, MOA gains are forfeited),
//! - panic isolation — each fault's worker runs under `catch_unwind`; a
//!   crashing fault becomes [`FaultStatus::Faulted`] instead of killing the
//!   campaign,
//! - [`write_checkpoint_v2`] / [`read_checkpoint`] — a checksummed binary
//!   sidecar format (v2) for interrupt/resume of campaigns (see
//!   [`CampaignOptions::checkpoint`]); the same format carries shard files
//!   and spool results,
//! - [`Error`] and the fallible entry points [`try_simulate_fault_with`] /
//!   [`try_run_campaign`] — structured errors instead of panics for invalid
//!   inputs and checkpoint problems,
//! - [`DetectionCertificate`] / [`audit_certificate`] — self-auditing
//!   detections: every detection path can emit a machine-checkable
//!   certificate ([`simulate_fault_certified`]), validated by exhaustive
//!   two-valued replay; campaigns in audit mode
//!   ([`CampaignOptions::audit`]) quarantine any refuted detection as
//!   [`FaultStatus::AuditFailed`] instead of reporting it,
//! - [`shard`] — crash-safe sharded campaigns: a deterministic fault-list
//!   [`partition`], [`run_sharded`] on the calling thread, one v2
//!   checkpoint file per shard and an integrity-verified [`merge_shards`]
//!   proven bit-identical to the unsharded run,
//! - [`dispatch`] — the one shard supervisor: the lease table
//!   ([`Dispatcher`]) with retries, backoff and quarantine, behind both
//!   [`run_sharded`] and the daemon ([`serve`]), whose shards run either on
//!   the job's worker thread or on remote `moa work` processes.
//!
//! The expansion-only baseline of the paper's reference \[4] is the same
//! pipeline with [`MoaOptions::baseline`] (backward implications disabled).
//!
//! # Example
//!
//! ```
//! use moa_core::{simulate_fault, FaultStatus, MoaOptions};
//! use moa_netlist::{parse_bench, Fault};
//! use moa_sim::{simulate, TestSequence};
//!
//! // r=0 resets q, so the good machine outputs x,0,0. With r stuck-at-1 the
//! // faulty machine toggles forever from an unknown state: conventional
//! // simulation sees only X, yet *every* faulty initial state mismatches the
//! // reset response somewhere — a multiple-observation-time detection.
//! let c = parse_bench(
//!     "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
//! )?;
//! let seq = TestSequence::from_words(&["0", "0", "0"])?;
//! let good = simulate(&c, &seq, None);
//! let fault = Fault::stem(c.find_net("r").unwrap(), true);
//! let result = simulate_fault(&c, &seq, &good, &fault, &MoaOptions::default());
//! assert!(result.status.is_extra_detected());
//! assert!(!matches!(result.status, FaultStatus::DetectedConventional(_)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The campaign engine must not die on a recoverable condition: library code
// reports via `Error` / `FaultStatus` instead of unwrapping (tests are free
// to unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(unsafe_code)]

/// Crate-internal chaos-injection site. `fail_hit!("fp/...")` marks a code
/// path for deterministic failure injection; `fail_hit!("fp/...", meter)`
/// additionally exposes the fault's [`BudgetMeter`] so a firing site can
/// inflate its work spend. With the `failpoints` feature off this expands
/// to nothing — zero code, zero strings in the binary.
///
/// Must be defined before the `mod` declarations below (textual scoping).
#[cfg(feature = "failpoints")]
macro_rules! fail_hit {
    ($site:literal) => {
        $crate::failpoint::apply($site, None)
    };
    ($site:literal, $meter:expr) => {
        // Explicit reborrow: `Some(meter)` would move a `&mut` out of the
        // caller's binding.
        $crate::failpoint::apply($site, Some(&mut *$meter))
    };
}
#[cfg(not(feature = "failpoints"))]
macro_rules! fail_hit {
    ($site:literal) => {};
    ($site:literal, $meter:expr) => {};
}

mod audit;
mod budget;
mod campaign;
mod canon;
mod certificate;
mod chain;
mod checkpoint;
mod collect;
mod condition;
mod cones;
mod counters;
mod detect;
pub mod dispatch;
mod error;
mod exact;
mod expand;
mod explain;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod imply;
mod options;
mod procedure;
mod resim;
pub mod serve;
pub mod shard;
pub mod spool;
mod stateseq;

pub use audit::{audit_certificate, AuditStatus};
pub use budget::{BudgetMeter, BudgetStage, FaultBudget};
pub use campaign::{
    run_campaign, try_run_campaign, CampaignAudit, CampaignOptions, CampaignResult, CancelFlag,
    FaultHook, PartialSummary,
};
pub use moa_sim::ScreenLanes;
pub use canon::{
    canonical_circuit_text, canonical_fault_text, request_hash, verdict_digest, CanonHash,
};
pub use certificate::{
    CertificateClaim, CertificateSource, ClaimKind, DetectionCertificate, StateAssignment,
};
pub use checkpoint::{
    read_checkpoint, read_checkpoint_sharded, read_shard, write_checkpoint_v2, CheckpointHeader,
    CheckpointLoad, CheckpointSkip, ShardFile, ShardInfo,
};
pub use collect::{collect_pairs, Collection, PairInfo, PairKey, SideEvidence};
pub use condition::{condition_c_holds, n_out_profile, n_sv_profile};
pub use cones::ConeCache;
pub use counters::{CounterAverages, Counters, PerfCounters};
pub use detect::detection_from_collection;
pub use dispatch::{
    Assignment, Completion, DispatchOptions, DispatchStats, Dispatcher, Heartbeat, JobOutcome,
    Lease,
};
pub use error::Error;
pub use exact::{certificate_cross_check, exact_moa_check, CertificateCrossCheck, ExactOutcome};
pub use expand::{expand, expand_metered, ExpandOutcome};
pub use explain::{explain_fault, Explanation};
pub use options::MoaOptions;
pub use procedure::{
    simulate_fault, simulate_fault_budgeted, simulate_fault_certified, simulate_fault_with,
    try_simulate_fault_with, DegradeStage, FaultResult, FaultStatus, PartialBound,
};
pub use resim::{resimulate, resimulate_metered, ResimVerdict, SequenceOutcome};
pub use serve::{Event, JobStatus, Recovery, ServeOptions, ServeStats, Server, Submit};
pub use shard::{
    merge_shards, partition, run_shard, run_sharded, shard_info, shard_path, MergeOutcome,
    ShardFailure, ShardOptions, ShardRun,
};
pub use spool::{JobEntry, JobSpec, JobState, Spool};
pub use stateseq::StateSequence;

// The static analyses consumed by the procedure (learned implications) and
// the campaign (untestability pruning) live in `moa_analyze`; re-export the
// types that appear in this crate's public API.
pub use moa_analyze::{ImplicationDb, Testability, UntestableProof, UntestableScreen};
