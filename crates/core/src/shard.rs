//! Crash-safe sharded campaigns: partition, supervise, merge.
//!
//! A fault-simulation campaign is embarrassingly partitionable — every
//! per-fault verdict is self-contained — so a large fault list can be split
//! into contiguous *shards*, each run as an independent campaign writing a
//! format-v2 checkpoint file ([`crate::checkpoint`]), and the shard files
//! merged back into one [`CampaignResult`] that is bit-identical to the
//! unsharded run (locked in by tests).
//!
//! Three layers, usable separately:
//!
//! - [`partition`] / [`shard_info`] / [`shard_path`] — the deterministic
//!   fault-list partition and the file-naming convention. Running shard `k`
//!   on one machine and shard `k+1` on another needs nothing more than
//!   agreeing on `(total, shards)`.
//! - [`run_shard`] — one shard as an independent, resumable campaign: the
//!   shard file doubles as its checkpoint, and a damaged file is *healed*
//!   (deleted and re-run from scratch) rather than fatal.
//! - [`run_sharded`] — a local supervisor driving every shard with per-shard
//!   timeouts, bounded retries with exponential backoff, and quarantine of
//!   shards that keep failing (reported in [`ShardRun::quarantined`], never
//!   silently dropped).
//! - [`merge_shards`] — the integrity-verified merge: every record is
//!   checksum-validated ([`read_shard`](crate::checkpoint) is strict),
//!   shard geometry must tile the fault list exactly (no missing, duplicate
//!   or overlapping fault indices), and — when the campaign runs in audit
//!   mode — merged detections are re-validated by certificate replay, so a
//!   corrupted-but-checksum-valid shard cannot smuggle in an unsound
//!   detection.
//!
//! # Crash safety
//!
//! The supervisor gives each attempt its own scratch file
//! (`shard-<k>.attempt-<n>.ckpt`), seeded by copying the best previous file
//! forward, and only *renames* a finished attempt onto the canonical
//! `shard-<k>.ckpt`. A timed-out worker thread cannot be killed in Rust; it
//! is abandoned as a zombie, and because it only ever writes its own
//! attempt's file (atomically, via the checkpoint writer's temp+rename), a
//! zombie finishing late can never corrupt the canonical file or a newer
//! attempt.

use std::fs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use moa_netlist::{Circuit, Fault};
use moa_sim::{simulate, SimTrace, TestSequence};

use crate::audit::{audit_certificate, AuditStatus};
use crate::budget::BudgetMeter;
use crate::campaign::{
    aggregate, panic_message, try_run_campaign, CampaignAudit, CampaignOptions, CampaignResult,
};
use crate::certificate::DetectionCertificate;
use crate::checkpoint::{mismatch_message, read_shard, ShardInfo};
use crate::error::Error;
use crate::procedure::{simulate_fault_certified, FaultResult, FaultStatus, PartialBound};
use crate::MoaOptions;

/// Splits `total` faults into `shards` contiguous, near-equal ranges (the
/// first `total % shards` ranges get one extra fault). Deterministic: the
/// partition depends only on the two numbers, so independently launched
/// shard runners agree on it.
///
/// # Panics
///
/// With `shards == 0`.
pub fn partition(total: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "cannot partition into zero shards");
    let base = total / shards;
    let extra = total % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for k in 0..shards {
        let len = base + usize::from(k < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// The [`ShardInfo`] of shard `shard_id` in the [`partition`] of `total`
/// faults into `shards`.
///
/// # Panics
///
/// With `shards == 0` or `shard_id >= shards`.
pub fn shard_info(total: usize, shards: usize, shard_id: usize) -> ShardInfo {
    assert!(shard_id < shards, "shard id {shard_id} out of range for {shards} shard(s)");
    let range = partition(total, shards)[shard_id].clone();
    ShardInfo {
        shard_id: shard_id as u32,
        shard_count: shards as u32,
        offset: range.start as u64,
        len: range.len() as u64,
        total_faults: total as u64,
    }
}

/// The canonical shard-file path: `<dir>/shard-<shard_id>.ckpt`.
pub fn shard_path(dir: &Path, shard_id: usize) -> PathBuf {
    dir.join(format!("shard-{shard_id}.ckpt"))
}

/// Scratch path for one supervised attempt at a shard.
fn attempt_path(dir: &Path, shard_id: usize, attempt: usize) -> PathBuf {
    dir.join(format!("shard-{shard_id}.attempt-{attempt}.ckpt"))
}

/// Supervision knobs for [`run_sharded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOptions {
    /// Number of shards to partition the fault list into.
    pub shards: usize,
    /// Directory for the shard files (created if missing).
    pub dir: PathBuf,
    /// Wall-clock limit per attempt; a shard still running after this long
    /// is abandoned (its worker thread becomes a detached zombie that can
    /// only touch its own attempt file) and retried. `None` runs each
    /// attempt inline without a limit.
    pub timeout: Option<Duration>,
    /// Retries after the first failed attempt before the shard is
    /// quarantined (so a shard gets `retries + 1` attempts in total).
    pub retries: usize,
    /// Base delay before the first retry; attempt `n`'s delay is
    /// `backoff * 2^(n-1)`, capped by the doubling count.
    pub backoff: Duration,
}

impl ShardOptions {
    /// Supervision of `shards` shards in `dir` with the default policy:
    /// no per-attempt timeout, 5 retries, 10 ms base backoff.
    pub fn new(shards: usize, dir: impl Into<PathBuf>) -> Self {
        ShardOptions {
            shards,
            dir: dir.into(),
            timeout: None,
            retries: 5,
            backoff: Duration::from_millis(10),
        }
    }
}

/// One quarantined shard: what failed and how hard the supervisor tried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The shard that kept failing.
    pub shard_id: usize,
    /// Attempts made (including the first).
    pub attempts: usize,
    /// The last attempt's error.
    pub last_error: String,
}

/// What [`run_sharded`] produced.
#[derive(Debug)]
pub struct ShardRun {
    /// Per-shard campaign results; `None` for quarantined shards.
    pub results: Vec<Option<CampaignResult>>,
    /// Canonical shard files written by the successful shards, in shard
    /// order — the input for [`merge_shards`].
    pub files: Vec<PathBuf>,
    /// Shards that failed every attempt. An empty list means every fault
    /// has a verdict on disk.
    pub quarantined: Vec<ShardFailure>,
    /// Total retry attempts across all shards (reported in
    /// [`PerfCounters::shard_retries`](crate::PerfCounters)).
    pub retries_used: u64,
}

/// Runs shard `shard_id` of `shards` as an independent campaign over its
/// slice of `faults`, writing (and resuming from) the canonical shard file
/// in `dir`.
///
/// `base` supplies the per-fault options; its `checkpoint`, `resume` and
/// `shard` fields are overridden. If the existing shard file is unusable —
/// damaged header, or left behind by a different campaign — it is deleted
/// and the shard re-runs from scratch once, so a corrupt file heals rather
/// than wedging the shard forever.
pub fn run_shard(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    base: &CampaignOptions,
    shards: usize,
    shard_id: usize,
    dir: &Path,
) -> Result<CampaignResult, Error> {
    validate_shard_request(shards, shard_id)?;
    fs::create_dir_all(dir).map_err(|e| Error::Shard {
        shard_id,
        message: format!("cannot create shard directory {}: {e}", dir.display()),
    })?;
    run_shard_at(circuit, seq, faults, base, shards, shard_id, &shard_path(dir, shard_id))
}

fn validate_shard_request(shards: usize, shard_id: usize) -> Result<(), Error> {
    if shards == 0 || shard_id >= shards {
        return Err(Error::Shard {
            shard_id,
            message: format!("shard id {shard_id} out of range for {shards} shard(s)"),
        });
    }
    Ok(())
}

/// [`run_shard`] against an explicit file (the supervisor's per-attempt
/// scratch files). Assumes the request is validated and the directory
/// exists.
#[allow(clippy::too_many_arguments)]
fn run_shard_at(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    base: &CampaignOptions,
    shards: usize,
    shard_id: usize,
    path: &Path,
) -> Result<CampaignResult, Error> {
    fail_hit!("fp/shard.run");
    let info = shard_info(faults.len(), shards, shard_id);
    let slice = &faults[info.offset as usize..(info.offset + info.len) as usize];
    let mut opts = base.clone();
    opts.checkpoint = Some(path.to_owned());
    opts.resume = path.exists();
    opts.shard = Some(info);
    let first = try_run_campaign(circuit, seq, slice, &opts);
    match first {
        // A resume that dies on the checkpoint itself (damaged header, or a
        // file from some other campaign) heals: drop the file, run fresh.
        // Lesser damage never lands here — the resume reader skips corrupt
        // records with a warning and re-simulates those faults.
        Err(Error::Checkpoint { .. }) if opts.resume => {
            let _ = fs::remove_file(path);
            opts.resume = false;
            try_run_campaign(circuit, seq, slice, &opts)
        }
        other => other,
    }
}

/// Runs every shard of the [`partition`] under supervision: per-attempt
/// timeouts, bounded retries with exponential backoff, quarantine after the
/// retries are exhausted. Quarantined shards are *reported*; the other
/// shards still run to completion, so a single pathological shard cannot
/// take the campaign down.
///
/// Pair with [`merge_shards`] (which insists on a complete partition) to
/// recover the unsharded campaign's exact result.
pub fn run_sharded(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    base: &CampaignOptions,
    options: &ShardOptions,
) -> Result<ShardRun, Error> {
    validate_shard_request(options.shards, 0)?;
    fs::create_dir_all(&options.dir).map_err(|e| Error::Shard {
        shard_id: 0,
        message: format!("cannot create shard directory {}: {e}", options.dir.display()),
    })?;
    // One owned copy of the inputs, shared with worker threads. Timed-out
    // workers outlive their attempt (zombies), so borrows are not enough.
    let shared = Arc::new(SharedInputs {
        circuit: circuit.clone(),
        seq: seq.clone(),
        faults: faults.to_vec(),
        base: base.clone(),
        shards: options.shards,
    });
    let mut run = ShardRun {
        results: Vec::with_capacity(options.shards),
        files: Vec::new(),
        quarantined: Vec::new(),
        retries_used: 0,
    };
    // Cooperative cancellation (the daemon's drain, an operator interrupt):
    // checked before each shard launches, and honored mid-shard because the
    // per-shard campaign carries the same probe. Completed shards keep their
    // published files; an interrupted shard publishes its partial checkpoint
    // so a rerun resumes it instead of restarting.
    let done_so_far = |run: &ShardRun| -> usize {
        run.results
            .iter()
            .flatten()
            .map(|r| r.total_faults)
            .sum()
    };
    for shard_id in 0..options.shards {
        if base.cancel.as_ref().is_some_and(|probe| probe()) {
            return Err(Error::Interrupted {
                completed: done_so_far(&run),
                total: faults.len(),
            });
        }
        let canonical = shard_path(&options.dir, shard_id);
        let attempts = options.retries + 1;
        let mut outcome = None;
        let mut last_error = String::new();
        for attempt in 1..=attempts {
            let scratch = attempt_path(&options.dir, shard_id, attempt);
            seed_attempt(&canonical, &options.dir, shard_id, attempt, &scratch);
            match run_attempt(&shared, shard_id, &scratch, options.timeout) {
                Ok(result) => {
                    // Publish atomically: the canonical file changes only
                    // here, never under a worker's pen.
                    match fs::rename(&scratch, &canonical) {
                        Ok(()) => {
                            outcome = Some(result);
                            break;
                        }
                        Err(e) => {
                            last_error =
                                format!("cannot publish shard file {}: {e}", canonical.display());
                        }
                    }
                }
                // An interrupted attempt is not a failure: the worker
                // checkpointed and stopped on request. Publish the partial
                // file (it seeds the rerun's resume) and stop supervising —
                // retrying would defeat the cancellation.
                Err(Error::Interrupted { completed, .. }) => {
                    let _ = fs::rename(&scratch, &canonical);
                    for n in 1..=attempts {
                        let _ = fs::remove_file(attempt_path(&options.dir, shard_id, n));
                    }
                    return Err(Error::Interrupted {
                        completed: done_so_far(&run) + completed,
                        total: faults.len(),
                    });
                }
                Err(e) => last_error = e.to_string(),
            }
            if attempt < attempts {
                run.retries_used += 1;
                thread::sleep(backoff_delay(options.backoff, attempt));
            }
        }
        for attempt in 1..=attempts {
            let _ = fs::remove_file(attempt_path(&options.dir, shard_id, attempt));
        }
        if let Some(result) = outcome {
            run.files.push(canonical);
            run.results.push(Some(result));
        } else {
            run.quarantined.push(ShardFailure {
                shard_id,
                attempts,
                last_error,
            });
            run.results.push(None);
        }
    }
    Ok(run)
}

struct SharedInputs {
    circuit: Circuit,
    seq: TestSequence,
    faults: Vec<Fault>,
    base: CampaignOptions,
    shards: usize,
}

/// The delay before retrying after failed attempt `attempt` (1-based):
/// `base * 2^(attempt-1)`, with the doubling capped at `2^16` so large
/// retry counts cannot overflow the shift, and the product saturating.
/// Shared by the in-process shard supervisor and the dispatch lease table.
pub(crate) fn backoff_delay(base: Duration, attempt: usize) -> Duration {
    base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
}

/// Copies the best prior state onto this attempt's scratch file so a retry
/// resumes instead of restarting: the canonical file if one was ever
/// published, else the most recent earlier attempt's leftovers.
fn seed_attempt(canonical: &Path, dir: &Path, shard_id: usize, attempt: usize, scratch: &Path) {
    let _ = fs::remove_file(scratch);
    let seed = if canonical.exists() {
        Some(canonical.to_owned())
    } else {
        (1..attempt)
            .rev()
            .map(|n| attempt_path(dir, shard_id, n))
            .find(|p| p.exists())
    };
    if let Some(seed) = seed {
        // Best effort: an unreadable seed just means a fresh start.
        let _ = fs::copy(seed, scratch);
    }
}

/// One supervised attempt. Panics become [`Error::Shard`]; with a timeout
/// the attempt runs on a watched thread and an overdue worker is abandoned.
fn run_attempt(
    shared: &Arc<SharedInputs>,
    shard_id: usize,
    path: &Path,
    timeout: Option<Duration>,
) -> Result<CampaignResult, Error> {
    let run = move |inputs: &SharedInputs, path: &Path| {
        run_shard_at(
            &inputs.circuit,
            &inputs.seq,
            &inputs.faults,
            &inputs.base,
            inputs.shards,
            shard_id,
            path,
        )
    };
    let Some(limit) = timeout else {
        return flatten_attempt(shard_id, catch_unwind(AssertUnwindSafe(|| run(shared, path))));
    };
    let (tx, rx) = mpsc::channel();
    let worker_inputs = Arc::clone(shared);
    let worker_path = path.to_owned();
    let spawned = thread::Builder::new()
        .name(format!("moa-shard-{shard_id}"))
        .spawn(move || {
            let result =
                catch_unwind(AssertUnwindSafe(|| run(&worker_inputs, &worker_path)));
            let _ = tx.send(result);
        });
    if let Err(e) = spawned {
        return Err(Error::Shard {
            shard_id,
            message: format!("cannot spawn shard worker: {e}"),
        });
    }
    match rx.recv_timeout(limit) {
        Ok(result) => flatten_attempt(shard_id, result),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Error::Shard {
            shard_id,
            message: format!("timed out after {limit:?}"),
        }),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(Error::Shard {
            shard_id,
            message: "shard worker died without reporting a result".into(),
        }),
    }
}

type AttemptOutcome = Result<Result<CampaignResult, Error>, Box<dyn std::any::Any + Send>>;

fn flatten_attempt(shard_id: usize, outcome: AttemptOutcome) -> Result<CampaignResult, Error> {
    match outcome {
        Ok(inner) => inner,
        Err(payload) => Err(Error::Shard {
            shard_id,
            message: format!("shard worker panicked: {}", panic_message(payload.as_ref())),
        }),
    }
}

/// What [`merge_shards`] produced.
#[derive(Debug)]
pub struct MergeOutcome {
    /// The merged campaign result — bit-identical to the unsharded run.
    pub result: CampaignResult,
    /// Fault records merged across all shard files.
    pub records: usize,
    /// Detections re-validated by certificate replay (0 without
    /// [`CampaignOptions::audit`]).
    pub audited: usize,
}

/// Merges a complete set of shard files back into one [`CampaignResult`],
/// verifying integrity at every level:
///
/// - each file is read **strictly** — any checksum failure, torn frame or
///   malformed record is a located [`Error::Checkpoint`], never silently
///   skipped;
/// - every file must carry this campaign's identity (circuit name, total
///   fault count, sequence length) and the same shard count;
/// - the shard ranges must tile `[0, total)` exactly — overlapping shards
///   (duplicate fault ids), gaps, duplicate shard ids, and missing records
///   within a shard are all [`Error::Merge`]s naming the offending fault;
/// - with [`CampaignOptions::audit`] set, merged detections are replayed
///   through the certificate audit ([`audit_certificate`]) at the audit's
///   sample rate; a refuted detection aborts the merge (a shard file that
///   checksums clean but lies about a detection cannot get through).
///
/// The merged result equals the unsharded campaign's (locked by tests);
/// only the wall-clock `perf` instrumentation, which equality already
/// ignores, is left zeroed.
pub fn merge_shards(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    options: &CampaignOptions,
    files: &[PathBuf],
) -> Result<MergeOutcome, Error> {
    let merr = |message: String| Error::Merge { message };
    if files.is_empty() {
        return Err(merr("no shard files to merge".into()));
    }
    let total = faults.len();
    let mut shards = Vec::with_capacity(files.len());
    for path in files {
        let file = read_shard(path)?;
        let want = crate::checkpoint::CheckpointHeader {
            circuit: circuit.name().to_owned(),
            total_faults: total,
            seq_len: seq.len(),
        };
        if file.header != want {
            return Err(merr(format!(
                "{}: {}",
                path.display(),
                mismatch_message(&file.header, &want)
            )));
        }
        shards.push((path, file));
    }
    let shard_count = shards[0].1.shard.shard_count;
    if shards.iter().any(|(_, f)| f.shard.shard_count != shard_count) {
        return Err(merr(format!(
            "shard files disagree on the shard count: {:?}",
            shards.iter().map(|(_, f)| f.shard.shard_count).collect::<Vec<_>>()
        )));
    }
    if shards.len() != shard_count as usize {
        return Err(merr(format!(
            "incomplete partition: {} shard file(s) for a {shard_count}-shard campaign",
            shards.len()
        )));
    }

    // The ranges must tile [0, total) exactly: sorted by offset, each
    // non-empty range starts where the previous one ended. A gap loses
    // faults; an overlap would record some fault twice.
    let mut ids_seen = vec![false; shard_count as usize];
    for (path, file) in &shards {
        let id = file.shard.shard_id as usize;
        if ids_seen[id] {
            return Err(merr(format!(
                "{}: duplicate file for shard {id}",
                path.display()
            )));
        }
        ids_seen[id] = true;
    }
    let mut ordered: Vec<&ShardInfo> = shards.iter().map(|(_, f)| &f.shard).collect();
    ordered.sort_by_key(|s| (s.offset, s.len));
    let mut next = 0u64;
    for info in ordered {
        if info.len == 0 {
            continue;
        }
        if info.offset != next {
            return Err(merr(if info.offset > next {
                format!(
                    "shard ranges leave a gap: no shard covers faults [{next}, {})",
                    info.offset
                )
            } else {
                format!(
                    "shard ranges overlap at fault {}: fault ids would be duplicated",
                    info.offset
                )
            }));
        }
        next = info.offset + info.len;
    }
    if next != total as u64 {
        return Err(merr(format!(
            "shard ranges leave a gap: no shard covers faults [{next}, {total})"
        )));
    }

    // Fill the global slots. Strict reading already guarantees in-range,
    // unique indices per file, and the tiling check rules out cross-file
    // duplicates; the slot check below is the belt to those braces.
    let mut slots: Vec<Option<FaultResult>> = vec![None; total];
    let mut records = 0usize;
    for (path, file) in &shards {
        for (global, result) in &file.records {
            let slot = &mut slots[*global as usize];
            if slot.is_some() {
                return Err(merr(format!(
                    "{}: fault {global} already has a record from another shard",
                    path.display()
                )));
            }
            *slot = Some(result.clone());
            records += 1;
        }
        if file.records.len() as u64 != file.shard.len {
            let missing = (0..file.shard.len)
                .map(|l| file.shard.offset + l)
                .find(|g| slots[*g as usize].is_none());
            return Err(merr(format!(
                "{}: shard {} is missing fault records ({} of {}{})",
                path.display(),
                file.shard.shard_id,
                file.shard.len - file.records.len() as u64,
                file.shard.len,
                missing.map_or(String::new(), |g| format!(", first missing fault {g}")),
            )));
        }
    }
    let results: Vec<FaultResult> = slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.ok_or_else(|| merr(format!("fault {index} has no record in any shard")))
        })
        .collect::<Result<_, _>>()?;

    let audited = match &options.audit {
        Some(audit) => replay_audits(circuit, seq, faults, &options.moa, audit, &results)?,
        None => 0,
    };
    Ok(MergeOutcome {
        result: aggregate(circuit, total, results),
        records,
        audited,
    })
}

/// Replays the certificate audit over the merged detections: for each
/// sampled detected fault, reconstruct (or re-derive) its certificate and
/// validate it by concrete replay. Returns how many detections were
/// audited; a refutation is an [`Error::Merge`].
fn replay_audits(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    moa: &MoaOptions,
    audit: &CampaignAudit,
    results: &[FaultResult],
) -> Result<usize, Error> {
    let good = simulate(circuit, seq, None);
    let rate = audit.sample_rate.max(1);
    let mut audited = 0;
    for (index, result) in results.iter().enumerate() {
        if !result.status.is_detected() || !index.is_multiple_of(rate) {
            continue;
        }
        // Chaos sites inside the per-fault procedure may fire during the
        // replay; contain a panic as a (retryable) merge error instead of
        // taking the merge down.
        let replay = catch_unwind(AssertUnwindSafe(|| {
            replay_one(circuit, seq, &good, &faults[index], moa, audit, &result.status)
        }));
        let verdict = match replay {
            Ok(verdict) => verdict,
            Err(payload) => Replay::Transient(format!(
                "audit replay of fault {index} panicked: {}",
                panic_message(payload.as_ref())
            )),
        };
        match verdict {
            Replay::Clean => audited += 1,
            Replay::Refuted(reason) => {
                return Err(Error::Merge {
                    message: format!("audit replay refuted detection of fault {index}: {reason}"),
                })
            }
            Replay::Transient(message) => return Err(Error::Merge { message }),
        }
    }
    Ok(audited)
}

enum Replay {
    Clean,
    Refuted(String),
    Transient(String),
}

/// Audits one merged detection. Re-derivation runs with an *unlimited*
/// budget and degradation off: with fixed options, a budget only truncates
/// the procedure, so the unlimited replay deterministically supersedes
/// whatever limited run produced the shard record — a genuine detection
/// must re-derive, and a fabricated one cannot.
fn replay_one(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    moa: &MoaOptions,
    audit: &CampaignAudit,
    status: &FaultStatus,
) -> Replay {
    let check = |certificate: Option<&DetectionCertificate>| match certificate {
        None => Replay::Refuted("re-simulation produced no certificate".into()),
        Some(cert) => {
            match audit_certificate(circuit, seq, good, fault, cert, &audit.options) {
                AuditStatus::Refuted { reason } => Replay::Refuted(reason),
                // Confirmed, or inconclusive (audit cap): same policy as the
                // in-campaign audit — only a refutation is damning.
                _ => Replay::Clean,
            }
        }
    };
    match status {
        FaultStatus::DetectedConventional(det) => {
            check(Some(&DetectionCertificate::conventional(det, good)))
        }
        FaultStatus::DetectedByImplications(_)
        | FaultStatus::DetectedByForcedAssignments
        | FaultStatus::DetectedByExpansion { .. } => {
            let options = MoaOptions {
                degrade: false,
                degrade_adaptive: false,
                ..moa.clone()
            };
            let mut meter = BudgetMeter::unlimited();
            let (result, certificate) =
                simulate_fault_certified(circuit, seq, good, fault, &options, None, &mut meter);
            if !result.status.is_detected() {
                return Replay::Refuted(format!(
                    "unlimited re-simulation did not detect the fault (got {:?})",
                    result.status
                ));
            }
            check(certificate.as_ref())
        }
        FaultStatus::PartialVerdict {
            lower_bound: PartialBound::Detected { .. },
            ..
        } => {
            // The detection came from the degradation ladder's fallback
            // rung; replay under that rung's (weaker) options.
            let capped = moa
                .max_frontier_states
                .map_or(moa.n_states, |cap| cap.min(moa.n_states));
            let options = MoaOptions {
                backward_implications: false,
                static_learning: false,
                n_states: (capped / 2).max(1),
                max_frontier_states: None,
                degrade: false,
                degrade_adaptive: false,
                ..moa.clone()
            };
            let mut meter = BudgetMeter::unlimited();
            let (result, certificate) =
                simulate_fault_certified(circuit, seq, good, fault, &options, None, &mut meter);
            if !result.status.is_detected() {
                return Replay::Refuted(format!(
                    "unlimited expansion-only re-simulation did not detect the fault (got {:?})",
                    result.status
                ));
            }
            check(certificate.as_ref())
        }
        // is_detected() covers exactly the arms above.
        _ => Replay::Clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::FaultBudget;
    use crate::campaign::run_campaign;
    use moa_netlist::{full_fault_list, parse_bench};

    fn toggle() -> Circuit {
        parse_bench(
            "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
        )
        .expect("valid bench")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "moa-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn backoff_doubles_per_attempt_and_caps_at_two_to_the_sixteenth() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff_delay(base, 0), base, "attempt 0 saturates to the base");
        assert_eq!(backoff_delay(base, 1), base);
        assert_eq!(backoff_delay(base, 2), base * 2);
        assert_eq!(backoff_delay(base, 17), base * (1 << 16));
        assert_eq!(backoff_delay(base, 1000), base * (1 << 16), "the doubling is capped");
        assert_eq!(backoff_delay(Duration::MAX, 3), Duration::MAX, "the product saturates");
    }

    #[test]
    fn partition_is_contiguous_near_equal_and_deterministic() {
        for total in [0usize, 1, 7, 64, 65, 1000] {
            for shards in [1usize, 2, 3, 7, 64, 100] {
                let ranges = partition(total, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges, partition(total, shards), "deterministic");
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    next = r.end;
                }
                assert_eq!(next, total, "covers the whole list");
                let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "near-equal: {lens:?}");
            }
        }
    }

    #[test]
    fn shard_info_matches_partition() {
        let info = shard_info(10, 3, 1);
        assert_eq!(info.shard_id, 1);
        assert_eq!(info.shard_count, 3);
        assert_eq!(info.offset, 4);
        assert_eq!(info.len, 3);
        assert_eq!(info.total_faults, 10);
    }

    #[test]
    fn sharded_run_merges_bit_identical_to_unsharded() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let base = CampaignOptions {
            audit: Some(CampaignAudit::default()),
            ..CampaignOptions::new()
        };
        let unsharded = run_campaign(&c, &seq, &faults, &base);
        for shards in [1usize, 3, faults.len() + 3] {
            let dir = temp_dir(&format!("identical-{shards}"));
            let options = ShardOptions::new(shards, &dir);
            let run = run_sharded(&c, &seq, &faults, &base, &options).expect("supervise");
            assert!(run.quarantined.is_empty(), "{:?}", run.quarantined);
            assert_eq!(run.retries_used, 0);
            assert_eq!(run.files.len(), shards);
            let merged =
                merge_shards(&c, &seq, &faults, &base, &run.files).expect("merge");
            assert_eq!(merged.result, unsharded, "{shards} shards");
            assert_eq!(merged.records, faults.len());
            assert!(merged.audited > 0, "audit replay must have run");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn collapsed_sharded_run_merges_bit_identical_to_plain_unsharded() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        // Reference: no collapse, no shards. Each shard collapses its own
        // slice of the fault list (the partial-list-safe case), so the merge
        // must still reproduce the plain campaign bit-identically, with
        // exactly one record per original fault.
        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let base = CampaignOptions {
            collapse: true,
            audit: Some(CampaignAudit::default()),
            ..CampaignOptions::new()
        };
        for shards in [1usize, 3] {
            let dir = temp_dir(&format!("collapse-{shards}"));
            let options = ShardOptions::new(shards, &dir);
            let run = run_sharded(&c, &seq, &faults, &base, &options).expect("supervise");
            assert!(run.quarantined.is_empty(), "{:?}", run.quarantined);
            let merged = merge_shards(&c, &seq, &faults, &base, &run.files).expect("merge");
            assert_eq!(merged.result, plain, "{shards} shard(s)");
            assert_eq!(merged.records, faults.len(), "one record per original fault");
            assert_eq!(merged.result.audit_failed, 0);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn single_shard_runs_resume_and_merge() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let base = CampaignOptions::new();
        let dir = temp_dir("single");
        // Run the two shards one at a time, as separate CLI-style
        // invocations would; re-running one resumes from its file.
        for shard_id in 0..2 {
            run_shard(&c, &seq, &faults, &base, 2, shard_id, &dir).expect("shard");
        }
        let rerun = run_shard(&c, &seq, &faults, &base, 2, 0, &dir).expect("resumed shard");
        assert!(rerun.resume_skipped.is_empty());
        let files: Vec<PathBuf> = (0..2).map(|k| shard_path(&dir, k)).collect();
        let merged = merge_shards(&c, &seq, &faults, &base, &files).expect("merge");
        assert_eq!(merged.result, run_campaign(&c, &seq, &faults, &base));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_sharded_run_resumes_bit_identical_after_rerun() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let unsharded = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let dir = temp_dir("cancel");
        let options = ShardOptions::new(3, &dir);

        // The probe is polled by the supervisor (before each shard) and by
        // each shard's campaign (before each batch); tripping it after a few
        // polls lands the interrupt mid-run, wherever that happens to be.
        let polls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let probe_polls = std::sync::Arc::clone(&polls);
        let base = CampaignOptions {
            checkpoint_every: 2,
            threads: 1,
            cancel: Some(std::sync::Arc::new(move || {
                probe_polls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= 2
            })),
            ..CampaignOptions::new()
        };
        let err = run_sharded(&c, &seq, &faults, &base, &options)
            .expect_err("the tripped probe must interrupt the supervisor");
        assert!(matches!(err, Error::Interrupted { .. }), "{err}");

        // Rerun without the probe: published shard files (complete and
        // partial alike) seed resumes, and the merge is bit-identical.
        let base = CampaignOptions {
            checkpoint_every: 2,
            ..CampaignOptions::new()
        };
        let run = run_sharded(&c, &seq, &faults, &base, &options).expect("rerun");
        assert!(run.quarantined.is_empty(), "{:?}", run.quarantined);
        let merged = merge_shards(&c, &seq, &faults, &base, &run.files).expect("merge");
        assert_eq!(merged.result, unsharded);
        assert_eq!(merged.records, faults.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shard_file_is_rejected_with_a_located_error_and_heals() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let base = CampaignOptions::new();
        let dir = temp_dir("corrupt");
        for shard_id in 0..2 {
            run_shard(&c, &seq, &faults, &base, 2, shard_id, &dir).expect("shard");
        }
        // Flip one bit inside the body of shard 1's file: the record's CRC
        // must catch it and name the record.
        let victim = shard_path(&dir, 1);
        let mut bytes = fs::read(&victim).expect("read shard file");
        let flip = bytes.len() - 20;
        bytes[flip] ^= 0x01;
        fs::write(&victim, &bytes).expect("write corrupted file");
        let files: Vec<PathBuf> = (0..2).map(|k| shard_path(&dir, k)).collect();
        let err = merge_shards(&c, &seq, &faults, &base, &files)
            .expect_err("corrupt shard must not merge");
        let message = err.to_string();
        assert!(
            message.contains("checksum mismatch")
                || message.contains("record")
                || message.contains("trailer"),
            "error must locate the damage: {message}"
        );
        // Healing is re-running the shard: the campaign-level resume skips
        // the corrupt records and re-simulates, then rewrites the file.
        run_shard(&c, &seq, &faults, &base, 2, 1, &dir).expect("healing re-run");
        let merged = merge_shards(&c, &seq, &faults, &base, &files).expect("merge after heal");
        assert_eq!(merged.result, run_campaign(&c, &seq, &faults, &base));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_file_is_rejected_then_heals() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let base = CampaignOptions::new();
        let dir = temp_dir("truncate");
        run_shard(&c, &seq, &faults, &base, 1, 0, &dir).expect("shard");
        let victim = shard_path(&dir, 0);
        let bytes = fs::read(&victim).expect("read shard file");
        fs::write(&victim, &bytes[..bytes.len() - 7]).expect("truncate file");
        let files = vec![victim.clone()];
        let err = merge_shards(&c, &seq, &faults, &base, &files)
            .expect_err("truncated shard must not merge");
        assert!(err.to_string().contains("torn"), "located: {err}");
        run_shard(&c, &seq, &faults, &base, 1, 0, &dir).expect("healing re-run");
        merge_shards(&c, &seq, &faults, &base, &files).expect("merge after heal");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_incomplete_or_overlapping_partitions() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let base = CampaignOptions::new();
        let dir = temp_dir("tiling");
        for shard_id in 0..3 {
            run_shard(&c, &seq, &faults, &base, 3, shard_id, &dir).expect("shard");
        }
        let files: Vec<PathBuf> = (0..3).map(|k| shard_path(&dir, k)).collect();
        let err = merge_shards(&c, &seq, &faults, &base, &files[..2])
            .expect_err("missing shard file");
        assert!(err.to_string().contains("incomplete partition"), "{err}");
        let err = merge_shards(&c, &seq, &faults, &base, &[files[0].clone(), files[0].clone(), files[2].clone()])
            .expect_err("duplicate shard file");
        assert!(err.to_string().contains("duplicate file for shard 0"), "{err}");
        // A shard file from a different partition must be refused too.
        let other_dir = temp_dir("tiling-other");
        run_shard(&c, &seq, &faults, &base, 2, 0, &other_dir).expect("shard of 2");
        let err = merge_shards(
            &c,
            &seq,
            &faults,
            &base,
            &[shard_path(&other_dir, 0), files[1].clone(), files[2].clone()],
        )
        .expect_err("mixed partitions");
        assert!(err.to_string().contains("shard count"), "{err}");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&other_dir);
    }

    #[test]
    fn merge_works_under_budgets_and_degradation() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let base = CampaignOptions {
            moa: MoaOptions::default().with_degrade(true),
            budget: FaultBudget::none().with_work_limit(8),
            audit: Some(CampaignAudit::default()),
            ..CampaignOptions::new()
        };
        let unsharded = run_campaign(&c, &seq, &faults, &base);
        let dir = temp_dir("degrade");
        let run = run_sharded(&c, &seq, &faults, &base, &ShardOptions::new(3, &dir))
            .expect("supervise");
        assert!(run.quarantined.is_empty());
        let merged = merge_shards(&c, &seq, &faults, &base, &run.files).expect("merge");
        assert_eq!(merged.result, unsharded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_shard_requests_are_errors() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let dir = temp_dir("range");
        let err = run_shard(&c, &seq, &faults, &CampaignOptions::new(), 2, 2, &dir)
            .expect_err("shard id out of range");
        assert!(err.to_string().contains("out of range"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn always_panicking_shards_are_quarantined_not_dropped() {
        use crate::failpoint::{self, ChaosSchedule, FailAction, SitePlan};
        let _guard = failpoint::test_lock();
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let dir = temp_dir("quarantine");
        failpoint::install(
            ChaosSchedule::empty(7)
                .with_site("fp/shard.run", SitePlan::new(1.0, vec![FailAction::Panic])),
        );
        let options = ShardOptions {
            retries: 1,
            backoff: Duration::from_millis(1),
            ..ShardOptions::new(2, &dir)
        };
        let run = run_sharded(&c, &seq, &faults, &CampaignOptions::new(), &options)
            .expect("supervision itself survives");
        failpoint::clear();
        assert_eq!(run.quarantined.len(), 2, "every shard quarantined");
        assert_eq!(run.retries_used, 2, "one retry per shard");
        for failure in &run.quarantined {
            assert_eq!(failure.attempts, 2);
            assert!(failure.last_error.contains("panicked"), "{}", failure.last_error);
        }
        assert!(run.files.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn overdue_shards_time_out_and_are_quarantined() {
        use crate::failpoint::{self, ChaosSchedule, FailAction, SitePlan};
        let _guard = failpoint::test_lock();
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        let dir = temp_dir("timeout");
        failpoint::install(ChaosSchedule::empty(7).with_site(
            "fp/shard.run",
            SitePlan::new(1.0, vec![FailAction::Delay(Duration::from_millis(500))]),
        ));
        let options = ShardOptions {
            timeout: Some(Duration::from_millis(30)),
            retries: 0,
            ..ShardOptions::new(1, &dir)
        };
        let run = run_sharded(&c, &seq, &faults, &CampaignOptions::new(), &options)
            .expect("supervision itself survives");
        failpoint::clear();
        assert_eq!(run.quarantined.len(), 1);
        assert!(
            run.quarantined[0].last_error.contains("timed out"),
            "{}",
            run.quarantined[0].last_error
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
