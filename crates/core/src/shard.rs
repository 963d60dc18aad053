//! Crash-safe sharded campaigns: partition, run, merge.
//!
//! A fault-simulation campaign is embarrassingly partitionable — every
//! per-fault verdict is self-contained — so a large fault list can be split
//! into contiguous *shards*, each run as an independent campaign writing a
//! format-v2 checkpoint file (as [`write_checkpoint_v2`](crate::write_checkpoint_v2)
//! writes them), and the shard files merged back into one [`CampaignResult`]
//! that is bit-identical to the unsharded run (locked in by tests).
//!
//! Four layers, usable separately:
//!
//! - [`partition`] / [`shard_info`] / [`shard_path`] — the deterministic
//!   fault-list partition and the file-naming convention. Running shard `k`
//!   on one machine and shard `k+1` on another needs nothing more than
//!   agreeing on `(total, shards)`.
//! - [`run_shard`] — one shard as an independent, resumable campaign: the
//!   shard file doubles as its checkpoint, and a damaged file is *healed*
//!   (deleted and re-run from scratch) rather than fatal.
//! - [`run_sharded`] — every shard on the calling thread, supervised by the
//!   same lease table that hands shards to remote workers
//!   ([`crate::Dispatcher`]): bounded retries with exponential backoff, and
//!   quarantine of shards that keep failing (reported in
//!   [`ShardRun::quarantined`], never silently dropped).
//! - [`merge_shards`] — the integrity-verified merge: every record is
//!   checksum-validated ([`read_shard`] is strict),
//!   shard geometry must tile the fault list exactly (no missing, duplicate
//!   or overlapping fault indices), and — when the campaign runs in audit
//!   mode — merged detections are re-validated by certificate replay, so a
//!   corrupted-but-checksum-valid shard cannot smuggle in an unsound
//!   detection.
//!
//! # Crash safety
//!
//! [`run_sharded`] runs each shard in `<dir>/scratch/` and only *renames* a
//! finished, strictly validated file onto the canonical `shard-<k>.ckpt`; a
//! killed or interrupted run leaves its partial checkpoint in scratch, and
//! the next run resumes it.

use std::fs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

use moa_netlist::{Circuit, Fault};
use moa_sim::{simulate, SimTrace, TestSequence};

use crate::audit::{audit_certificate, AuditStatus};
use crate::budget::BudgetMeter;
use crate::campaign::{
    aggregate, panic_message, try_run_campaign, CampaignAudit, CampaignOptions, CampaignResult,
};
use crate::canon::CanonHash;
use crate::certificate::DetectionCertificate;
use crate::checkpoint::{mismatch_message, read_shard, CheckpointHeader, ShardInfo};
use crate::dispatch::{DispatchOptions, Dispatcher, JobOutcome};
use crate::error::Error;
use crate::procedure::{
    fallback_rung_options, simulate_fault_certified, FaultResult, FaultStatus, PartialBound,
};
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

/// The partition and attempt budget of [`run_sharded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOptions {
    /// Number of shards to partition the fault list into.
    pub shards: usize,
    /// Directory for the shard files (created if missing).
    pub dir: PathBuf,
    /// Retries after the first failed attempt before the shard is
    /// quarantined (so a shard gets `retries + 1` attempts in total). Retry
    /// `n` first waits `10 ms * 2^(n-1)`.
    pub retries: usize,
}

/// The base delay before [`run_sharded`] retries a failed shard; attempt
/// `n`'s delay is `RETRY_BACKOFF * 2^(n-1)`, capped by the doubling count.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

impl ShardOptions {
    /// `shards` shards in `dir` with the default policy: 5 retries.
    pub fn new(shards: usize, dir: impl Into<PathBuf>) -> Self {
        ShardOptions {
            shards,
            dir: dir.into(),
            retries: 5,
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
    if shards == 0 || shard_id >= shards {
        return Err(Error::Shard {
            shard_id,
            message: format!("shard id {shard_id} out of range for {shards} shard(s)"),
        });
    }
    fs::create_dir_all(dir).map_err(|e| Error::Shard {
        shard_id,
        message: format!("cannot create shard directory {}: {e}", dir.display()),
    })?;
    fail_hit!("fp/shard.run");
    let path = shard_path(dir, shard_id);
    let info = shard_info(faults.len(), shards, shard_id);
    let slice = &faults[info.offset as usize..(info.offset + info.len) as usize];
    let mut opts = base.clone();
    opts.checkpoint = Some(path.clone());
    opts.resume = path.exists();
    opts.shard = Some(info);
    let first = try_run_campaign(circuit, seq, slice, &opts);
    match first {
        // A resume that dies on the checkpoint itself (damaged header, or a
        // file from some other campaign) heals: drop the file, run fresh.
        // Lesser damage never lands here — the resume reader skips corrupt
        // records with a warning and re-simulates those faults.
        Err(Error::Checkpoint { .. }) if opts.resume => {
            let _ = fs::remove_file(&path);
            opts.resume = false;
            try_run_campaign(circuit, seq, slice, &opts)
        }
        other => other,
    }
}

/// Runs every shard of the [`partition`] on the calling thread, supervised
/// by a private [`Dispatcher`]: a shard that errors, panics or writes a file
/// failing strict validation is retried after an exponential backoff, and
/// quarantined once it has used `retries + 1` attempts. Quarantined shards
/// are *reported*; the other shards still run to completion, so a single
/// pathological shard cannot take the campaign down. Complete shard files
/// already in the directory are adopted, and a tripped `base.cancel`
/// returns [`Error::Interrupted`] with the interrupted shard's progress
/// kept for a rerun to resume.
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
    let policy = DispatchOptions {
        attempts: u32::try_from(options.retries.saturating_add(1)).unwrap_or(u32::MAX),
        backoff: RETRY_BACKOFF,
        ..DispatchOptions::default()
    };
    let dispatcher = Dispatcher::new(options.shards, policy)?;
    // The table is private, so any key names the job, and no remote worker
    // ever reads its spec text.
    let job = CanonHash(0);
    let header = CheckpointHeader {
        circuit: circuit.name().to_owned(),
        total_faults: faults.len(),
        seq_len: seq.len(),
    };
    dispatcher.register_job(job, header, options.dir.clone(), String::new())?;
    let retries_used = dispatcher.run_in_process(job, circuit, seq, faults, base)?;
    let quarantined = match dispatcher.wait_job(job, || false)? {
        JobOutcome::Done(_) => Vec::new(),
        JobOutcome::Quarantined(failures) => failures,
    };
    let files = (0..options.shards)
        .filter(|&k| quarantined.iter().all(|q| q.shard_id != k))
        .map(|k| shard_path(&options.dir, k))
        .collect();
    Ok(ShardRun {
        files,
        quarantined,
        retries_used,
    })
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
            replay_one(circuit, seq, &good, &faults[index], moa, &result.status)
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
    status: &FaultStatus,
) -> Replay {
    let check = |certificate: Option<&DetectionCertificate>| match certificate {
        None => Replay::Refuted("re-simulation produced no certificate".into()),
        Some(cert) => {
            match audit_certificate(circuit, seq, good, fault, cert) {
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
            let options = fallback_rung_options(moa);
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

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
    fn audited_full_list_shards_merge_bit_identical_to_plain_unsharded() {
        let c = toggle();
        let seq = TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence");
        let faults = full_fault_list(&c);
        // Reference: no audit, no shards. Each shard's screen shares lanes
        // across the equivalence classes of its own slice of the full list
        // (the partial-list-safe case), so the merge must still reproduce the
        // plain campaign bit-identically, with one record per fault.
        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let base = CampaignOptions {
            audit: Some(CampaignAudit::default()),
            ..CampaignOptions::new()
        };
        for shards in [1usize, 3] {
            let dir = temp_dir(&format!("full-list-{shards}"));
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
        // The hook records every fault the interrupted run simulated: the
        // interrupt lands on a batch boundary, so each one finished and was
        // checkpointed.
        let polls = Arc::new(AtomicUsize::new(0));
        let probe_polls = Arc::clone(&polls);
        let finished: Arc<Mutex<Vec<Fault>>> = Arc::default();
        let record = Arc::clone(&finished);
        let base = CampaignOptions {
            checkpoint_every: 2,
            threads: 1,
            fault_hook: Some(Arc::new(move |_, fault: &Fault| record.lock().unwrap().push(*fault))),
            cancel: Some(Arc::new(move || probe_polls.fetch_add(1, Ordering::SeqCst) >= 2)),
            ..CampaignOptions::new()
        };
        let err = run_sharded(&c, &seq, &faults, &base, &options)
            .expect_err("the tripped probe must interrupt the supervisor");
        assert!(matches!(err, Error::Interrupted { .. }), "{err}");
        let finished = finished.lock().unwrap().clone();
        assert!(!finished.is_empty(), "the interrupt must land after some work");

        // Rerun without the probe: the interrupted shard resumes from its
        // scratch checkpoint instead of restarting, so no fault finished
        // before the interrupt is simulated again, and the merge is
        // bit-identical.
        let simulated: Arc<Mutex<Vec<Fault>>> = Arc::default();
        let record = Arc::clone(&simulated);
        let base = CampaignOptions {
            checkpoint_every: 2,
            fault_hook: Some(Arc::new(move |_, fault: &Fault| record.lock().unwrap().push(*fault))),
            ..CampaignOptions::new()
        };
        let run = run_sharded(&c, &seq, &faults, &base, &options).expect("rerun");
        assert!(run.quarantined.is_empty(), "{:?}", run.quarantined);
        let simulated = simulated.lock().unwrap().clone();
        assert!(
            simulated.iter().all(|fault| !finished.contains(fault)),
            "resumed, not restarted: {finished:?} were finished, the rerun simulated {simulated:?}"
        );
        assert_eq!(simulated.len() + finished.len(), faults.len(), "every other fault ran once");
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
        // `moa campaign suite:s298 --random 64 --seed 7 --proposed --degrade
        // --work-limit 300 --audit`: eight of its faults are detected only by
        // the ladder's fallback rung, the one input that reaches the merge's
        // rung replay.
        let entry = moa_circuits::suite::entry("s298").expect("suite circuit");
        let c = moa_netlist::parse_bench(&moa_netlist::write_bench(&entry.build()))
            .expect("round trip");
        let seq = moa_tpg::random_sequence(&c, 64, 7);
        let faults = moa_netlist::collapse_faults(&c, &full_fault_list(&c))
            .representatives()
            .to_vec();
        let base = CampaignOptions {
            moa: MoaOptions::default().with_degrade(true),
            budget: FaultBudget::none().with_work_limit(300),
            audit: Some(CampaignAudit::default()),
            ..CampaignOptions::new()
        };
        let unsharded = run_campaign(&c, &seq, &faults, &base);
        assert_eq!(
            crate::canon::verdict_digest(&unsharded).to_string(),
            "e8eae367b648f224190599e46ad1fedd"
        );
        assert_eq!(unsharded.partial_summary().detected, 8, "ladder detections");
        for shards in [1, 3] {
            for threads in [1, 2] {
                let options = CampaignOptions { threads, ..base.clone() };
                let dir = temp_dir(&format!("degrade-{shards}-{threads}"));
                let run = run_sharded(&c, &seq, &faults, &options, &ShardOptions::new(shards, &dir))
                    .expect("supervise");
                assert!(run.quarantined.is_empty());
                let merged = merge_shards(&c, &seq, &faults, &options, &run.files).expect("merge");
                assert_eq!(merged.result, unsharded, "{shards} shard(s), {threads} thread(s)");
                // Sample rate 1: every detection, the ladder's included, is
                // replayed by the merge.
                assert_eq!(merged.audited, unsharded.detected_total());
                let _ = fs::remove_dir_all(&dir);
            }
        }
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
}
