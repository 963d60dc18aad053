//! The on-disk job spool behind [`crate::serve`].
//!
//! A *job* is one campaign request: a circuit (as `.bench` text), a test
//! sequence, and campaign options. Jobs are **content-addressed**: the
//! directory name is the canonical request hash ([`crate::request_hash`]),
//! so a duplicate submission lands on the same directory — deduplication
//! and the result cache fall out of the layout instead of needing an index
//! file that could itself be corrupted.
//!
//! Spool layout (everything under one root):
//!
//! ```text
//! spool/
//!   job-<32 hex>/
//!     job.spec      # the request, self-contained (bench + seq + options)
//!     attempts      # decimal run-attempt counter (poison detection)
//!     poisoned      # present = quarantined; body is the structured reason
//!     shards/       # the job's shard checkpoint files while it runs
//!     result.ckpt   # present = done; the verdicts as a v2 checkpoint
//! ```
//!
//! Crash-recovery invariants:
//!
//! - every file is published by atomic rename, so a reader never sees a
//!   half-written spec or result;
//! - the job's *state* is derived purely from which files exist
//!   ([`JobState`]), so there is no state field to desynchronize;
//! - `attempts` is incremented *before* a run starts, so a crash during the
//!   run still counts against the poison limit on the next adoption;
//! - shard checkpoints under `shards/` carry their own per-record CRCs; a
//!   re-adopted job resumes from whatever intact prefix survived
//!   (lenient reader), which the sharded chaos soak proves bit-identical.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use moa_netlist::{full_fault_list, parse_bench, Circuit};
use moa_sim::TestSequence;

use crate::campaign::{aggregate, CampaignAudit, CampaignOptions, CampaignResult};
use crate::canon::{request_hash, CanonHash};
use crate::checkpoint::{read_checkpoint, write_checkpoint_v2, CheckpointHeader};
use crate::error::Error;
use crate::procedure::FaultResult;
use crate::Counters;

/// One campaign request, self-contained: everything needed to run it (or
/// decide it is a duplicate) lives in this struct and round-trips through
/// the `job.spec` file.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The circuit, parsed from [`bench`](Self::bench).
    pub circuit: Circuit,
    /// The `.bench` source text, kept verbatim so the spec file reproduces
    /// the submission byte-for-byte.
    pub bench: String,
    /// The test sequence.
    pub seq: TestSequence,
    /// Campaign options. Runtime-only fields (checkpoint path, shard slot,
    /// hooks, cancel probe) are not part of a job's identity and are not
    /// persisted; the daemon supplies them when it runs the job.
    pub options: CampaignOptions,
}

const SPEC_MAGIC: &str = "moa-job-spec v1";

impl JobSpec {
    /// Builds a spec from raw submission texts, validating both and the
    /// sequence width against the circuit.
    pub fn new(bench: &str, seq_text: &str, options: CampaignOptions) -> Result<JobSpec, Error> {
        let circuit = parse_bench(bench).map_err(|e| Error::Spool {
            path: "<submission>".into(),
            message: format!("bad bench text: {e}"),
        })?;
        let seq = TestSequence::parse_text(seq_text).map_err(|e| Error::Spool {
            path: "<submission>".into(),
            message: format!("bad sequence text: {e}"),
        })?;
        if seq.num_inputs() != circuit.num_inputs() {
            return Err(Error::Spool {
                path: "<submission>".into(),
                message: format!(
                    "sequence has {}-bit patterns but the circuit has {} primary inputs",
                    seq.num_inputs(),
                    circuit.num_inputs()
                ),
            });
        }
        if seq.is_empty() {
            return Err(Error::Spool {
                path: "<submission>".into(),
                message: "the test sequence is empty".into(),
            });
        }
        // No backward implication runs zero rounds, and the engine runs zero
        // time units or states as one while the request hash keeps the raw
        // value: refuse all three, so one request never gets two hashes.
        let m = &options.moa;
        for (key, value) in [
            ("implication_rounds", m.implication_rounds),
            ("backward_time_units", m.backward_time_units),
            ("n_states", m.n_states),
        ] {
            if value == 0 {
                return Err(Error::Spool {
                    path: "<submission>".into(),
                    message: format!("option {key} must be at least 1"),
                });
            }
        }
        Ok(JobSpec {
            circuit,
            bench: bench.to_owned(),
            seq,
            options,
        })
    }

    /// The job's canonical identity: [`request_hash`] over the full fault
    /// list (spec v1 always simulates the complete list).
    pub fn hash(&self) -> CanonHash {
        let faults = full_fault_list(&self.circuit);
        request_hash(&self.circuit, &self.seq, &faults, &self.options)
    }

    /// Serializes the spec. Variable-length texts are byte-counted blocks,
    /// so no escaping is needed and truncation is always detectable (the
    /// trailing `end` line vanishes).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(SPEC_MAGIC);
        out.push('\n');
        let seq_text = self.seq.to_text();
        out.push_str(&format!("bench {}\n", self.bench.len()));
        out.push_str(&self.bench);
        out.push_str(&format!("seq {}\n", seq_text.len()));
        out.push_str(&seq_text);
        out.push_str("faults full\n");
        let o = &self.options;
        let m = &o.moa;
        out.push_str(&format!("opt n_states {}\n", m.n_states));
        out.push_str(&format!("opt backward_implications {}\n", m.backward_implications));
        out.push_str(&format!("opt implication_rounds {}\n", m.implication_rounds));
        out.push_str(&format!("opt max_implication_runs {}\n", m.max_implication_runs));
        out.push_str(&format!("opt check_condition_c {}\n", m.check_condition_c));
        out.push_str(&format!("opt backward_time_units {}\n", m.backward_time_units));
        out.push_str(&format!("opt include_final_time_unit {}\n", m.include_final_time_unit));
        out.push_str(&format!("opt static_learning {}\n", m.static_learning));
        if let Some(states) = m.max_frontier_states {
            out.push_str(&format!("opt max_frontier_states {states}\n"));
        }
        out.push_str(&format!("opt degrade {}\n", m.degrade));
        out.push_str(&format!("opt threads {}\n", o.threads));
        out.push_str(&format!("opt differential {}\n", o.differential));
        out.push_str(&format!("opt screen {}\n", o.screen));
        out.push_str(&format!("opt prune_untestable {}\n", o.prune_untestable));
        out.push_str(&format!("opt isolate_panics {}\n", o.isolate_panics));
        out.push_str(&format!("opt checkpoint_every {}\n", o.checkpoint_every));
        if let Some(deadline) = o.budget.deadline {
            out.push_str(&format!("opt deadline_ms {}\n", deadline.as_millis()));
        }
        if let Some(limit) = o.budget.max_work {
            out.push_str(&format!("opt max_work {limit}\n"));
        }
        if let Some(audit) = &o.audit {
            out.push_str(&format!("opt audit_sample_rate {}\n", audit.sample_rate.max(1)));
        }
        out.push_str("end\n");
        out
    }

    /// Parses a spec back. Strict about structure (magic, block lengths,
    /// the `end` sentinel) and about option keys (an unknown key is an
    /// error, not a silent skip — spool corruption must not downgrade a
    /// request), lenient about option *order* and missing keys (defaults).
    pub fn parse(text: &str) -> Result<JobSpec, Error> {
        let fail = |message: String| Error::Spool {
            path: "<spec>".into(),
            message,
        };
        let mut rest = text;
        let next_line = |rest: &mut &str| -> Result<String, Error> {
            let Some(nl) = rest.find('\n') else {
                return Err(fail("truncated spec (missing newline)".into()));
            };
            let line = rest[..nl].to_owned();
            *rest = &rest[nl + 1..];
            Ok(line)
        };
        if next_line(&mut rest)? != SPEC_MAGIC {
            return Err(fail(format!("not a job spec (expected `{SPEC_MAGIC}` magic)")));
        }
        let take_block = |rest: &mut &str, key: &str| -> Result<String, Error> {
            let line = next_line(rest)?;
            let Some(len) = line.strip_prefix(&format!("{key} ")) else {
                return Err(fail(format!("expected `{key} <bytes>`, got `{line}`")));
            };
            let len: usize = len
                .parse()
                .map_err(|_| fail(format!("bad {key} length `{len}`")))?;
            if rest.len() < len || !rest.is_char_boundary(len) {
                return Err(fail(format!("truncated {key} block ({len} bytes declared)")));
            }
            let block = rest[..len].to_owned();
            *rest = &rest[len..];
            Ok(block)
        };
        let bench = take_block(&mut rest, "bench")?;
        let seq_text = take_block(&mut rest, "seq")?;
        if next_line(&mut rest)? != "faults full" {
            return Err(fail("spec v1 supports only `faults full`".into()));
        }
        let mut options = CampaignOptions::new();
        loop {
            let line = next_line(&mut rest)?;
            if line == "end" {
                break;
            }
            let Some(kv) = line.strip_prefix("opt ") else {
                return Err(fail(format!("expected `opt <key> <value>` or `end`, got `{line}`")));
            };
            let (key, value) = kv
                .split_once(' ')
                .ok_or_else(|| fail(format!("bad option line `{line}`")))?;
            apply_option(&mut options, key, value).map_err(fail)?;
        }
        JobSpec::new(&bench, &seq_text, options)
    }
}

/// Applies one persisted `opt key value` pair onto defaulted options.
fn apply_option(options: &mut CampaignOptions, key: &str, value: &str) -> Result<(), String> {
    fn num(key: &str, value: &str) -> Result<usize, String> {
        value
            .parse()
            .map_err(|_| format!("option {key}: bad number `{value}`"))
    }
    fn flag(key: &str, value: &str) -> Result<bool, String> {
        match value {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(format!("option {key}: bad bool `{value}`")),
        }
    }
    let m = &mut options.moa;
    match key {
        "n_states" => m.n_states = num(key, value)?,
        "backward_implications" => m.backward_implications = flag(key, value)?,
        "implication_rounds" => m.implication_rounds = num(key, value)?,
        "max_implication_runs" => m.max_implication_runs = num(key, value)?,
        "check_condition_c" => m.check_condition_c = flag(key, value)?,
        "backward_time_units" => m.backward_time_units = num(key, value)?,
        "include_final_time_unit" => m.include_final_time_unit = flag(key, value)?,
        // Retired execution switches: specs written before their removal
        // still carry the lines. None entered the request hash, so each is
        // validated and dropped.
        "cone_bounded" | "packed_resimulation" | "collapse" => {
            flag(key, value)?;
        }
        "static_learning" => m.static_learning = flag(key, value)?,
        "max_frontier_states" => m.max_frontier_states = Some(num(key, value)?),
        "degrade" => m.degrade = flag(key, value)?,
        // Retired adaptive degradation: its ladder let other faults' costs
        // decide a fault's verdict. `false` is validated and dropped; `true`
        // asks for semantics that no longer exist and is refused.
        "degrade_adaptive" => {
            if flag(key, value)? {
                return Err(format!(
                    "option {key}: adaptive degradation was removed; resubmit without it"
                ));
            }
        }
        "threads" => options.threads = num(key, value)?,
        "differential" => options.differential = flag(key, value)?,
        "screen" => options.screen = flag(key, value)?,
        "prune_untestable" => options.prune_untestable = flag(key, value)?,
        // Retired fault-order schedule: it never moved a verdict or entered
        // the request hash, so a known name is validated and dropped.
        "order" => {
            if !matches!(
                value,
                "natural" | "scoap-hard-first" | "scoap-cheap-first" | "cone-cluster"
            ) {
                return Err(format!("unknown fault order `{value}`"));
            }
        }
        "isolate_panics" => options.isolate_panics = flag(key, value)?,
        // Retired worker-respawn budget (the campaign's pull pool has no
        // respawns): validated and dropped like `cone_bounded`.
        "worker_retries" => {
            num(key, value)?;
        }
        "checkpoint_every" => options.checkpoint_every = num(key, value)?,
        "deadline_ms" => {
            options.budget.deadline =
                Some(std::time::Duration::from_millis(num(key, value)? as u64));
        }
        "max_work" => options.budget.max_work = Some(num(key, value)? as u64),
        "audit_sample_rate" => {
            options.audit = Some(CampaignAudit {
                sample_rate: num(key, value)?.max(1),
                ..CampaignAudit::default()
            });
        }
        _ => return Err(format!("unknown option key `{key}`")),
    }
    Ok(())
}

/// A job's persistent state, derived from which files exist in its
/// directory. (A *running* job is a daemon-side notion: on disk it looks
/// `Queued` until its result or poison marker is published, which is
/// exactly what crash recovery wants — an interrupted run is re-adopted as
/// queued work.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, not finished: has a spec, no result, no poison marker.
    Queued,
    /// Finished: `result.ckpt` is present and serves as the dedupe cache.
    Done,
    /// Quarantined after repeated crashes; `poisoned` holds the reason.
    Poisoned,
}

/// One job as seen by a spool [`scan`](Spool::scan).
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// The job's canonical hash (also its directory name).
    pub hash: CanonHash,
    /// State derived from the directory contents.
    pub state: JobState,
    /// Run attempts recorded so far.
    pub attempts: u32,
    /// The poison reason, when [`state`](Self::state) is `Poisoned`.
    pub poison_reason: Option<String>,
}

/// The spool root: a directory of content-addressed job directories.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) a spool rooted at `root`.
    pub fn open(root: &Path) -> Result<Spool, Error> {
        fs::create_dir_all(root).map_err(|e| Error::Spool {
            path: root.display().to_string(),
            message: format!("cannot create spool directory: {e}"),
        })?;
        Ok(Spool {
            root: root.to_owned(),
        })
    }

    /// The spool's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The job's directory.
    pub fn job_dir(&self, hash: CanonHash) -> PathBuf {
        self.root.join(format!("job-{hash}"))
    }

    /// Where the job's shard checkpoints live while it runs.
    pub fn shards_dir(&self, hash: CanonHash) -> PathBuf {
        self.job_dir(hash).join("shards")
    }

    fn spec_path(&self, hash: CanonHash) -> PathBuf {
        self.job_dir(hash).join("job.spec")
    }

    fn result_path(&self, hash: CanonHash) -> PathBuf {
        self.job_dir(hash).join("result.ckpt")
    }

    fn attempts_path(&self, hash: CanonHash) -> PathBuf {
        self.job_dir(hash).join("attempts")
    }

    fn poison_path(&self, hash: CanonHash) -> PathBuf {
        self.job_dir(hash).join("poisoned")
    }

    /// Admits a job: creates its directory and publishes its spec
    /// atomically. Returns the job's hash and whether the spec was newly
    /// written (`false` = the job already existed, i.e. a duplicate
    /// submission coalesced onto the existing directory).
    pub fn admit(&self, spec: &JobSpec) -> Result<(CanonHash, bool), Error> {
        let hash = spec.hash();
        let dir = self.job_dir(hash);
        let spec_path = self.spec_path(hash);
        if spec_path.exists() {
            return Ok((hash, false));
        }
        #[cfg(feature = "failpoints")]
        if let Some(e) = crate::failpoint::io_error("fp/spool.admit") {
            return Err(Error::Spool {
                path: dir.display().to_string(),
                message: format!("cannot admit job: {e}"),
            });
        }
        fs::create_dir_all(self.shards_dir(hash)).map_err(|e| Error::Spool {
            path: dir.display().to_string(),
            message: format!("cannot create job directory: {e}"),
        })?;
        atomic_publish(&spec_path, spec.to_text().as_bytes())?;
        Ok((hash, true))
    }

    /// Loads and re-validates a job's spec.
    pub fn load_spec(&self, hash: CanonHash) -> Result<JobSpec, Error> {
        let path = self.spec_path(hash);
        let located = |message: String| Error::Spool {
            path: path.display().to_string(),
            message,
        };
        let text =
            fs::read_to_string(&path).map_err(|e| located(format!("cannot read spec: {e}")))?;
        let spec = JobSpec::parse(&text).map_err(|e| located(e.to_string()))?;
        // Content addressing is also an integrity check: a spec whose
        // contents no longer hash to its directory name was corrupted (or
        // hand-edited) and must not impersonate the original request.
        let rehash = spec.hash();
        if rehash != hash {
            return Err(located(format!(
                "spec hash mismatch: directory says {hash}, contents hash to {rehash}"
            )));
        }
        Ok(spec)
    }

    /// Records the start of a run attempt; returns the new attempt count.
    /// Persisted *before* the run so a crash mid-run still counts.
    pub fn record_attempt(&self, hash: CanonHash) -> Result<u32, Error> {
        let next = self.attempts(hash) + 1;
        atomic_publish(&self.attempts_path(hash), next.to_string().as_bytes())?;
        Ok(next)
    }

    /// Run attempts recorded so far (0 if none, or unreadable).
    pub fn attempts(&self, hash: CanonHash) -> u32 {
        fs::read_to_string(self.attempts_path(hash))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Quarantines a job with a structured reason.
    pub fn poison(&self, hash: CanonHash, reason: &str) -> Result<(), Error> {
        atomic_publish(&self.poison_path(hash), reason.as_bytes())
    }

    /// Publishes a finished job's verdicts as an unsharded v2 checkpoint.
    /// The per-record CRCs and the end-of-file trailer make a later cache
    /// read fail loudly instead of serving damaged verdicts.
    pub fn store_result(
        &self,
        hash: CanonHash,
        spec: &JobSpec,
        result: &CampaignResult,
    ) -> Result<(), Error> {
        #[cfg(feature = "failpoints")]
        if let Some(e) = crate::failpoint::io_error("fp/spool.store") {
            return Err(Error::Spool {
                path: self.result_path(hash).display().to_string(),
                message: format!("cannot store result: {e}"),
            });
        }
        let header = CheckpointHeader {
            circuit: spec.circuit.name().to_owned(),
            total_faults: result.total_faults,
            seq_len: spec.seq.len(),
        };
        // CampaignResult keeps expansion counters only for extra-detected
        // faults (in fault order); rebuild per-fault records from that.
        let mut extra = result.expansion_counters.iter();
        let slots: Vec<Option<FaultResult>> = result
            .statuses
            .iter()
            .map(|status| {
                let counters = if status.is_extra_detected() {
                    extra.next().copied().unwrap_or_else(Counters::new)
                } else {
                    Counters::new()
                };
                Some(FaultResult {
                    status: status.clone(),
                    counters,
                    runs: 0,
                })
            })
            .collect();
        write_checkpoint_v2(&self.result_path(hash), &header, None, &slots)
    }

    /// Loads a finished job's verdicts back from the cache, or `None` if
    /// the job has no published result. The stored file must be complete —
    /// a partial or damaged result file is an error, never a partial
    /// answer.
    pub fn load_result(
        &self,
        hash: CanonHash,
        spec: &JobSpec,
    ) -> Result<Option<CampaignResult>, Error> {
        let path = self.result_path(hash);
        if !path.exists() {
            return Ok(None);
        }
        let header = CheckpointHeader {
            circuit: spec.circuit.name().to_owned(),
            total_faults: full_fault_list(&spec.circuit).len(),
            seq_len: spec.seq.len(),
        };
        let load = read_checkpoint(&path, &header)?;
        let located = |message: String| Error::Spool {
            path: path.display().to_string(),
            message,
        };
        if !load.skipped.is_empty() {
            return Err(located(format!(
                "cached result has {} damaged record(s)",
                load.skipped.len()
            )));
        }
        let results: Vec<FaultResult> = load
            .slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.ok_or_else(|| located(format!("cached result is missing fault {index}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(Some(aggregate(&spec.circuit, results.len(), results)))
    }

    /// The job's state, derived from its directory contents. Poison beats
    /// done: a job quarantined after publishing a damaged result must stay
    /// quarantined.
    pub fn state(&self, hash: CanonHash) -> JobState {
        if self.poison_path(hash).exists() {
            JobState::Poisoned
        } else if self.result_path(hash).exists() {
            JobState::Done
        } else {
            JobState::Queued
        }
    }

    /// The poison reason, when present.
    pub fn poison_reason(&self, hash: CanonHash) -> Option<String> {
        fs::read_to_string(self.poison_path(hash)).ok()
    }

    /// Scans the spool, returning every job directory with a parseable
    /// hash, sorted by hash for determinism. Non-job entries are ignored
    /// (the spool root may hold a pid file or an operator's notes);
    /// job directories with corrupt specs still appear — the daemon decides
    /// whether to poison them.
    pub fn scan(&self) -> Result<Vec<JobEntry>, Error> {
        #[cfg(feature = "failpoints")]
        if let Some(e) = crate::failpoint::io_error("fp/spool.scan") {
            return Err(Error::Spool {
                path: self.root.display().to_string(),
                message: format!("cannot scan spool: {e}"),
            });
        }
        let entries = fs::read_dir(&self.root).map_err(|e| Error::Spool {
            path: self.root.display().to_string(),
            message: format!("cannot scan spool: {e}"),
        })?;
        let mut jobs = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(hex) = name.to_str().and_then(|n| n.strip_prefix("job-")) else {
                continue;
            };
            let Some(hash) = CanonHash::parse(hex) else {
                continue;
            };
            if !entry.path().is_dir() {
                continue;
            }
            jobs.push(JobEntry {
                hash,
                state: self.state(hash),
                attempts: self.attempts(hash),
                poison_reason: self.poison_reason(hash),
            });
        }
        jobs.sort_by_key(|j| j.hash);
        Ok(jobs)
    }
}

/// Write-then-rename publication: the destination either keeps its old
/// contents or atomically becomes the new ones; a crash mid-write leaves
/// only a `.tmp` that the next writer overwrites.
fn atomic_publish(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    let located = |message: String| Error::Spool {
        path: path.display().to_string(),
        message,
    };
    let tmp = path.with_extension("tmp");
    let mut file = fs::File::create(&tmp).map_err(|e| located(format!("cannot create: {e}")))?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| located(format!("cannot write: {e}")))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| located(format!("cannot publish: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::{FaultBudget, MoaOptions};

    const TOGGLE: &str =
        "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n";

    fn temp_spool(tag: &str) -> Spool {
        let dir = std::env::temp_dir().join(format!(
            "moa-spool-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Spool::open(&dir).expect("open spool")
    }

    fn spec() -> JobSpec {
        JobSpec::new(TOGGLE, "0\n0\n0\n", CampaignOptions::new()).expect("valid spec")
    }

    #[test]
    fn spec_round_trips_and_preserves_the_hash() {
        let original = spec();
        let parsed = JobSpec::parse(&original.to_text()).expect("parse back");
        assert_eq!(parsed.bench, original.bench);
        assert_eq!(parsed.hash(), original.hash());

        let mut tuned = spec();
        tuned.options.moa.n_states = 32;
        tuned.options.moa.max_frontier_states = Some(500);
        tuned.options.budget = FaultBudget::none().with_work_limit(9000);
        tuned.options.audit = Some(CampaignAudit::default());
        tuned.options.threads = 3;
        let parsed = JobSpec::parse(&tuned.to_text()).expect("parse tuned");
        assert_eq!(parsed.options.moa.n_states, 32);
        assert_eq!(parsed.options.moa.max_frontier_states, Some(500));
        assert_eq!(parsed.options.budget.max_work, Some(9000));
        assert_eq!(parsed.options.audit.as_ref().map(|a| a.sample_rate), Some(1));
        assert_eq!(parsed.options.threads, 3);
        assert_eq!(parsed.hash(), tuned.hash());
        assert_ne!(parsed.hash(), original.hash());
    }

    #[test]
    fn spec_with_retired_engine_switches_parses_to_the_same_hash() {
        // A spec exactly as written before `cone_bounded` was retired, with
        // both execution-only engine switches flipped from their defaults.
        // `packed_resimulation` and `collapse` have been retired since.
        let text = concat!(
            "moa-job-spec v1\n",
            "bench 69\n",
            "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
            "seq 6\n",
            "0\n0\n0\n",
            "faults full\n",
            "opt n_states 64\n",
            "opt backward_implications true\n",
            "opt implication_rounds 1\n",
            "opt max_implication_runs 4096\n",
            "opt check_condition_c true\n",
            "opt backward_time_units 1\n",
            "opt packed_resimulation true\n",
            "opt include_final_time_unit false\n",
            "opt cone_bounded false\n",
            "opt static_learning false\n",
            "opt degrade false\n",
            "opt degrade_adaptive false\n",
            "opt threads 0\n",
            "opt differential false\n",
            "opt screen true\n",
            "opt prune_untestable false\n",
            "opt collapse false\n",
            "opt order natural\n",
            "opt isolate_panics true\n",
            "opt worker_retries 2\n",
            "opt checkpoint_every 64\n",
            "end\n",
        );
        let parsed = JobSpec::parse(text).expect("a pre-retirement spec still parses");
        // The hash the writing release computed for this request.
        assert_eq!(parsed.hash().to_string(), "2dfd90ad925f196e1251f7300abb9271");
        assert_eq!(parsed.hash(), spec().hash(), "engine switches stay out of the hash");
        let collapsed = JobSpec::parse(&text.replace("opt collapse false", "opt collapse true"))
            .expect("a spec asking for in-campaign collapsing still parses");
        assert_eq!(collapsed.hash(), parsed.hash(), "collapse never entered the hash");
        let without = JobSpec::parse(&text.replace("opt collapse false\n", "")).expect("parses");
        assert_eq!(without.hash(), parsed.hash());
        for (line, damaged) in [
            ("opt cone_bounded false", "opt cone_bounded maybe"),
            ("opt packed_resimulation true", "opt packed_resimulation maybe"),
            ("opt collapse false", "opt collapse maybe"),
        ] {
            let key = line.split(' ').nth(1).unwrap();
            assert!(!parsed.to_text().contains(key), "{key} is not written back");
            assert!(
                JobSpec::parse(&text.replace(line, damaged)).is_err(),
                "the retired {key} line is still validated"
            );
        }
    }

    #[test]
    fn spec_with_retired_worker_retries_line_parses_to_the_same_hash() {
        // The default spec exactly as written before the worker-respawn
        // budget was retired. Its `order`, `degrade_adaptive`,
        // `packed_resimulation` and `collapse` lines have been retired since.
        let text = concat!(
            "moa-job-spec v1\n",
            "bench 69\n",
            "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
            "seq 6\n",
            "0\n0\n0\n",
            "faults full\n",
            "opt n_states 64\n",
            "opt backward_implications true\n",
            "opt implication_rounds 1\n",
            "opt max_implication_runs 4096\n",
            "opt check_condition_c true\n",
            "opt backward_time_units 1\n",
            "opt packed_resimulation false\n",
            "opt include_final_time_unit false\n",
            "opt static_learning false\n",
            "opt degrade false\n",
            "opt degrade_adaptive false\n",
            "opt threads 0\n",
            "opt differential false\n",
            "opt screen true\n",
            "opt prune_untestable false\n",
            "opt collapse false\n",
            "opt order natural\n",
            "opt isolate_panics true\n",
            "opt worker_retries 2\n",
            "opt checkpoint_every 64\n",
            "end\n",
        );
        let parsed = JobSpec::parse(text).expect("a pre-retirement spec still parses");
        // The hash the writing release computed for this request.
        assert_eq!(parsed.hash().to_string(), "2dfd90ad925f196e1251f7300abb9271");
        assert_eq!(parsed.hash(), spec().hash());
        assert_eq!(
            parsed.to_text(),
            text.replace("opt worker_retries 2\n", "")
                .replace("opt degrade_adaptive false\n", "")
                .replace("opt order natural\n", "")
                .replace("opt packed_resimulation false\n", "")
                .replace("opt collapse false\n", ""),
            "only the retired lines are dropped on write-back"
        );
        let with = |from: &str, to: &str| JobSpec::parse(&text.replace(from, to));
        assert!(
            with("opt worker_retries 2", "opt worker_retries many").is_err(),
            "the retired line is still validated"
        );
        let ordered = with("opt order natural", "opt order scoap-hard-first").expect("known order");
        assert_eq!(ordered.hash(), parsed.hash(), "no order ever entered the hash");
        assert!(with("opt order natural", "opt order bogus").is_err(), "unknown order");
        assert!(
            with("opt degrade_adaptive false", "opt degrade_adaptive maybe").is_err(),
            "the retired flag is still validated"
        );
        assert!(
            with("opt packed_resimulation false", "opt packed_resimulation maybe").is_err(),
            "the retired switch is still validated"
        );
        let err = with("opt degrade_adaptive false", "opt degrade_adaptive true").unwrap_err();
        let message = err.to_string();
        assert!(message.contains("<spec>"), "located: {message}");
        assert!(message.contains("degrade_adaptive"), "names the option: {message}");
    }

    #[test]
    fn spec_parse_rejects_damage() {
        let text = spec().to_text();
        assert!(JobSpec::parse(&text[..text.len() - 5]).is_err(), "truncated");
        assert!(JobSpec::parse(&text.replace("moa-job-spec v1", "who")).is_err(), "magic");
        assert!(
            JobSpec::parse(&text.replace("opt n_states", "opt n_statez")).is_err(),
            "unknown key"
        );
        assert!(
            JobSpec::parse(&text.replace("faults full", "faults some")).is_err(),
            "fault selector"
        );
        let err = JobSpec::new(TOGGLE, "00\n", CampaignOptions::new()).unwrap_err();
        assert!(err.to_string().contains("primary inputs"), "{err}");
        for (key, zero) in [
            ("implication_rounds", MoaOptions::default().with_implication_rounds(0)),
            ("backward_time_units", MoaOptions::default().with_backward_time_units(0)),
            ("n_states", MoaOptions::default().with_n_states(0)),
        ] {
            let options = CampaignOptions {
                moa: zero,
                ..CampaignOptions::new()
            };
            let message = JobSpec::new(TOGGLE, "0\n", options).unwrap_err().to_string();
            assert!(message.contains("<submission>"), "located: {message}");
            assert!(message.contains(key), "names the option: {message}");
            let written = spec().to_text();
            let line = written.lines().find(|l| l.starts_with(&format!("opt {key} "))).unwrap();
            assert!(
                JobSpec::parse(&written.replace(line, &format!("opt {key} 0"))).is_err(),
                "a stored spec with {key} 0 is refused too"
            );
        }
    }

    #[test]
    fn admit_is_idempotent_and_content_addressed() {
        let spool = temp_spool("admit");
        let (hash, fresh) = spool.admit(&spec()).expect("admit");
        assert!(fresh);
        assert_eq!(spool.state(hash), JobState::Queued);
        let (again, fresh) = spool.admit(&spec()).expect("re-admit");
        assert_eq!(again, hash);
        assert!(!fresh, "duplicate submissions coalesce");
        let loaded = spool.load_spec(hash).expect("load spec");
        assert_eq!(loaded.hash(), hash);
        let _ = fs::remove_dir_all(spool.root());
    }

    #[test]
    fn tampered_spec_is_rejected_on_load() {
        let spool = temp_spool("tamper");
        let (hash, _) = spool.admit(&spec()).expect("admit");
        // Rewrite the spec with different options: it stays well-formed but
        // no longer hashes to the directory name.
        let mut tampered = spec();
        tampered.options.moa.n_states = 3;
        fs::write(spool.spec_path(hash), tampered.to_text()).expect("tamper");
        let err = spool.load_spec(hash).unwrap_err();
        assert!(err.to_string().contains("hash mismatch"), "{err}");
        let _ = fs::remove_dir_all(spool.root());
    }

    #[test]
    fn result_cache_round_trips_bit_identical() {
        let spool = temp_spool("result");
        let spec = spec();
        let (hash, _) = spool.admit(&spec).expect("admit");
        let faults = full_fault_list(&spec.circuit);
        let result = run_campaign(&spec.circuit, &spec.seq, &faults, &spec.options);
        assert!(spool.load_result(hash, &spec).expect("no result yet").is_none());
        spool.store_result(hash, &spec, &result).expect("store");
        assert_eq!(spool.state(hash), JobState::Done);
        let cached = spool
            .load_result(hash, &spec)
            .expect("load")
            .expect("present");
        assert_eq!(cached, result, "cache must serve bit-identical verdicts");
        assert_eq!(
            crate::canon::verdict_digest(&cached),
            crate::canon::verdict_digest(&result)
        );
        let _ = fs::remove_dir_all(spool.root());
    }

    #[test]
    fn corrupt_cached_result_fails_loudly() {
        let spool = temp_spool("corrupt-result");
        let spec = spec();
        let (hash, _) = spool.admit(&spec).expect("admit");
        let faults = full_fault_list(&spec.circuit);
        let result = run_campaign(&spec.circuit, &spec.seq, &faults, &spec.options);
        spool.store_result(hash, &spec, &result).expect("store");
        let path = spool.result_path(hash);
        let mut bytes = fs::read(&path).expect("read result");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).expect("corrupt");
        assert!(spool.load_result(hash, &spec).is_err(), "must not serve damage");
        let _ = fs::remove_dir_all(spool.root());
    }

    #[test]
    fn attempts_poison_and_scan() {
        let spool = temp_spool("scan");
        let (hash, _) = spool.admit(&spec()).expect("admit");
        assert_eq!(spool.attempts(hash), 0);
        assert_eq!(spool.record_attempt(hash).expect("attempt"), 1);
        assert_eq!(spool.record_attempt(hash).expect("attempt"), 2);
        assert_eq!(spool.attempts(hash), 2);
        spool.poison(hash, "worker panicked 2 times: boom").expect("poison");
        assert_eq!(spool.state(hash), JobState::Poisoned);
        // Noise in the spool root is ignored by the scan.
        fs::write(spool.root().join("daemon.pid"), "123").expect("noise");
        fs::create_dir_all(spool.root().join("job-nothex")).expect("noise dir");
        let jobs = spool.scan().expect("scan");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].hash, hash);
        assert_eq!(jobs[0].state, JobState::Poisoned);
        assert_eq!(jobs[0].attempts, 2);
        assert!(jobs[0]
            .poison_reason
            .as_deref()
            .is_some_and(|r| r.contains("panicked")));
        let _ = fs::remove_dir_all(spool.root());
    }
}
