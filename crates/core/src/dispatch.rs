//! The shard lease table: the one supervisor of sharded work.
//!
//! Every sharded run partitions its fault list exactly as
//! [`partition`](crate::partition) does, and this module supervises the
//! shards — whether they run in remote `moa work` processes or on the
//! calling thread ([`run_sharded`](crate::run_sharded), the daemon without
//! `--dispatch`). Delivery is **at-least-once** and merges are
//! **exactly-once**:
//!
//! - **Leases.** A remote assignment carries a lease duration and a
//!   heartbeat interval. A worker that keeps heartbeating keeps its lease; a
//!   worker that dies (or partitions away) lets the lease expire, and the
//!   shard is re-dispatched — after an exponential backoff — to the next
//!   worker that asks. An idle worker's ask blocks
//!   ([`Dispatcher::lease_wait`]) until a shard is grantable, so a new job
//!   starts without waiting for a poll. An in-process lease has no
//!   deadline: its holder is the calling thread, which always reports back,
//!   and a panic there is caught and reported as a failed attempt.
//! - **Attempt budgets.** Each lease grant counts against a per-shard
//!   budget. A failed attempt (a reported error, a panic, a rejected
//!   result, an expired lease) requeues the shard after its backoff; a shard
//!   that keeps failing is *quarantined* with a structured reason —
//!   reported, never dropped — and the job attempt fails, feeding the
//!   daemon's job-level poison ladder.
//! - **First valid result wins.** A completion is validated (strict
//!   [`read_shard`], header and geometry match) *before* it is accepted,
//!   then published atomically to the canonical shard path. A late
//!   completion from a worker whose lease was re-dispatched is discarded
//!   idempotently as a [`Completion::Duplicate`]; the merge gate
//!   ([`merge_shards`](crate::merge_shards)) still proves
//!   exactly-one-record-per-fault, so duplicated *delivery* can never
//!   become duplicated *results*.
//! - **Restart adoption.** [`Dispatcher::register_job`] re-reads the
//!   canonical shard files already on disk and marks the valid ones
//!   completed, so a daemon crash loses at most the leases, not the work.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use moa_netlist::{Circuit, Fault};
use moa_sim::TestSequence;

use crate::campaign::{panic_message, CampaignOptions};
use crate::canon::CanonHash;
use crate::checkpoint::{read_shard, CheckpointHeader};
use crate::error::Error;
use crate::shard::{partition, run_shard, shard_info, shard_path, ShardFailure};

/// The worker id of in-process leases (it appears in quarantine reasons).
const IN_PROCESS: &str = "in-process";

/// Dispatch policy knobs.
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// How long a worker may hold a shard without heartbeating before the
    /// lease expires and the shard is re-dispatched.
    pub lease: Duration,
    /// How often workers are told to heartbeat (must leave a few beats of
    /// slack inside the lease: `lease >= 2 * heartbeat` is enforced).
    pub heartbeat: Duration,
    /// Lease grants per shard (per job attempt) before the shard is
    /// quarantined.
    pub attempts: u32,
    /// Base delay before an expired/failed shard is re-dispatched; attempt
    /// `n`'s delay is `backoff * 2^(n-1)`, capped by the doubling count.
    pub backoff: Duration,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions {
            lease: Duration::from_secs(10),
            heartbeat: Duration::from_secs(2),
            attempts: 3,
            backoff: Duration::from_millis(100),
        }
    }
}

/// The dispatcher's answer to a worker asking for work.
#[derive(Debug, Clone)]
pub enum Lease {
    /// One shard, leased to the asking worker.
    Assigned(Assignment),
    /// Nothing became runnable within the wait (all shards leased, backing
    /// off, or no job registered). Ask again. Braced with no fields, so a
    /// `Lease::Idle { .. }` pattern stays valid and lint-clean.
    Idle {},
    /// The daemon is draining; the worker should disconnect.
    Draining,
}

/// One shard assignment.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The job's canonical hash.
    pub job: CanonHash,
    /// The assigned shard id.
    pub shard: usize,
    /// The job's shard count.
    pub shards: usize,
    /// Which lease grant this is for the shard (1-based).
    pub attempt: u32,
    /// Lease duration, milliseconds.
    pub lease_ms: u64,
    /// Heartbeat interval, milliseconds.
    pub heartbeat_ms: u64,
    /// The job-spec text. The worker re-parses and re-hashes it, so a
    /// result can only ever be computed against the content-addressed
    /// request it claims to answer.
    pub spec: String,
}

/// The dispatcher's answer to a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heartbeat {
    /// The lease is still this worker's; keep going.
    Held,
    /// The lease is gone (expired and re-dispatched, job withdrawn, or the
    /// daemon is draining). The worker should checkpoint and abandon.
    Lost,
}

/// The dispatcher's answer to a completed shard upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// Validated and published as the shard's canonical file.
    Accepted,
    /// Another (or an earlier) completion already published this shard; the
    /// upload was discarded idempotently.
    Duplicate,
    /// The upload failed validation, or the job is not registered here.
    Rejected {
        /// Why the upload was not accepted.
        reason: String,
    },
}

/// How a dispatched job ended.
#[derive(Debug)]
pub enum JobOutcome {
    /// Every shard completed; the canonical shard files, in shard order —
    /// the input for [`merge_shards`](crate::merge_shards).
    Done(Vec<PathBuf>),
    /// At least one shard exhausted its attempt budget. Completed shards
    /// keep their published files; the failures are reported, not dropped.
    Quarantined(Vec<ShardFailure>),
}

/// Aggregate dispatch-table counts for `moa status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Jobs registered in the dispatch table.
    pub jobs: usize,
    /// Shards waiting to be leased (including those in backoff).
    pub pending: usize,
    /// Shards currently leased to workers.
    pub leased: usize,
    /// Shards with a published canonical file.
    pub completed: usize,
    /// Shards that exhausted their attempt budget.
    pub quarantined: usize,
}

enum UnitState {
    /// Runnable once `not_before` passes (backoff after a failure).
    Pending { not_before: Instant },
    /// Leased to `worker`. A remote lease expires at `deadline` unless
    /// heartbeats push it out; an in-process lease has no deadline.
    Leased {
        worker: String,
        deadline: Option<Instant>,
    },
    /// The canonical shard file is published.
    Completed,
    /// Attempt budget exhausted.
    Quarantined { reason: String },
}

struct Unit {
    state: UnitState,
    /// Lease grants so far (1-based once leased).
    attempts: u32,
}

struct JobTable {
    spec_text: String,
    header: CheckpointHeader,
    dir: PathBuf,
    units: Vec<Unit>,
}

impl JobTable {
    /// Faults covered by the completed shards.
    fn completed_faults(&self) -> usize {
        partition(self.header.total_faults, self.units.len())
            .into_iter()
            .zip(&self.units)
            .filter(|(_, unit)| matches!(unit.state, UnitState::Completed))
            .map(|(range, _)| range.len())
            .sum()
    }
}

struct DispatchInner {
    jobs: BTreeMap<CanonHash, JobTable>,
    draining: bool,
}

/// The in-process driver's next move for its job.
enum Step {
    /// Run `shard`, now leased to the calling thread; `attempt` is the
    /// shard's lease grant count.
    Run { shard: usize, attempt: u32 },
    /// Every unfinished shard is backing off; the first becomes runnable
    /// at this instant.
    Sleep(Instant),
    /// No shard is pending: every one is completed or quarantined.
    Finished,
}

/// The shard lease table: leases, heartbeats, re-dispatch, completion
/// validation, backoff and quarantine. Shared between the daemon's job
/// workers (which register, drive in-process shards, and wait) and its
/// connection handlers (which lease, heartbeat and complete on behalf of
/// remote workers).
pub struct Dispatcher {
    inner: Mutex<DispatchInner>,
    /// Signalled on registration, withdrawal, completion, failure and
    /// drain, so `wait_job` and blocked leases wake.
    progress: Condvar,
    shards: usize,
    options: DispatchOptions,
}

impl Dispatcher {
    /// Builds a dispatcher partitioning every job into `shards` shards.
    pub fn new(shards: usize, options: DispatchOptions) -> Result<Dispatcher, Error> {
        if shards == 0 {
            return Err(Error::Dispatch {
                message: "shard count must be at least 1".into(),
            });
        }
        if options.attempts == 0 {
            return Err(Error::Dispatch {
                message: "shard attempt budget must be at least 1".into(),
            });
        }
        if options.heartbeat.is_zero() || options.lease < options.heartbeat * 2 {
            return Err(Error::Dispatch {
                message: format!(
                    "lease ({:?}) must be at least twice the heartbeat interval ({:?}), \
                     or a single delayed beat would expire a healthy worker's lease",
                    options.lease, options.heartbeat
                ),
            });
        }
        Ok(Dispatcher {
            inner: Mutex::new(DispatchInner {
                jobs: BTreeMap::new(),
                draining: false,
            }),
            progress: Condvar::new(),
            shards,
            options,
        })
    }

    /// The policy this dispatcher runs under.
    pub fn options(&self) -> &DispatchOptions {
        &self.options
    }

    /// Every critical section leaves the table consistent (each state change
    /// is a single assignment), so a lock poisoned by an unrelated panic
    /// still guards sound data.
    fn lock(&self) -> MutexGuard<'_, DispatchInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-registers) a job whose shard files live in `dir`
    /// and carry the campaign identity `header`. `spec` is the job-spec text
    /// handed to remote workers with each assignment. Idempotent: a job
    /// already in the table keeps its state. Canonical shard files already
    /// on disk that strictly validate against `header` are adopted as
    /// completed — a restarted daemon re-leases only the missing shards.
    pub fn register_job(
        &self,
        hash: CanonHash,
        header: CheckpointHeader,
        dir: PathBuf,
        spec: String,
    ) -> Result<(), Error> {
        std::fs::create_dir_all(&dir).map_err(|e| Error::Dispatch {
            message: format!("cannot create shard directory {}: {e}", dir.display()),
        })?;
        let now = Instant::now();
        let units: Vec<Unit> = (0..self.shards)
            .map(|k| Unit {
                state: if shard_file_is_complete(&shard_path(&dir, k), &header, self.shards, k) {
                    UnitState::Completed
                } else {
                    UnitState::Pending { not_before: now }
                },
                attempts: 0,
            })
            .collect();
        self.lock().jobs.entry(hash).or_insert(JobTable {
            spec_text: spec,
            header,
            dir,
            units,
        });
        self.progress.notify_all();
        Ok(())
    }

    /// Removes a job from the table (after its attempt ends). Outstanding
    /// leases die with it: the holders' next heartbeat answers
    /// [`Heartbeat::Lost`] and they abandon the shard.
    pub fn forget_job(&self, hash: CanonHash) -> Result<(), Error> {
        self.lock().jobs.remove(&hash);
        self.progress.notify_all();
        Ok(())
    }

    /// Stops handing out remote work: every blocked and every subsequent
    /// [`lease_wait`](Self::lease_wait) answers [`Lease::Draining`] and
    /// every heartbeat answers [`Heartbeat::Lost`], so remote workers
    /// checkpoint and disconnect at their next probe.
    pub fn drain(&self) -> Result<(), Error> {
        self.lock().draining = true;
        self.progress.notify_all();
        Ok(())
    }

    /// Asks for one shard of work on behalf of `worker`, answering at once.
    pub fn lease(&self, worker: &str) -> Result<Lease, Error> {
        self.lease_wait(worker, Duration::ZERO, || false)
    }

    /// Asks for one shard of work on behalf of `worker`, waiting up to
    /// `wait` for one to become grantable. Answers [`Lease::Draining`] as
    /// soon as draining starts, and [`Lease::Idle`] once `wait` passes.
    ///
    /// The wait sleeps on the progress condvar, which `register_job`,
    /// `forget_job`, a publish, `fail` and `drain` notify, with a timeout at
    /// the next backoff end or remote lease deadline, so an expiring backoff
    /// or lease wakes it without a timer thread.
    /// `gone` is asked, with the table locked, before every grant: once it
    /// answers `true` (the asking worker hung up), nothing is granted and
    /// the call returns.
    pub fn lease_wait(
        &self,
        worker: &str,
        wait: Duration,
        gone: impl Fn() -> bool,
    ) -> Result<Lease, Error> {
        validate_worker_id(worker)?;
        refuse_lease()?;
        let cap = Instant::now() + wait;
        let mut inner = self.lock();
        loop {
            if inner.draining {
                return Ok(Lease::Draining);
            }
            if gone() {
                return Ok(Lease::Idle {});
            }
            let now = Instant::now();
            let deadline = now + self.options.lease;
            if let Some((job, shard, attempt)) =
                grant(&mut inner, None, worker, Some(deadline), now, &self.options)
            {
                let table = &inner.jobs[&job];
                return Ok(Lease::Assigned(Assignment {
                    job,
                    shard,
                    shards: table.units.len(),
                    attempt,
                    lease_ms: duration_ms(self.options.lease),
                    heartbeat_ms: duration_ms(self.options.heartbeat),
                    spec: table.spec_text.clone(),
                }));
            }
            if now >= cap {
                return Ok(Lease::Idle {});
            }
            let wake = next_change(&inner).map_or(cap, |at| at.min(cap));
            inner = self
                .progress
                .wait_timeout(inner, wake.saturating_duration_since(now))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Leases one of `job`'s runnable shards to the calling thread, without
    /// a deadline. Refused by the same failpoint as a remote lease; blind to
    /// drain, which the in-process driver observes through its own cancel
    /// probe.
    fn lease_in_process(&self, job: CanonHash) -> Result<Step, Error> {
        refuse_lease()?;
        let now = Instant::now();
        let mut inner = self.lock();
        if let Some((_, shard, attempt)) =
            grant(&mut inner, Some(job), IN_PROCESS, None, now, &self.options)
        {
            return Ok(Step::Run { shard, attempt });
        }
        let next = inner.jobs.get(&job).and_then(|table| {
            table
                .units
                .iter()
                .filter_map(|unit| match unit.state {
                    UnitState::Pending { not_before } => Some(not_before),
                    _ => None,
                })
                .min()
        });
        Ok(next.map_or(Step::Finished, Step::Sleep))
    }

    /// Extends `worker`'s lease on `(job, shard)` — if it still holds one.
    pub fn heartbeat(&self, worker: &str, job: CanonHash, shard: usize) -> Result<Heartbeat, Error> {
        validate_worker_id(worker)?;
        let now = Instant::now();
        let mut inner = self.lock();
        if inner.draining {
            return Ok(Heartbeat::Lost);
        }
        expire_leases(&mut inner, now, &self.options);
        if let Some(unit) = inner
            .jobs
            .get_mut(&job)
            .and_then(|j| j.units.get_mut(shard))
        {
            if let UnitState::Leased {
                worker: holder,
                deadline: Some(deadline),
            } = &mut unit.state
            {
                if holder == worker {
                    *deadline = now + self.options.lease;
                    return Ok(Heartbeat::Held);
                }
            }
        }
        Ok(Heartbeat::Lost)
    }

    /// Accepts a finished shard file from `worker`: the bytes are staged in
    /// a per-worker temp file and [published](Self::publish) from there.
    pub fn complete(
        &self,
        worker: &str,
        job: CanonHash,
        shard: usize,
        bytes: &[u8],
    ) -> Result<Completion, Error> {
        validate_worker_id(worker)?;
        let dir = match self.target(job, shard) {
            Ok((_, dir)) => dir,
            Err(reason) => return Ok(Completion::Rejected { reason }),
        };
        let tmp = dir.join(format!("shard-{shard}.{worker}.tmp"));
        if let Err(e) = std::fs::write(&tmp, bytes) {
            return Err(Error::Dispatch {
                message: format!("cannot stage upload {}: {e}", tmp.display()),
            });
        }
        let outcome = self.publish(job, shard, &tmp);
        if !matches!(outcome, Ok(Completion::Accepted)) {
            let _ = std::fs::remove_file(&tmp);
        }
        outcome
    }

    /// Strictly validates the shard file at `file` ([`read_shard`] plus
    /// header/geometry checks) and only then renames it atomically onto the
    /// canonical shard path — the first valid result wins, later ones are
    /// [`Completion::Duplicate`]s. A file that is not published stays where
    /// it is.
    fn publish(&self, job: CanonHash, shard: usize, file: &Path) -> Result<Completion, Error> {
        // Snapshot the identity under the lock, validate outside it (the
        // strict read re-parses the whole file; holding the table across
        // that would stall every heartbeat).
        let (header, dir) = match self.target(job, shard) {
            Ok(target) => target,
            Err(reason) => return Ok(Completion::Rejected { reason }),
        };
        if let Err(reason) = validate_shard_upload(file, &header, self.shards, shard) {
            return Ok(Completion::Rejected { reason });
        }
        let canonical = shard_path(&dir, shard);
        let mut inner = self.lock();
        let Some(unit) = inner
            .jobs
            .get_mut(&job)
            .and_then(|j| j.units.get_mut(shard))
        else {
            // The job was withdrawn while we validated.
            return Ok(Completion::Rejected {
                reason: format!("job {job} is not registered for dispatch"),
            });
        };
        if matches!(unit.state, UnitState::Completed) {
            return Ok(Completion::Duplicate);
        }
        std::fs::rename(file, &canonical).map_err(|e| Error::Dispatch {
            message: format!("cannot publish {}: {e}", canonical.display()),
        })?;
        unit.state = UnitState::Completed;
        drop(inner);
        self.progress.notify_all();
        Ok(Completion::Accepted)
    }

    /// The identity and shard directory a result for `(job, shard)` must
    /// match, or why no result for it can be accepted.
    fn target(&self, job: CanonHash, shard: usize) -> Result<(CheckpointHeader, PathBuf), String> {
        let inner = self.lock();
        let table = inner
            .jobs
            .get(&job)
            .ok_or_else(|| format!("job {job} is not registered for dispatch"))?;
        if shard >= table.units.len() {
            return Err(format!(
                "shard {shard} out of range for {} shard(s)",
                table.units.len()
            ));
        }
        Ok((table.header.clone(), table.dir.clone()))
    }

    /// Reports a failed shard attempt from `worker` (the shard runner
    /// errored, as opposed to the worker dying). Requeues with backoff
    /// below the attempt budget, quarantines at it. A report from a worker
    /// that no longer holds the lease is ignored.
    pub fn fail(
        &self,
        worker: &str,
        job: CanonHash,
        shard: usize,
        error: &str,
    ) -> Result<(), Error> {
        validate_worker_id(worker)?;
        let now = Instant::now();
        let budget = self.options.attempts;
        let backoff = self.options.backoff;
        let mut inner = self.lock();
        let Some(unit) = inner
            .jobs
            .get_mut(&job)
            .and_then(|j| j.units.get_mut(shard))
        else {
            return Ok(());
        };
        let UnitState::Leased { worker: holder, .. } = &unit.state else {
            return Ok(());
        };
        if holder != worker {
            return Ok(());
        }
        if unit.attempts >= budget {
            unit.state = UnitState::Quarantined {
                reason: format!(
                    "shard {shard} failed {} of {budget} attempt(s); \
                     last error from worker `{worker}`: {error}",
                    unit.attempts
                ),
            };
        } else {
            unit.state = UnitState::Pending {
                not_before: now + backoff_delay(backoff, unit.attempts as usize),
            };
        }
        drop(inner);
        self.progress.notify_all();
        Ok(())
    }

    /// Runs `job`'s shards on the calling thread until none is pending.
    /// Each round leases a shard in-process, runs it with [`run_shard`] in
    /// the job directory's `scratch/` subdirectory (so a partial checkpoint
    /// never sits at the canonical path), and then either
    /// [publishes](Self::publish) the result or reports the error, panic or
    /// rejection through [`fail`](Self::fail), which requeues the shard
    /// after its backoff or quarantines it. Sleeps only while every
    /// unfinished shard is backing off.
    ///
    /// `base.cancel` is polled before each lease and by each shard's
    /// campaign; a trip returns [`Error::Interrupted`], leaving the
    /// interrupted shard's partial checkpoint in scratch for the next run
    /// to resume. Otherwise returns the retried attempts (lease grants
    /// beyond each shard's first); [`wait_job`](Self::wait_job) then reports
    /// how the job ended.
    pub(crate) fn run_in_process(
        &self,
        job: CanonHash,
        circuit: &Circuit,
        seq: &TestSequence,
        faults: &[Fault],
        base: &CampaignOptions,
    ) -> Result<u64, Error> {
        let scratch = self
            .lock()
            .jobs
            .get(&job)
            .map(|table| table.dir.join("scratch"))
            .ok_or_else(|| Error::Dispatch {
                message: format!("job {job} is not registered for dispatch"),
            })?;
        let interrupted = |partial: usize| Error::Interrupted {
            completed: self.lock().jobs.get(&job).map_or(0, JobTable::completed_faults) + partial,
            total: faults.len(),
        };
        let mut retried = 0;
        loop {
            if base.cancel.as_ref().is_some_and(|probe| probe()) {
                return Err(interrupted(0));
            }
            let (shard, attempt) = match self.lease_in_process(job) {
                Ok(Step::Run { shard, attempt }) => (shard, attempt),
                Ok(Step::Sleep(until)) => {
                    std::thread::sleep(until.saturating_duration_since(Instant::now()));
                    continue;
                }
                Ok(Step::Finished) => {
                    // Empty once every shard is published; quarantined
                    // shards keep their partial checkpoints for a rerun.
                    let _ = std::fs::remove_dir(&scratch);
                    return Ok(retried);
                }
                // A refused lease is transient: ask again.
                Err(_) => continue,
            };
            if attempt > 1 {
                retried += 1;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_shard(circuit, seq, faults, base, self.shards, shard, &scratch)?;
                self.publish(job, shard, &shard_path(&scratch, shard))
            }));
            let error = match outcome {
                Ok(Ok(Completion::Accepted | Completion::Duplicate)) => continue,
                Ok(Ok(Completion::Rejected { reason })) => reason,
                Ok(Err(Error::Interrupted { completed, .. })) => return Err(interrupted(completed)),
                Ok(Err(e)) => e.to_string(),
                Err(payload) => {
                    format!("shard worker panicked: {}", panic_message(payload.as_ref()))
                }
            };
            self.fail(IN_PROCESS, job, shard, &error)?;
        }
    }

    /// Blocks until `hash` reaches a terminal state: every shard completed
    /// ([`JobOutcome::Done`]) or every shard terminal with at least one
    /// quarantine ([`JobOutcome::Quarantined`]). `cancel` is polled between
    /// waits; a trip returns [`Error::Interrupted`], counting the faults of
    /// the completed shards, without touching the table. The wait loop also
    /// runs lease expiry, so dead workers are detected even when no worker
    /// traffic arrives.
    pub fn wait_job(
        &self,
        hash: CanonHash,
        cancel: impl Fn() -> bool,
    ) -> Result<JobOutcome, Error> {
        let mut inner = self.lock();
        loop {
            expire_leases(&mut inner, Instant::now(), &self.options);
            let Some(job) = inner.jobs.get(&hash) else {
                return Err(Error::Dispatch {
                    message: format!("job {hash} is not registered for dispatch"),
                });
            };
            let mut files = Vec::with_capacity(job.units.len());
            let mut failures = Vec::new();
            let mut terminal = true;
            for (k, unit) in job.units.iter().enumerate() {
                match &unit.state {
                    UnitState::Completed => files.push(shard_path(&job.dir, k)),
                    UnitState::Quarantined { reason } => failures.push(ShardFailure {
                        shard_id: k,
                        attempts: unit.attempts as usize,
                        last_error: reason.clone(),
                    }),
                    UnitState::Pending { .. } | UnitState::Leased { .. } => terminal = false,
                }
            }
            if terminal {
                return Ok(if failures.is_empty() {
                    JobOutcome::Done(files)
                } else {
                    JobOutcome::Quarantined(failures)
                });
            }
            if cancel() {
                return Err(Error::Interrupted {
                    completed: job.completed_faults(),
                    total: job.header.total_faults,
                });
            }
            inner = self
                .progress
                .wait_timeout(inner, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Aggregate counts for `moa status`.
    pub fn stats(&self) -> Result<DispatchStats, Error> {
        let mut inner = self.lock();
        expire_leases(&mut inner, Instant::now(), &self.options);
        let mut stats = DispatchStats {
            jobs: inner.jobs.len(),
            ..DispatchStats::default()
        };
        for job in inner.jobs.values() {
            for unit in &job.units {
                match unit.state {
                    UnitState::Pending { .. } => stats.pending += 1,
                    UnitState::Leased { .. } => stats.leased += 1,
                    UnitState::Completed => stats.completed += 1,
                    UnitState::Quarantined { .. } => stats.quarantined += 1,
                }
            }
        }
        Ok(stats)
    }
}

/// Leases the first runnable shard — of job `only`, or of any job — to
/// `worker` until `deadline` (`None`: an in-process lease), after running
/// lease expiry. Returns the job, the shard and its lease grant count.
fn grant(
    inner: &mut DispatchInner,
    only: Option<CanonHash>,
    worker: &str,
    deadline: Option<Instant>,
    now: Instant,
    options: &DispatchOptions,
) -> Option<(CanonHash, usize, u32)> {
    expire_leases(inner, now, options);
    for (hash, job) in &mut inner.jobs {
        if only.is_some_and(|only| only != *hash) {
            continue;
        }
        for (k, unit) in job.units.iter_mut().enumerate() {
            if matches!(unit.state, UnitState::Pending { not_before } if not_before <= now) {
                unit.attempts += 1;
                unit.state = UnitState::Leased {
                    worker: worker.to_owned(),
                    deadline,
                };
                return Some((*hash, k, unit.attempts));
            }
        }
    }
    None
}

/// The earliest instant at which the table changes without a notify: a
/// backoff that ends or a remote lease that expires.
fn next_change(inner: &DispatchInner) -> Option<Instant> {
    inner
        .jobs
        .values()
        .flat_map(|job| &job.units)
        .filter_map(|unit| match unit.state {
            UnitState::Pending { not_before } => Some(not_before),
            UnitState::Leased { deadline, .. } => deadline,
            UnitState::Completed | UnitState::Quarantined { .. } => None,
        })
        .min()
}

/// The `fp/dispatch.lease` failpoint: an injected refusal is a transient
/// error for remote and in-process lessees alike.
#[cfg_attr(not(feature = "failpoints"), allow(clippy::unnecessary_wraps))]
fn refuse_lease() -> Result<(), Error> {
    #[cfg(feature = "failpoints")]
    if let Some(e) = crate::failpoint::io_error("fp/dispatch.lease") {
        return Err(Error::Dispatch {
            message: format!("lease refused: {e}"),
        });
    }
    Ok(())
}

/// The delay before re-leasing after failed attempt `attempt` (1-based):
/// `base * 2^(attempt-1)`, with the doubling capped at `2^16` so large
/// attempt budgets cannot overflow the shift, and the product saturating.
fn backoff_delay(base: Duration, attempt: usize) -> Duration {
    base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
}

/// Expires overdue remote leases: requeue with exponential backoff below
/// the attempt budget, quarantine at it. Called with the table locked from
/// every entry point, so expiry needs no timer thread.
fn expire_leases(inner: &mut DispatchInner, now: Instant, options: &DispatchOptions) {
    for job in inner.jobs.values_mut() {
        for (k, unit) in job.units.iter_mut().enumerate() {
            let UnitState::Leased {
                worker,
                deadline: Some(deadline),
            } = &unit.state
            else {
                continue;
            };
            if *deadline > now {
                continue;
            }
            if unit.attempts >= options.attempts {
                unit.state = UnitState::Quarantined {
                    reason: format!(
                        "shard {k}: lease expired on worker `{worker}` and the budget of \
                         {} attempt(s) is exhausted (worker crashed, partitioned, or \
                         stopped heartbeating)",
                        options.attempts
                    ),
                };
            } else {
                // Backoff counts from when the lease *expired*, not from
                // this scan: an expiry discovered late (no worker traffic)
                // must not push the re-dispatch even further out.
                unit.state = UnitState::Pending {
                    not_before: *deadline + backoff_delay(options.backoff, unit.attempts as usize),
                };
            }
        }
    }
}

#[allow(clippy::cast_possible_truncation)]
fn duration_ms(d: Duration) -> u64 {
    d.as_millis().min(u128::from(u64::MAX)) as u64
}

/// Worker ids appear in temp-file names and log lines; keep them short and
/// filesystem-safe.
fn validate_worker_id(worker: &str) -> Result<(), Error> {
    let ok = !worker.is_empty()
        && worker.len() <= 64
        && worker
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(Error::Dispatch {
            message: format!(
                "invalid worker id `{worker}`: need 1-64 characters from [A-Za-z0-9._-]"
            ),
        })
    }
}

/// Strictly validates an uploaded shard file against the job's identity and
/// the shard's place in the partition. Returns the rejection reason.
fn validate_shard_upload(
    path: &Path,
    header: &CheckpointHeader,
    shards: usize,
    shard: usize,
) -> Result<(), String> {
    let file = read_shard(path).map_err(|e| format!("upload failed strict validation: {e}"))?;
    if file.header != *header {
        return Err(format!(
            "upload is for a different campaign (circuit `{}`, {} faults, seq {}; \
             expected circuit `{}`, {} faults, seq {})",
            file.header.circuit,
            file.header.total_faults,
            file.header.seq_len,
            header.circuit,
            header.total_faults,
            header.seq_len
        ));
    }
    let want = shard_info(header.total_faults, shards, shard);
    if file.shard != want {
        return Err(format!(
            "upload's shard geometry {:?} does not match the assignment {want:?}",
            file.shard
        ));
    }
    if file.records.len() as u64 != want.len {
        return Err(format!(
            "upload has {} of {} record(s): the shard is incomplete",
            file.records.len(),
            want.len
        ));
    }
    Ok(())
}

/// Is the canonical shard file on disk already a complete, valid result for
/// this job? (Restart adoption.) Damaged or foreign files are removed so a
/// later publish cannot be confused with them.
fn shard_file_is_complete(
    path: &Path,
    header: &CheckpointHeader,
    shards: usize,
    shard: usize,
) -> bool {
    if !path.exists() {
        return false;
    }
    if validate_shard_upload(path, header, shards, shard).is_ok() {
        return true;
    }
    let _ = std::fs::remove_file(path);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignOptions};
    use crate::canon::verdict_digest;
    use crate::shard::merge_shards;
    use crate::spool::{JobSpec, Spool};
    use moa_circuits::iscas::S27_BENCH;
    use moa_tpg::random_sequence;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "moa-dispatch-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn s27_spec() -> JobSpec {
        let circuit = moa_circuits::iscas::s27();
        let seq = random_sequence(&circuit, 12, 7);
        JobSpec::new(S27_BENCH, &seq.to_text(), CampaignOptions::new()).expect("valid spec")
    }

    /// Registers a spooled job the way the daemon does.
    fn register(d: &Dispatcher, spool: &Spool, hash: CanonHash) {
        let spec = spool.load_spec(hash).expect("load spec");
        let header = CheckpointHeader {
            circuit: spec.circuit.name().to_owned(),
            total_faults: moa_netlist::full_fault_list(&spec.circuit).len(),
            seq_len: spec.seq.len(),
        };
        d.register_job(hash, header, spool.shards_dir(hash), spec.to_text())
            .expect("register");
    }

    /// A spool holding the s27 job, registered nowhere yet.
    fn spooled(tag: &str) -> (Spool, CanonHash, PathBuf) {
        let dir = temp_dir(tag);
        let spool = Spool::open(&dir).expect("open spool");
        let (hash, fresh) = spool.admit(&s27_spec()).expect("admit");
        assert!(fresh);
        (spool, hash, dir)
    }

    /// A spool holding the s27 job, and a dispatcher with the job registered.
    fn dispatcher(tag: &str, shards: usize, options: DispatchOptions) -> (Dispatcher, CanonHash, PathBuf) {
        let (spool, hash, dir) = spooled(tag);
        let dispatcher = Dispatcher::new(shards, options).expect("dispatcher");
        register(&dispatcher, &spool, hash);
        (dispatcher, hash, dir)
    }

    /// The wait of the blocked leases below: far beyond every wake they
    /// expect, so a grant that only came at the cap shows as a failure.
    const CAP: Duration = Duration::from_secs(5);

    /// Blocks `worker` in [`Dispatcher::lease_wait`] on a second thread while
    /// `act` runs on this one; returns the answer and when it arrived.
    fn blocked_lease(
        d: &Dispatcher,
        worker: &str,
        gone: impl Fn() -> bool + Sync,
        act: impl FnOnce(),
    ) -> (Lease, Instant) {
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let lease = d.lease_wait(worker, CAP, &gone).expect("lease");
                (lease, Instant::now())
            });
            act();
            waiter.join().expect("waiter")
        })
    }

    /// Long enough for the waiter thread to be blocked before the table
    /// changes.
    fn let_it_block() {
        std::thread::sleep(Duration::from_millis(100));
    }

    /// Runs the assignment's shard the way a remote worker would (into its
    /// own scratch dir) and returns the shard-file bytes.
    fn run_assignment(a: &Assignment, scratch: &std::path::Path) -> Vec<u8> {
        let spec = JobSpec::parse(&a.spec).expect("assignment spec parses");
        assert_eq!(spec.hash(), a.job, "assignment spec matches its content address");
        let faults = moa_netlist::full_fault_list(&spec.circuit);
        run_shard(
            &spec.circuit,
            &spec.seq,
            &faults,
            &spec.options,
            a.shards,
            a.shard,
            scratch,
        )
        .expect("shard runs");
        std::fs::read(shard_path(scratch, a.shard)).expect("shard file")
    }

    fn assignment(lease: Lease) -> Assignment {
        match lease {
            Lease::Assigned(a) => a,
            other => panic!("expected an assignment, got {other:?}"),
        }
    }

    fn quick() -> DispatchOptions {
        DispatchOptions {
            lease: Duration::from_millis(100),
            heartbeat: Duration::from_millis(20),
            backoff: Duration::from_millis(1),
            ..DispatchOptions::default()
        }
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
    fn options_are_validated() {
        let bad_lease = DispatchOptions {
            lease: Duration::from_millis(10),
            heartbeat: Duration::from_millis(9),
            ..DispatchOptions::default()
        };
        assert!(Dispatcher::new(2, bad_lease).is_err());
        let bad_attempts = DispatchOptions {
            attempts: 0,
            ..DispatchOptions::default()
        };
        assert!(Dispatcher::new(2, bad_attempts).is_err());
        assert!(Dispatcher::new(0, DispatchOptions::default()).is_err());
    }

    #[test]
    fn worker_ids_are_validated() {
        let (d, _, dir) = dispatcher("wid", 2, quick());
        for bad in ["", "a b", "x/../y", "né", &"x".repeat(65)] {
            assert!(d.lease(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(d.lease("worker-1.local_0").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leases_cover_each_shard_once_then_idle() {
        let (d, hash, dir) = dispatcher("cover", 2, quick());
        let a = assignment(d.lease("wa").expect("lease"));
        let b = assignment(d.lease("wb").expect("lease"));
        assert_eq!(a.job, hash);
        assert_eq!(a.attempt, 1);
        let mut shards = [a.shard, b.shard];
        shards.sort_unstable();
        assert_eq!(shards, [0, 1], "both shards leased exactly once");
        assert!(matches!(d.lease("wc").expect("lease"), Lease::Idle {}));
        let stats = d.stats().expect("stats");
        assert_eq!((stats.jobs, stats.leased, stats.pending), (1, 2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite coverage: lease expiry → re-dispatch to a second worker,
    /// and the original worker's late completion is discarded idempotently
    /// — the merge still sees exactly one record per fault and reproduces
    /// the direct campaign bit-for-bit.
    #[test]
    fn expired_lease_redispatches_and_late_completion_is_duplicate() {
        let options = DispatchOptions {
            lease: Duration::from_millis(40),
            heartbeat: Duration::from_millis(20),
            backoff: Duration::from_millis(1),
            attempts: 5,
        };
        let (d, hash, dir) = dispatcher("expiry", 1, options);
        let a = assignment(d.lease("worker-a").expect("lease"));
        assert_eq!(a.shard, 0);

        // worker-a goes silent; its lease expires and the shard re-leases.
        std::thread::sleep(Duration::from_millis(60));
        let b = assignment(d.lease("worker-b").expect("lease"));
        assert_eq!(b.shard, 0);
        assert_eq!(b.attempt, 2, "second lease grant for the same shard");
        assert_eq!(
            d.heartbeat("worker-a", hash, 0).expect("heartbeat"),
            Heartbeat::Lost,
            "the original worker learns its lease is gone"
        );

        // worker-b finishes first; worker-a's identical result arrives late.
        let scratch_b = temp_dir("expiry-b");
        let bytes_b = run_assignment(&b, &scratch_b);
        assert_eq!(
            d.complete("worker-b", hash, 0, &bytes_b).expect("complete"),
            Completion::Accepted
        );
        let scratch_a = temp_dir("expiry-a");
        let bytes_a = run_assignment(&a, &scratch_a);
        assert_eq!(
            d.complete("worker-a", hash, 0, &bytes_a).expect("complete"),
            Completion::Duplicate,
            "late completion is discarded idempotently"
        );

        // The merge proves exactly-once results despite at-least-once
        // delivery, bit-identical to the direct run.
        let JobOutcome::Done(files) = d.wait_job(hash, || false).expect("wait") else {
            panic!("job must complete");
        };
        let spec = s27_spec();
        let faults = moa_netlist::full_fault_list(&spec.circuit);
        let merged =
            merge_shards(&spec.circuit, &spec.seq, &faults, &spec.options, &files).expect("merge");
        assert_eq!(merged.records, faults.len(), "exactly one record per fault");
        let direct = run_campaign(&spec.circuit, &spec.seq, &faults, &spec.options);
        assert_eq!(verdict_digest(&merged.result), verdict_digest(&direct));
        for p in [dir, scratch_a, scratch_b] {
            let _ = std::fs::remove_dir_all(&p);
        }
    }

    /// Satellite coverage: heartbeats keep a slow-but-alive worker's lease
    /// from being re-dispatched.
    #[test]
    fn heartbeats_keep_a_slow_shard_leased() {
        let options = DispatchOptions {
            lease: Duration::from_millis(50),
            heartbeat: Duration::from_millis(20),
            backoff: Duration::from_millis(1),
            ..DispatchOptions::default()
        };
        let (d, hash, dir) = dispatcher("slow", 1, options);
        let a = assignment(d.lease("slowpoke").expect("lease"));
        // Run well past the bare lease, heartbeating the whole time.
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                d.heartbeat("slowpoke", hash, a.shard).expect("heartbeat"),
                Heartbeat::Held
            );
            assert!(
                matches!(d.lease("thief").expect("lease"), Lease::Idle {}),
                "a heartbeating lease must not be re-dispatched"
            );
        }
        let scratch = temp_dir("slow-scratch");
        let bytes = run_assignment(&a, &scratch);
        assert_eq!(
            d.complete("slowpoke", hash, 0, &bytes).expect("complete"),
            Completion::Accepted
        );
        assert!(matches!(
            d.wait_job(hash, || false).expect("wait"),
            JobOutcome::Done(_)
        ));
        for p in [dir, scratch] {
            let _ = std::fs::remove_dir_all(&p);
        }
    }

    /// Crash-looping shards exhaust their attempt budget and are
    /// quarantined with a structured reason — reported, never dropped.
    #[test]
    fn attempt_budget_quarantines_crash_looping_shards() {
        let options = DispatchOptions {
            lease: Duration::from_millis(20),
            heartbeat: Duration::from_millis(10),
            backoff: Duration::from_millis(1),
            attempts: 2,
        };
        let (d, hash, dir) = dispatcher("poison", 1, options);
        for attempt in 1..=2 {
            let a = assignment(d.lease("crashy").expect("lease"));
            assert_eq!(a.attempt, attempt);
            // The worker dies without completing; wait out the lease (plus
            // backoff before the next grant).
            std::thread::sleep(Duration::from_millis(30));
        }
        let JobOutcome::Quarantined(failures) = d.wait_job(hash, || false).expect("wait") else {
            panic!("the shard must quarantine after its budget");
        };
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shard_id, 0);
        assert_eq!(failures[0].attempts, 2);
        assert!(
            failures[0].last_error.contains("lease expired"),
            "the reason names the failure mode: {}",
            failures[0].last_error
        );
        assert!(matches!(d.lease("late").expect("lease"), Lease::Idle {}));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An explicit failure report requeues below the budget (with backoff)
    /// and quarantines at it, carrying the worker's error text.
    #[test]
    fn reported_failures_requeue_then_quarantine() {
        let options = DispatchOptions {
            attempts: 2,
            backoff: Duration::from_millis(1),
            ..quick()
        };
        let (d, hash, dir) = dispatcher("fail", 1, options);
        let a = assignment(d.lease("w1").expect("lease"));
        d.fail("w1", hash, a.shard, "injected shard error").expect("fail");
        std::thread::sleep(Duration::from_millis(5));
        let b = assignment(d.lease("w2").expect("lease"));
        assert_eq!(b.attempt, 2);
        d.fail("w2", hash, b.shard, "still broken").expect("fail");
        let JobOutcome::Quarantined(failures) = d.wait_job(hash, || false).expect("wait") else {
            panic!("must quarantine at the budget");
        };
        assert!(failures[0].last_error.contains("still broken"));
        // A stale failure report from the first worker changes nothing.
        d.fail("w1", hash, 0, "ancient history").expect("stale fail");
        assert!(matches!(
            d.wait_job(hash, || false).expect("wait"),
            JobOutcome::Quarantined(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Garbage, truncated and wrong-geometry uploads are rejected before
    /// they can touch the canonical shard path.
    #[test]
    fn invalid_uploads_are_rejected() {
        let (d, hash, dir) = dispatcher("reject", 2, quick());
        let a = assignment(d.lease("w").expect("lease"));
        match d.complete("w", hash, a.shard, b"not a shard file").expect("complete") {
            Completion::Rejected { reason } => {
                assert!(reason.contains("strict validation"), "{reason}");
            }
            other => panic!("garbage must be rejected: {other:?}"),
        }
        // A valid file for the *other* shard must not publish as this one.
        let other_shard = 1 - a.shard;
        let scratch = temp_dir("reject-scratch");
        let spec = s27_spec();
        let faults = moa_netlist::full_fault_list(&spec.circuit);
        run_shard(&spec.circuit, &spec.seq, &faults, &spec.options, 2, other_shard, &scratch)
            .expect("shard runs");
        let bytes = std::fs::read(shard_path(&scratch, other_shard)).expect("bytes");
        match d.complete("w", hash, a.shard, &bytes).expect("complete") {
            Completion::Rejected { reason } => {
                assert!(reason.contains("geometry"), "{reason}");
            }
            other => panic!("wrong shard must be rejected: {other:?}"),
        }
        // Unknown jobs reject cleanly too.
        let bogus = CanonHash(0xDEAD_BEEF);
        assert!(matches!(
            d.complete("w", bogus, 0, &bytes).expect("complete"),
            Completion::Rejected { .. }
        ));
        for p in [dir, scratch] {
            let _ = std::fs::remove_dir_all(&p);
        }
    }

    /// An upload whose header declares 2^40 faults is rejected without
    /// allocating by that count: the dispatcher keeps serving, and the
    /// shard stays open for a valid result.
    #[test]
    fn oversized_shard_header_upload_is_rejected() {
        let (d, hash, dir) = dispatcher("oversized", 1, quick());
        let a = assignment(d.lease("w").expect("lease"));
        let bytes = crate::checkpoint::OVERSIZED_SHARD_HEADER;
        match d.complete("w", hash, a.shard, bytes).expect("complete") {
            Completion::Rejected { reason } => {
                assert!(reason.contains("missing end-of-shard trailer"), "{reason}");
            }
            other => panic!("the crafted upload must be rejected: {other:?}"),
        }
        assert_eq!(d.stats().expect("stats").completed, 0);
        d.fail("w", hash, a.shard, "upload rejected").expect("fail");
        std::thread::sleep(Duration::from_millis(5));
        let again = assignment(d.lease("w2").expect("lease"));
        assert_eq!(again.shard, a.shard, "the shard is leased again");
        let scratch = temp_dir("oversized-scratch");
        let valid = run_assignment(&again, &scratch);
        assert_eq!(
            d.complete("w2", hash, again.shard, &valid)
                .expect("complete"),
            Completion::Accepted
        );
        for p in [dir, scratch] {
            let _ = std::fs::remove_dir_all(&p);
        }
    }

    /// Daemon-restart adoption: a canonical shard file already on disk is
    /// adopted as completed, so only the missing shard is re-leased.
    #[test]
    fn register_adopts_valid_shard_files_on_disk() {
        let dir = temp_dir("adopt");
        let spool = Spool::open(&dir).expect("spool");
        let spec = s27_spec();
        let (hash, _) = spool.admit(&spec).expect("admit");
        let faults = moa_netlist::full_fault_list(&spec.circuit);
        run_shard(
            &spec.circuit,
            &spec.seq,
            &faults,
            &spec.options,
            2,
            0,
            &spool.shards_dir(hash),
        )
        .expect("pre-existing shard 0");
        let d = Dispatcher::new(2, quick()).expect("dispatcher");
        register(&d, &spool, hash);
        let stats = d.stats().expect("stats");
        assert_eq!((stats.completed, stats.pending), (1, 1));
        let a = assignment(d.lease("w").expect("lease"));
        assert_eq!(a.shard, 1, "only the missing shard is dispatched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An in-process lease has no deadline: it is neither expired nor
    /// re-granted after the remote lease length passes.
    #[test]
    fn in_process_leases_never_expire() {
        let (d, hash, dir) = dispatcher("in-process", 1, quick());
        let Step::Run { shard, attempt } = d.lease_in_process(hash).expect("lease") else {
            panic!("the pending shard must be leased in-process");
        };
        assert_eq!((shard, attempt), (0, 1));
        std::thread::sleep(quick().lease * 2);
        assert_eq!(d.stats().expect("stats").leased, 1, "the lease outlives the remote deadline");
        assert!(
            matches!(d.lease("thief").expect("lease"), Lease::Idle {}),
            "an in-process lease is never re-granted"
        );
        assert_eq!(d.stats().expect("stats").leased, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An in-process failure report requeues with backoff below the budget
    /// and quarantines at it, with the reason a remote failure gets.
    #[test]
    fn in_process_failures_back_off_then_quarantine() {
        // A backoff long enough that a descheduled test thread still finds
        // the shard backing off.
        let backoff = Duration::from_millis(250);
        let options = DispatchOptions {
            attempts: 2,
            backoff,
            ..quick()
        };
        let (d, hash, dir) = dispatcher("in-process-fail", 1, options);
        let Step::Run { shard, .. } = d.lease_in_process(hash).expect("lease") else {
            panic!("the pending shard must be leased in-process");
        };
        let failed_at = Instant::now();
        d.fail(IN_PROCESS, hash, shard, "injected shard error").expect("fail");
        let Step::Sleep(until) = d.lease_in_process(hash).expect("lease") else {
            panic!("a failed shard must back off before its retry");
        };
        assert!(until >= failed_at + backoff, "one backoff step");
        assert_eq!(d.stats().expect("stats").pending, 1, "requeued, not dropped");
        std::thread::sleep(until.saturating_duration_since(Instant::now()));
        let Step::Run { shard, attempt } = d.lease_in_process(hash).expect("lease") else {
            panic!("the backoff has passed");
        };
        assert_eq!(attempt, 2);
        d.fail(IN_PROCESS, hash, shard, "still broken").expect("fail");
        let JobOutcome::Quarantined(failures) = d.wait_job(hash, || false).expect("wait") else {
            panic!("must quarantine at the budget");
        };
        assert_eq!(
            failures[0].last_error,
            "shard 0 failed 2 of 2 attempt(s); last error from worker `in-process`: still broken"
        );
        assert!(matches!(d.lease_in_process(hash).expect("lease"), Step::Finished));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_refuses_leases_and_loses_heartbeats() {
        let (d, hash, dir) = dispatcher("drain", 1, quick());
        let a = assignment(d.lease("w").expect("lease"));
        d.drain().expect("drain");
        assert!(matches!(d.lease("w2").expect("lease"), Lease::Draining));
        assert_eq!(
            d.heartbeat("w", hash, a.shard).expect("heartbeat"),
            Heartbeat::Lost
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blocked_lease_is_granted_when_a_job_registers() {
        let (spool, hash, dir) = spooled("wake-register");
        let d = Dispatcher::new(1, quick()).expect("dispatcher");
        let mut registered = Instant::now();
        let (lease, answered) = blocked_lease(&d, "w", || false, || {
            let_it_block();
            registered = Instant::now();
            register(&d, &spool, hash);
        });
        let a = assignment(lease);
        assert_eq!((a.job, a.attempt), (hash, 1));
        let waited = answered.saturating_duration_since(registered);
        assert!(waited < Duration::from_millis(500), "granted {waited:?} after registration");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blocked_lease_answers_draining_when_drain_starts() {
        let d = Dispatcher::new(1, quick()).expect("dispatcher");
        let mut drained = Instant::now();
        let (lease, answered) = blocked_lease(&d, "w", || false, || {
            let_it_block();
            drained = Instant::now();
            d.drain().expect("drain");
        });
        assert!(matches!(lease, Lease::Draining), "{lease:?}");
        let waited = answered.saturating_duration_since(drained);
        assert!(waited < Duration::from_millis(500), "answered {waited:?} after drain");
    }

    /// A failed shard's backoff ends with no table change to notify the
    /// waiter; its timeout alone must wake it.
    #[test]
    fn blocked_lease_wakes_when_a_backoff_ends() {
        let backoff = Duration::from_millis(200);
        let (d, hash, dir) = dispatcher("wake-backoff", 1, DispatchOptions { backoff, ..quick() });
        let a = assignment(d.lease("w1").expect("lease"));
        let failed = Instant::now();
        d.fail("w1", hash, a.shard, "injected shard error").expect("fail");
        let (lease, answered) = blocked_lease(&d, "w2", || false, || {});
        let b = assignment(lease);
        assert_eq!((b.shard, b.attempt), (a.shard, 2));
        let waited = answered.saturating_duration_since(failed);
        assert!(waited >= backoff, "granted {waited:?} after the failure, inside the backoff");
        assert!(waited < CAP / 2, "granted {waited:?} after the failure: only at the cap");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blocked_lease_wakes_when_a_lease_expires() {
        let options = DispatchOptions {
            lease: Duration::from_millis(200),
            heartbeat: Duration::from_millis(50),
            backoff: Duration::from_millis(1),
            ..DispatchOptions::default()
        };
        let (d, _, dir) = dispatcher("wake-expiry", 1, options.clone());
        let leased = Instant::now();
        let a = assignment(d.lease("silent").expect("lease"));
        let (lease, answered) = blocked_lease(&d, "w2", || false, || {});
        let b = assignment(lease);
        assert_eq!((b.shard, b.attempt), (a.shard, 2));
        let waited = answered.saturating_duration_since(leased);
        assert!(waited >= options.lease, "granted {waited:?} after the lease, before it expired");
        assert!(waited < CAP / 2, "granted {waited:?} after the lease: only at the cap");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker that hung up while blocked is never granted: the shard
    /// stays pending, and the next worker gets its first attempt.
    #[test]
    fn a_gone_lessee_is_never_granted() {
        let (spool, hash, dir) = spooled("gone");
        let d = Dispatcher::new(1, quick()).expect("dispatcher");
        let hung_up = std::sync::atomic::AtomicBool::new(false);
        let probe = || hung_up.load(std::sync::atomic::Ordering::SeqCst);
        let (lease, _) = blocked_lease(&d, "ghost", probe, || {
            let_it_block();
            hung_up.store(true, std::sync::atomic::Ordering::SeqCst);
            register(&d, &spool, hash);
        });
        assert!(!matches!(lease, Lease::Assigned(_)), "{lease:?}");
        assert_eq!(d.stats().expect("stats").pending, 1, "the shard stays pending");
        let next = assignment(d.lease("w").expect("lease"));
        assert_eq!(next.attempt, 1, "the gone lessee spent no attempt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_table_answers_idle_after_the_wait() {
        let d = Dispatcher::new(1, quick()).expect("dispatcher");
        let wait = Duration::from_millis(300);
        let asked = Instant::now();
        let lease = d.lease_wait("w", wait, || false).expect("lease");
        assert!(matches!(lease, Lease::Idle {}), "{lease:?}");
        assert!(asked.elapsed() >= wait, "answered idle before the wait passed");
    }

    #[test]
    fn forgotten_jobs_answer_unknown() {
        let (d, hash, dir) = dispatcher("forget", 1, quick());
        d.forget_job(hash).expect("forget");
        assert!(matches!(d.lease("w").expect("lease"), Lease::Idle {}));
        assert!(d.wait_job(hash, || false).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn lease_failpoint_injects_refusals() {
        use crate::failpoint::{self, ChaosSchedule, FailAction, SitePlan};
        let _guard = failpoint::test_lock();
        let (d, _, dir) = dispatcher("fp", 1, quick());
        failpoint::install(ChaosSchedule::empty(9).with_site(
            "fp/dispatch.lease",
            SitePlan::new(1.0, vec![FailAction::Error]).with_max_fires(1),
        ));
        let err = d.lease("w").expect_err("the armed site must refuse");
        assert!(err.to_string().contains("lease refused"), "{err}");
        // The refusal is transient: the next ask is served.
        assert!(matches!(d.lease("w").expect("lease"), Lease::Assigned(_)));
        let combos = failpoint::fired_combos();
        assert!(
            combos.iter().any(|((site, kind), _)| site == "fp/dispatch.lease" && *kind == "error"),
            "{combos:?}"
        );
        failpoint::clear();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
