//! The campaign daemon engine: a bounded admission queue, a worker pool
//! over the shard lease table ([`Dispatcher`]) + [`merge_shards`], poison
//! quarantine, graceful drain, and crash recovery over the [`Spool`].
//!
//! The transport (TCP, protocol framing, signals) lives in the CLI; this
//! module is the in-process state machine, so every robustness property is
//! testable without sockets:
//!
//! - **Admission control / backpressure.** The queue holds at most
//!   [`ServeOptions::queue_depth`] jobs (queued + running). Past that,
//!   [`submit`](Server::submit) returns [`Submit::Rejected`] with a
//!   retry-after hint — memory for pending work is bounded by
//!   construction, the daemon never swallows unbounded submissions.
//! - **Dedupe / result cache.** Jobs are content-addressed by
//!   [`request_hash`](crate::request_hash); a duplicate of a finished job
//!   answers [`Submit::Cached`] straight from the spool with zero
//!   simulation work, and a duplicate of a queued/running job coalesces
//!   ([`Submit::Coalesced`]) instead of queueing twice.
//! - **Poison detection.** The attempt counter is persisted *before* each
//!   run. A job whose run crashes [`ServeOptions::job_attempts`] times —
//!   across daemon restarts — is quarantined with a structured reason
//!   instead of being retried forever.
//! - **Graceful drain.** [`drain`](Server::drain) stops admissions, trips
//!   the cancel probe threaded into every running campaign (which
//!   checkpoints at the next batch boundary and stops), and joins the
//!   workers. Interrupted jobs stay `Queued` on disk.
//! - **Crash recovery.** [`Server::start`] scans the spool: finished and
//!   poisoned jobs become cache entries; queued jobs (including those a
//!   SIGKILL interrupted mid-run) are re-adopted into the queue. Their
//!   shard files survive in the job directory: published shards are
//!   adopted, and an in-process shard's scratch checkpoint resumes from the
//!   lenient reader's intact prefix — bit-identically, as the
//!   kill-and-restart tests prove.
//!
//! Every job attempt takes one path: register its shards in the lease
//! table, drive them on the job worker's thread (unless remote `moa work`
//! processes lease them, with [`ServeOptions::dispatch`]), wait for every
//! shard to finish, merge.

use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use moa_netlist::full_fault_list;

use crate::campaign::{panic_message, CampaignResult};
use crate::canon::{verdict_digest, CanonHash};
use crate::checkpoint::CheckpointHeader;
use crate::dispatch::{DispatchOptions, Dispatcher, JobOutcome};
use crate::error::Error;
use crate::shard::{merge_shards, ShardFailure};
use crate::spool::{JobSpec, JobState, Spool};

/// Daemon policy knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Spool root directory.
    pub spool_dir: PathBuf,
    /// Admission bound: queued + running jobs. Submissions past this are
    /// rejected with a retry hint, never buffered.
    pub queue_depth: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Total run attempts (across restarts) before a job is poisoned.
    pub job_attempts: u32,
    /// Shards per job (the fault list is partitioned across these).
    pub shards: usize,
    /// When set, jobs are not run in-process: their shards are handed to
    /// remote `moa work` processes through the [`Dispatcher`], under this
    /// lease/heartbeat/attempt policy. Without it, shards run on the job
    /// worker's thread under the default policy's attempt budget and
    /// backoff. The merge gate is unchanged.
    pub dispatch: Option<DispatchOptions>,
}

impl ServeOptions {
    /// Default policy rooted at `spool_dir`: queue depth 16, 2 workers,
    /// 3 attempts per job, 2 shards per job.
    pub fn new(spool_dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            spool_dir: spool_dir.into(),
            queue_depth: 16,
            workers: 2,
            job_attempts: 3,
            shards: 2,
            dispatch: None,
        }
    }
}

/// The retry hint returned with every [`Submit::Rejected`], in
/// milliseconds.
const RETRY_AFTER_MS: u64 = 1000;

/// The daemon's answer to one submission.
#[derive(Debug)]
pub enum Submit {
    /// Admitted: the job is queued (its spec is durably spooled first).
    Accepted {
        /// The job's canonical hash — the client's status/poll key.
        hash: CanonHash,
    },
    /// A duplicate of a job already queued or running: nothing new queued,
    /// the earlier run will answer for both.
    Coalesced {
        /// The (shared) job hash.
        hash: CanonHash,
    },
    /// A duplicate of a finished job: the cached verdicts, served with
    /// zero simulation work.
    Cached {
        /// The (shared) job hash.
        hash: CanonHash,
        /// The cached result, re-read and CRC-validated from the spool.
        result: Box<CampaignResult>,
    },
    /// A duplicate of a quarantined job: not re-run (that is the point of
    /// poisoning); the structured reason says why.
    Poisoned {
        /// The (shared) job hash.
        hash: CanonHash,
        /// Why the job was quarantined.
        reason: String,
    },
    /// Backpressure: the admission queue is full (or the daemon is
    /// draining). Try again after the hint.
    Rejected {
        /// Client retry hint in milliseconds: always 1000.
        retry_after_ms: u64,
        /// Human-readable cause (`queue full (16 jobs)`, `draining`).
        reason: String,
    },
}

/// A progress event, broadcast to every subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The job was admitted into the queue (fresh or re-adopted).
    Queued(CanonHash),
    /// A worker started (an attempt of) the job.
    Started(CanonHash),
    /// The job finished; its result is cached in the spool.
    Finished(CanonHash),
    /// An attempt failed; the job was re-queued.
    Retried(CanonHash),
    /// The job was quarantined.
    Poisoned(CanonHash),
    /// A running job was interrupted by drain (checkpointed, still queued
    /// on disk).
    Interrupted(CanonHash),
}

/// One job's externally visible status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the admission queue.
    Queued,
    /// A worker is executing it right now.
    Running,
    /// Finished; the verdict digest identifies the cached result.
    Done {
        /// [`verdict_digest`] of the cached result.
        digest: CanonHash,
    },
    /// Quarantined.
    Poisoned {
        /// The structured reason.
        reason: String,
    },
    /// Not in the queue and not in the spool.
    Unknown,
}

/// What [`Server::start`] found and did during crash recovery.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Jobs re-adopted into the queue (they were queued or mid-run when
    /// the previous daemon died).
    pub adopted: Vec<CanonHash>,
    /// Finished jobs now serving as cache entries.
    pub cached: usize,
    /// Jobs found already quarantined.
    pub poisoned: usize,
    /// Jobs quarantined *during* recovery because their persisted attempt
    /// count already exceeded the limit (they crashed the previous daemon).
    pub newly_poisoned: Vec<CanonHash>,
}

/// Aggregate queue/completion counts for `moa status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs being executed right now.
    pub running: usize,
    /// Finished jobs in the spool (cache entries).
    pub done: usize,
    /// Quarantined jobs in the spool.
    pub poisoned: usize,
}

struct Inner {
    queue: VecDeque<CanonHash>,
    /// Members of `queue` (for O(1) coalescing).
    queued: HashSet<CanonHash>,
    running: HashSet<CanonHash>,
    draining: bool,
    subscribers: Vec<Sender<Event>>,
}

struct Shared {
    inner: Mutex<Inner>,
    work_ready: Condvar,
    /// The drain flag doubles as every campaign's cancel probe (cloned
    /// into each running job's cancel closure).
    drain: Arc<AtomicBool>,
    spool: Spool,
    options: ServeOptions,
    /// The shard lease table every job attempt registers in. In dispatch
    /// mode remote workers pull from it and job workers only wait.
    dispatcher: Arc<Dispatcher>,
}

/// Broadcasts an event. Dead subscribers are dropped on the next
/// publish; a slow one cannot block the daemon (unbounded channel,
/// best-effort send).
fn publish(inner: &mut Inner, event: &Event) {
    inner
        .subscribers
        .retain(|tx| tx.send(event.clone()).is_ok());
}

/// The daemon engine. Dropping the handle without [`drain`](Self::drain)
/// leaves worker threads running (the process-level daemon lives until
/// killed); tests call `drain` explicitly.
pub struct Server {
    shared: Arc<Shared>,
    /// Worker handles, taken (once) by [`drain`](Self::drain). Behind a
    /// mutex so the daemon can share the server across connection-handler
    /// threads via `Arc` and still drain through a shared reference.
    workers: Mutex<Vec<JoinHandle<()>>>,
    recovery: Recovery,
}

impl Server {
    /// Opens the spool, runs crash recovery, and spawns the worker pool.
    pub fn start(options: ServeOptions) -> Result<Server, Error> {
        if options.queue_depth == 0 {
            return Err(Error::Serve {
                message: "queue depth must be at least 1".into(),
            });
        }
        if options.workers == 0 {
            return Err(Error::Serve {
                message: "worker count must be at least 1".into(),
            });
        }
        if options.job_attempts == 0 {
            return Err(Error::Serve {
                message: "job attempt limit must be at least 1".into(),
            });
        }
        let dispatcher = Arc::new(Dispatcher::new(
            options.shards,
            options.dispatch.clone().unwrap_or_default(),
        )?);
        let spool = Spool::open(&options.spool_dir)?;

        // Crash recovery: the previous daemon's queue is reconstructed
        // from the spool alone. A job that was *running* when the daemon
        // died looks queued on disk (no result, no poison marker) — which
        // is exactly the re-adopt semantics we want; its shard checkpoints
        // are still in its directory and seed the resumed run.
        fail_hit!("fp/serve.recover");
        let mut recovery = Recovery::default();
        let mut queue = VecDeque::new();
        let mut queued = HashSet::new();
        for job in spool.scan()? {
            match job.state {
                JobState::Done => recovery.cached += 1,
                JobState::Poisoned => recovery.poisoned += 1,
                JobState::Queued => {
                    if job.attempts >= options.job_attempts {
                        spool.poison(
                            job.hash,
                            &format!(
                                "re-adopted job already used {} of {} attempt(s); \
                                 the previous run(s) died before finishing",
                                job.attempts, options.job_attempts
                            ),
                        )?;
                        recovery.newly_poisoned.push(job.hash);
                    } else {
                        queue.push_back(job.hash);
                        queued.insert(job.hash);
                        recovery.adopted.push(job.hash);
                    }
                }
            }
        }

        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue,
                queued,
                running: HashSet::new(),
                draining: false,
                subscribers: Vec::new(),
            }),
            work_ready: Condvar::new(),
            drain: Arc::new(AtomicBool::new(false)),
            spool,
            options,
            dispatcher,
        });
        let workers = (0..shared.options.workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("moa-serve-worker-{id}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| Error::Serve {
                        message: format!("cannot spawn worker {id}: {e}"),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Server {
            shared,
            workers: Mutex::new(workers),
            recovery,
        })
    }

    /// What crash recovery found when this daemon started.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// The spool this daemon serves from.
    pub fn spool(&self) -> &Spool {
        &self.shared.spool
    }

    /// The shard dispatcher, when the daemon runs in dispatch mode
    /// ([`ServeOptions::dispatch`]). The transport layer serves remote
    /// workers' lease/heartbeat/complete/fail requests through this handle.
    pub fn dispatcher(&self) -> Option<&Arc<Dispatcher>> {
        let shared = &self.shared;
        shared.options.dispatch.is_some().then_some(&shared.dispatcher)
    }

    /// Handles one submission end-to-end: dedupe against the spool, then
    /// bounded admission. The spec is durably spooled *before* the queue
    /// learns about it, so an admitted job survives any crash.
    pub fn submit(&self, spec: &JobSpec) -> Result<Submit, Error> {
        fail_hit!("fp/serve.submit");
        let hash = spec.hash();
        let spool = &self.shared.spool;
        // Dedupe phase — no lock needed, the spool is the authority.
        match spool.state(hash) {
            JobState::Done => {
                let stored = spool.load_spec(hash)?;
                let result = spool.load_result(hash, &stored)?.ok_or_else(|| Error::Serve {
                    message: format!("job {hash} is marked done but has no result"),
                })?;
                return Ok(Submit::Cached {
                    hash,
                    result: Box::new(result),
                });
            }
            JobState::Poisoned => {
                return Ok(Submit::Poisoned {
                    hash,
                    reason: self
                        .shared
                        .spool
                        .poison_reason(hash)
                        .unwrap_or_else(|| "unknown".into()),
                });
            }
            JobState::Queued => {}
        }
        let mut inner = lock_inner(&self.shared)?;
        if inner.queued.contains(&hash) || inner.running.contains(&hash) {
            return Ok(Submit::Coalesced { hash });
        }
        if inner.draining {
            return Ok(Submit::Rejected {
                retry_after_ms: RETRY_AFTER_MS,
                reason: "draining".into(),
            });
        }
        let load = inner.queue.len() + inner.running.len();
        if load >= self.shared.options.queue_depth {
            return Ok(Submit::Rejected {
                retry_after_ms: RETRY_AFTER_MS,
                reason: format!(
                    "queue full ({load} of {} jobs)",
                    self.shared.options.queue_depth
                ),
            });
        }
        // Spool first (durable), queue second (volatile): a crash between
        // the two re-adopts the job on restart instead of losing it.
        self.shared.spool.admit(spec)?;
        inner.queue.push_back(hash);
        inner.queued.insert(hash);
        publish(&mut inner, &Event::Queued(hash));
        drop(inner);
        self.shared.work_ready.notify_one();
        Ok(Submit::Accepted { hash })
    }

    /// One job's current status (queue state is in-memory; done/poisoned
    /// come from the spool, so they answer correctly even after restart).
    pub fn job_status(&self, hash: CanonHash) -> Result<JobStatus, Error> {
        {
            let inner = lock_inner(&self.shared)?;
            if inner.running.contains(&hash) {
                return Ok(JobStatus::Running);
            }
            if inner.queued.contains(&hash) {
                return Ok(JobStatus::Queued);
            }
        }
        match self.shared.spool.state(hash) {
            JobState::Done => {
                let spec = self.shared.spool.load_spec(hash)?;
                let result =
                    self.shared
                        .spool
                        .load_result(hash, &spec)?
                        .ok_or_else(|| Error::Serve {
                            message: format!("job {hash} is marked done but has no result"),
                        })?;
                Ok(JobStatus::Done {
                    digest: verdict_digest(&result),
                })
            }
            JobState::Poisoned => Ok(JobStatus::Poisoned {
                reason: self
                    .shared
                    .spool
                    .poison_reason(hash)
                    .unwrap_or_else(|| "unknown".into()),
            }),
            // On disk it looks queued but we did not find it in the queue:
            // either it was never admitted here, or it is between states.
            JobState::Queued => {
                if self.shared.spool.job_dir(hash).exists() {
                    Ok(JobStatus::Queued)
                } else {
                    Ok(JobStatus::Unknown)
                }
            }
        }
    }

    /// Aggregate counts for `moa status`.
    pub fn stats(&self) -> Result<ServeStats, Error> {
        let (queued, running) = {
            let inner = lock_inner(&self.shared)?;
            (inner.queue.len(), inner.running.len())
        };
        let mut done = 0;
        let mut poisoned = 0;
        for job in self.shared.spool.scan()? {
            match job.state {
                JobState::Done => done += 1,
                JobState::Poisoned => poisoned += 1,
                JobState::Queued => {}
            }
        }
        Ok(ServeStats {
            queued,
            running,
            done,
            poisoned,
        })
    }

    /// Subscribes to progress events (from now on).
    pub fn subscribe(&self) -> Result<std::sync::mpsc::Receiver<Event>, Error> {
        let (tx, rx) = std::sync::mpsc::channel();
        lock_inner(&self.shared)?.subscribers.push(tx);
        Ok(rx)
    }

    /// Graceful drain: stop admitting, interrupt running campaigns at
    /// their next batch boundary (they checkpoint first), join every
    /// worker. Idempotent. Returns the number of jobs left queued on disk
    /// for the next daemon to adopt.
    pub fn drain(&self) -> Result<usize, Error> {
        self.shared.drain.store(true, Ordering::SeqCst);
        // Stop handing out remote leases first: remote workers learn from
        // their next heartbeat/lease, checkpoint, and disconnect.
        self.shared.dispatcher.drain()?;
        {
            let mut inner = lock_inner(&self.shared)?;
            inner.draining = true;
        }
        self.shared.work_ready.notify_all();
        // Take the handles under the lock, join outside it: a second
        // concurrent drain finds an empty vec and just re-scans the spool.
        let workers = {
            let mut guard = self.workers.lock().map_err(|_| Error::Serve {
                message: "daemon worker registry poisoned".into(),
            })?;
            std::mem::take(&mut *guard)
        };
        for worker in workers {
            // A worker that panicked outside its catch_unwind already lost
            // its job's attempt; drain still succeeds.
            let _ = worker.join();
        }
        let leftover = self
            .shared
            .spool
            .scan()?
            .into_iter()
            .filter(|j| j.state == JobState::Queued)
            .count();
        Ok(leftover)
    }
}

fn lock_inner(shared: &Shared) -> Result<std::sync::MutexGuard<'_, Inner>, Error> {
    shared.inner.lock().map_err(|_| Error::Serve {
        message: "daemon state poisoned by a panicking worker".into(),
    })
}

fn worker_loop(shared: &Shared) {
    loop {
        let hash = {
            let Ok(mut inner) = shared.inner.lock() else {
                return;
            };
            loop {
                if let Some(hash) = inner.queue.pop_front() {
                    inner.queued.remove(&hash);
                    inner.running.insert(hash);
                    publish(&mut inner, &Event::Started(hash));
                    break hash;
                }
                if inner.draining {
                    return;
                }
                let Ok(guard) = shared.work_ready.wait(inner) else {
                    return;
                };
                inner = guard;
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, hash)));
        // However the attempt ended, its shards leave the lease table (their
        // leases die with them). Published shard files stay on disk: the
        // next attempt re-registers with fresh budgets and adopts them.
        let _ = shared.dispatcher.forget_job(hash);
        let Ok(mut inner) = shared.inner.lock() else {
            return;
        };
        inner.running.remove(&hash);
        match outcome {
            Ok(Ok(())) => publish(&mut inner, &Event::Finished(hash)),
            Ok(Err(Error::Interrupted { .. })) => {
                // Drain tripped mid-run: the campaign checkpointed and the
                // job stays queued on disk for the next daemon.
                publish(&mut inner, &Event::Interrupted(hash));
            }
            Ok(Err(e)) => {
                handle_failure(shared, &mut inner, hash, &e.to_string());
            }
            Err(payload) => {
                let message = format!(
                    "worker panicked: {}",
                    panic_message(payload.as_ref())
                );
                handle_failure(shared, &mut inner, hash, &message);
            }
        }
        drop(inner);
    }
}

/// A failed attempt: re-queue below the attempt limit, poison at it. The
/// attempt counter was persisted when the run started, so this decision is
/// crash-consistent.
fn handle_failure(shared: &Shared, inner: &mut Inner, hash: CanonHash, message: &str) {
    let attempts = shared.spool.attempts(hash);
    let limit = shared.options.job_attempts;
    if attempts >= limit {
        let reason = format!("quarantined after {attempts} of {limit} attempt(s); last error: {message}");
        if shared.spool.poison(hash, &reason).is_ok() {
            publish(inner, &Event::Poisoned(hash));
            return;
        }
        // Unpoisonable (spool I/O failure): fall through to re-queue so
        // the job is not silently dropped; the next failure retries the
        // poison write.
    }
    inner.queue.push_back(hash);
    inner.queued.insert(hash);
    publish(inner, &Event::Retried(hash));
    shared.work_ready.notify_one();
}

/// Executes one attempt of one job: register its shards (adopting shard
/// files a previous attempt published), run them in-process unless remote
/// workers lease them, wait for every shard, verified merge, result
/// publication, scratch cleanup. Quarantine and drain map onto the job-level
/// poison ladder and the interrupt/re-adopt flow.
fn run_job(shared: &Shared, hash: CanonHash) -> Result<(), Error> {
    let spool = &shared.spool;
    let attempts = spool.record_attempt(hash)?;
    let limit = shared.options.job_attempts;
    if attempts > limit {
        return Err(Error::Serve {
            message: format!("attempt {attempts} exceeds the limit of {limit}"),
        });
    }
    fail_hit!("fp/serve.worker");
    let spec = spool.load_spec(hash)?;
    let faults = full_fault_list(&spec.circuit);
    let dispatcher = &shared.dispatcher;
    let header = CheckpointHeader {
        circuit: spec.circuit.name().to_owned(),
        total_faults: faults.len(),
        seq_len: spec.seq.len(),
    };
    dispatcher.register_job(hash, header, spool.shards_dir(hash), spec.to_text())?;
    let drain = Arc::clone(&shared.drain);
    let cancel = move || drain.load(Ordering::Relaxed);
    if shared.options.dispatch.is_none() {
        let mut base = spec.options.clone();
        base.cancel = Some(Arc::new(cancel.clone()));
        dispatcher.run_in_process(hash, &spec.circuit, &spec.seq, &faults, &base)?;
    }
    let files = match dispatcher.wait_job(hash, cancel)? {
        JobOutcome::Done(files) => files,
        JobOutcome::Quarantined(failures) => return Err(quarantine_error(&failures)),
    };
    // Merge with the spec's own options (no cancel probe): the merge is
    // validation plus, for an audited job, the job's only audit (the shards
    // never audit), and serving a half-merged result would be worse than
    // finishing it.
    let merged = merge_shards(&spec.circuit, &spec.seq, &faults, &spec.options, &files)?;
    spool.store_result(hash, &spec, &merged.result)?;
    // The shard files are scratch once the result is published; removing
    // them keeps the spool from growing with every completed job. Best
    // effort — a leftover shards dir is harmless.
    let _ = std::fs::remove_dir_all(spool.shards_dir(hash));
    Ok(())
}

/// The "shards quarantined" job failure message.
fn quarantine_error(failures: &[ShardFailure]) -> Error {
    let worst = &failures[0];
    Error::Serve {
        message: format!(
            "{} shard(s) quarantined; shard {} failed {} attempt(s), last: {}",
            failures.len(),
            worst.shard_id,
            worst.attempts,
            worst.last_error
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_are_refused_in_both_modes() {
        let dir =
            std::env::temp_dir().join(format!("moa-serve-zero-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for dispatch in [None, Some(DispatchOptions::default())] {
            let options = ServeOptions {
                shards: 0,
                dispatch,
                ..ServeOptions::new(&dir)
            };
            let Err(err) = Server::start(options) else {
                panic!("a daemon with zero shards per job must not start");
            };
            assert!(err.to_string().contains("shard count must be at least 1"), "{err}");
        }
        assert!(!dir.exists(), "refused before the spool is opened");
    }
}
