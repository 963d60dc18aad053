//! In-process tests of the campaign daemon engine ([`moa_core::serve`]):
//! completion bit-identical to a direct run, dedupe/coalescing, bounded
//! admission with backpressure, poison quarantine, graceful drain, and
//! drain-then-restart recovery resuming from the interrupted job's shard
//! checkpoints. The process-level versions (SIGKILL, TCP protocol) live in
//! the CLI's integration tests; everything here runs without sockets.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use moa_circuits::iscas::S27_BENCH;
use moa_circuits::suite::entry;
use moa_core::{
    run_campaign, verdict_digest, CampaignOptions, CanonHash, Event, JobSpec, JobStatus,
    ServeOptions, Server, Submit,
};
use moa_netlist::{full_fault_list, write_bench};
use moa_tpg::random_sequence;

fn temp_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "moa-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A quick job over s27.
fn small_spec() -> JobSpec {
    let circuit = moa_circuits::iscas::s27();
    let seq = random_sequence(&circuit, 12, 7);
    JobSpec::new(S27_BENCH, &seq.to_text(), CampaignOptions::new()).expect("valid spec")
}

/// A slower job over s298 — long enough that a drain issued right after
/// `Started` lands mid-run, so the interrupt/checkpoint path is exercised
/// deterministically enough for CI.
fn slow_spec() -> JobSpec {
    let circuit = entry("s298").expect("suite has s298").build();
    let bench = write_bench(&circuit);
    let seq = random_sequence(&circuit, 96, 11);
    let options = CampaignOptions {
        threads: 1,
        checkpoint_every: 4,
        ..CampaignOptions::new()
    };
    JobSpec::new(&bench, &seq.to_text(), options).expect("valid spec")
}

fn wait_for(
    events: &std::sync::mpsc::Receiver<Event>,
    what: &str,
    mut pred: impl FnMut(&Event) -> bool,
) -> Event {
    let deadline = Instant::now() + Duration::from_mins(2);
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .unwrap_or_else(|| panic!("timed out waiting for {what}"));
        match events.recv_timeout(remaining) {
            Ok(event) if pred(&event) => return event,
            Ok(_) => {}
            Err(e) => panic!("waiting for {what}: {e}"),
        }
    }
}

#[test]
fn submit_runs_to_completion_bit_identical_and_dedupes() {
    let dir = temp_spool("complete");
    let server = Server::start(ServeOptions::new(&dir)).expect("start");
    let events = server.subscribe().expect("subscribe");
    let spec = small_spec();

    let direct = {
        let faults = full_fault_list(&spec.circuit);
        run_campaign(&spec.circuit, &spec.seq, &faults, &spec.options)
    };

    let Submit::Accepted { hash } = server.submit(&spec).expect("submit") else {
        panic!("first submission must be accepted");
    };
    wait_for(&events, "job completion", |e| *e == Event::Finished(hash));
    let JobStatus::Done { digest } = server.job_status(hash).expect("status") else {
        panic!("job must be done");
    };
    assert_eq!(digest, verdict_digest(&direct), "daemon result must be bit-identical");

    // Duplicate submission: answered from the cache, zero simulation work
    // (nothing is queued, no worker starts — the verdicts come back
    // immediately and identically).
    match server.submit(&spec).expect("resubmit") {
        Submit::Cached { hash: cached_hash, result } => {
            assert_eq!(cached_hash, hash);
            assert_eq!(*result, direct, "cached verdicts must be bit-identical");
            assert_eq!(result.perf.gate_evals, 0, "the cache stores no perf spend");
        }
        other => panic!("expected Cached, got {other:?}"),
    }
    let stats = server.stats().expect("stats");
    assert_eq!((stats.queued, stats.running, stats.done, stats.poisoned), (0, 0, 1, 0));
    assert_eq!(server.drain().expect("drain"), 0, "nothing left queued");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_bound_rejects_and_duplicates_coalesce() {
    let dir = temp_spool("bound");
    let options = ServeOptions {
        queue_depth: 2,
        workers: 1,
        ..ServeOptions::new(&dir)
    };
    let server = Server::start(options).expect("start");

    // Fill the bound: one slow job (the worker takes it) plus one quick
    // job waiting behind it.
    let slow = slow_spec();
    let quick = small_spec();
    let Submit::Accepted { hash: slow_hash } = server.submit(&slow).expect("submit slow") else {
        panic!("slow job must be accepted");
    };
    let Submit::Accepted { hash: quick_hash } = server.submit(&quick).expect("submit quick")
    else {
        panic!("quick job must be accepted");
    };

    // A duplicate of an admitted job coalesces instead of double-queueing.
    match server.submit(&quick).expect("duplicate quick") {
        Submit::Coalesced { hash } => assert_eq!(hash, quick_hash),
        other => panic!("expected Coalesced, got {other:?}"),
    }
    match server.submit(&slow).expect("duplicate slow") {
        Submit::Coalesced { hash } => assert_eq!(hash, slow_hash),
        other => panic!("expected Coalesced, got {other:?}"),
    }

    // The queue is at its bound (2 jobs in flight): a *third* distinct job
    // is rejected with a retry hint, not buffered.
    let third = {
        let circuit = moa_circuits::iscas::s27();
        let seq = random_sequence(&circuit, 20, 23);
        JobSpec::new(S27_BENCH, &seq.to_text(), CampaignOptions::new()).expect("valid spec")
    };
    match server.submit(&third).expect("submit third") {
        Submit::Rejected { retry_after_ms, reason } => {
            assert!(retry_after_ms > 0);
            assert!(reason.contains("queue full"), "{reason}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Drain interrupts the slow job (which stays spooled) and refuses new
    // submissions while draining; the daemon exits cleanly either way.
    let leftover = server.drain().expect("drain");
    assert!(leftover <= 2, "at most the two admitted jobs remain: {leftover}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drained_job_is_readopted_and_finishes_bit_identical() {
    let dir = temp_spool("recover");
    let spec = slow_spec();
    let direct = {
        let faults = full_fault_list(&spec.circuit);
        run_campaign(&spec.circuit, &spec.seq, &faults, &spec.options)
    };

    // First daemon: start the job, then drain as soon as a worker picks it
    // up. The campaign observes the cancel probe at a batch boundary,
    // checkpoints its shard file, and the job stays queued on disk.
    let hash: CanonHash;
    {
        let server = Server::start(ServeOptions {
            workers: 1,
            ..ServeOptions::new(&dir)
        })
        .expect("start first daemon");
        let events = server.subscribe().expect("subscribe");
        let Submit::Accepted { hash: accepted } = server.submit(&spec).expect("submit") else {
            panic!("must be accepted");
        };
        hash = accepted;
        wait_for(&events, "worker start", |e| *e == Event::Started(hash));
        let leftover = server.drain().expect("drain");
        assert_eq!(leftover, 1, "the interrupted job must stay spooled");
    }

    // Second daemon: crash recovery re-adopts the job from the spool scan
    // and the resumed run completes bit-identically — the shard checkpoint
    // written at drain time seeds the resume, so no completed fault record
    // is lost or re-simulated into a different verdict.
    let server = Server::start(ServeOptions {
        workers: 1,
        ..ServeOptions::new(&dir)
    })
    .expect("start second daemon");
    assert_eq!(server.recovery().adopted, vec![hash], "job must be re-adopted");
    let events = server.subscribe().expect("subscribe");
    wait_for(&events, "re-adopted job completion", |e| *e == Event::Finished(hash));
    let JobStatus::Done { digest } = server.job_status(hash).expect("status") else {
        panic!("re-adopted job must finish");
    };
    assert_eq!(digest, verdict_digest(&direct), "recovery must be bit-identical");

    // And the recovered result now serves as a cache entry.
    match server.submit(&spec).expect("resubmit") {
        Submit::Cached { result, .. } => assert_eq!(*result, direct),
        other => panic!("expected Cached, got {other:?}"),
    }
    assert_eq!(server.drain().expect("drain"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_that_kept_crashing_previous_daemons_is_poisoned_on_recovery() {
    let dir = temp_spool("poison");
    let spec = small_spec();

    // Simulate a job that crashed the daemon on every past attempt: its
    // spec is spooled and its persisted attempt counter is at the limit,
    // but there is no result and no poison marker (the crashes came before
    // either could be written).
    let hash = {
        let spool = moa_core::Spool::open(&dir).expect("open spool");
        let (hash, fresh) = spool.admit(&spec).expect("admit");
        assert!(fresh);
        for _ in 0..3 {
            spool.record_attempt(hash).expect("attempt");
        }
        hash
    };

    let server = Server::start(ServeOptions {
        job_attempts: 3,
        ..ServeOptions::new(&dir)
    })
    .expect("start");
    let recovery = server.recovery().clone();
    assert_eq!(recovery.newly_poisoned, vec![hash], "exhausted job must be quarantined");
    assert!(recovery.adopted.is_empty());

    let JobStatus::Poisoned { reason } = server.job_status(hash).expect("status") else {
        panic!("job must be poisoned");
    };
    assert!(reason.contains("3 of 3"), "structured reason, got: {reason}");

    // A duplicate submission reports the quarantine instead of re-running.
    match server.submit(&spec).expect("resubmit") {
        Submit::Poisoned { hash: poisoned, reason } => {
            assert_eq!(poisoned, hash);
            assert!(reason.contains("attempt"), "{reason}");
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    let stats = server.stats().expect("stats");
    assert_eq!(stats.poisoned, 1);
    assert_eq!(server.drain().expect("drain"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_options_and_unknown_jobs_answer_cleanly() {
    let dir = temp_spool("validate");
    assert!(Server::start(ServeOptions {
        queue_depth: 0,
        ..ServeOptions::new(&dir)
    })
    .is_err());
    assert!(Server::start(ServeOptions {
        workers: 0,
        ..ServeOptions::new(&dir)
    })
    .is_err());
    assert!(Server::start(ServeOptions {
        job_attempts: 0,
        ..ServeOptions::new(&dir)
    })
    .is_err());

    let server = Server::start(ServeOptions::new(&dir)).expect("start");
    let unknown = CanonHash(0xdead_beef);
    assert_eq!(server.job_status(unknown).expect("status"), JobStatus::Unknown);
    assert_eq!(server.drain().expect("drain"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A minimal in-process stand-in for a `moa work` process: pull leases from
/// the dispatcher, run the shard in a private scratch directory, upload the
/// shard-file bytes. `die_after` kills the worker (mid-campaign) after that
/// many completed shards, like a SIGKILL would.
fn run_worker(
    server: &Server,
    id: &str,
    die_after: usize,
) -> std::thread::JoinHandle<usize> {
    let dispatcher =
        std::sync::Arc::clone(server.dispatcher().expect("daemon is in dispatch mode"));
    let id = id.to_owned();
    let scratch_root = temp_spool(&format!("worker-{id}"));
    std::thread::spawn(move || {
        let mut completed = 0usize;
        loop {
            if completed >= die_after {
                return completed;
            }
            match dispatcher.lease(&id).expect("lease") {
                moa_core::Lease::Draining => return completed,
                moa_core::Lease::Idle { .. } => {
                    // An idle worker keeps polling only while a job can
                    // still arrive; tests drain the daemon to stop it.
                    std::thread::sleep(Duration::from_millis(10));
                }
                moa_core::Lease::Assigned(a) => {
                    let spec = JobSpec::parse(&a.spec).expect("spec parses");
                    assert_eq!(spec.hash(), a.job, "spec matches its content address");
                    let faults = full_fault_list(&spec.circuit);
                    let scratch = scratch_root.join(format!("job-{}", a.job));
                    moa_core::run_shard(
                        &spec.circuit,
                        &spec.seq,
                        &faults,
                        &spec.options,
                        a.shards,
                        a.shard,
                        &scratch,
                    )
                    .expect("shard runs");
                    let bytes =
                        std::fs::read(moa_core::shard_path(&scratch, a.shard)).expect("bytes");
                    let outcome = dispatcher
                        .complete(&id, a.job, a.shard, &bytes)
                        .expect("complete");
                    assert!(
                        !matches!(outcome, moa_core::Completion::Rejected { .. }),
                        "a faithful worker's upload must not be rejected: {outcome:?}"
                    );
                    completed += 1;
                }
            }
        }
    })
}

/// Dispatch mode end-to-end, engine level: remote-style workers pull
/// leases over the dispatcher API, one dies mid-campaign (its lease
/// expires and is re-dispatched), and the merged result is bit-identical
/// to the direct campaign.
#[test]
fn dispatched_job_completes_bit_identical_despite_a_dying_worker() {
    let dir = temp_spool("dispatch");
    let options = ServeOptions {
        workers: 1,
        shards: 4,
        dispatch: Some(moa_core::DispatchOptions {
            lease: Duration::from_millis(300),
            heartbeat: Duration::from_millis(100),
            backoff: Duration::from_millis(5),
            attempts: 10,
        }),
        ..ServeOptions::new(&dir)
    };
    let server = Server::start(options).expect("start");
    let events = server.subscribe().expect("subscribe");
    let spec = slow_spec();
    let direct = {
        let faults = full_fault_list(&spec.circuit);
        run_campaign(&spec.circuit, &spec.seq, &faults, &spec.options)
    };
    let Submit::Accepted { hash } = server.submit(&spec).expect("submit") else {
        panic!("submission must be accepted");
    };

    // One worker dies after a single shard; the survivor carries the rest
    // (including the dead worker's re-dispatched lease).
    let doomed = run_worker(&server, "doomed", 1);
    let survivor = run_worker(&server, "survivor", usize::MAX);
    assert_eq!(doomed.join().expect("doomed worker"), 1);

    wait_for(&events, "dispatched job completion", |e| *e == Event::Finished(hash));
    let JobStatus::Done { digest } = server.job_status(hash).expect("status") else {
        panic!("job must be done");
    };
    assert_eq!(digest, verdict_digest(&direct), "dispatch merge must be bit-identical");

    server.drain().expect("drain");
    survivor.join().expect("survivor exits on drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With no workers at all, a drain cancels the dispatched job cleanly: it
/// stays queued on disk for the next daemon (same as the in-process
/// interrupt path).
#[test]
fn dispatched_job_interrupted_by_drain_stays_queued() {
    let dir = temp_spool("dispatch-drain");
    let options = ServeOptions {
        workers: 1,
        dispatch: Some(moa_core::DispatchOptions::default()),
        ..ServeOptions::new(&dir)
    };
    let server = Server::start(options).expect("start");
    let events = server.subscribe().expect("subscribe");
    let spec = small_spec();
    let Submit::Accepted { hash } = server.submit(&spec).expect("submit") else {
        panic!("submission must be accepted");
    };
    wait_for(&events, "job start", |e| *e == Event::Started(hash));
    let leftover = server.drain().expect("drain");
    assert_eq!(leftover, 1, "the undispatched job stays queued on disk");
    let _ = std::fs::remove_dir_all(&dir);
}
