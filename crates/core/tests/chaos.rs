//! Chaos soak: the whole campaign engine — screening, expansion, budgets,
//! the degradation ladder, panic isolation, checkpoint write/resume — run
//! under a deterministic failpoint schedule ([`moa_core::failpoint`]), with
//! the process "killed" by injected checkpoint I/O errors and resumed until
//! it completes.
//!
//! The contract asserted here is the resilience layer's soundness story:
//!
//! 1. no fault record is ever lost or duplicated across kill/resume cycles,
//! 2. chaos only ever downgrades a verdict to [`FaultStatus::Faulted`] or
//!    [`FaultStatus::PartialVerdict`] — every other status is bit-identical
//!    to the clean run's,
//! 3. the certificate audit never fails: even under injected work inflation
//!    and panics, no unsound detection is reported.
//!
//! The pinned-seed test additionally asserts injection *breadth* (at least
//! five distinct `(site, action)` combinations actually fired), so the soak
//! cannot silently degenerate into testing nothing.

#![cfg(feature = "failpoints")]

use std::collections::BTreeSet;
use std::sync::Arc;

use moa_circuits::iscas::s27;
use moa_circuits::suite::entry;
use moa_core::failpoint::{self, ChaosSchedule};
use moa_core::{
    merge_shards, run_campaign, run_shard, run_sharded, shard_path, try_run_campaign,
    CampaignAudit, CampaignOptions, CampaignResult, FaultBudget, FaultStatus, MoaOptions,
    ShardOptions,
};
use moa_netlist::{full_fault_list, Circuit, Fault};
use moa_sim::TestSequence;
use moa_tpg::random_sequence;
use proptest::prelude::*;

/// Runs one clean campaign and one chaotic kill/resume campaign over the
/// same faults, returning both results plus the fired `(site, action)`
/// combinations. Panics if the chaos run cannot converge.
fn soak(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    chaos_seed: u64,
    tag: &str,
) -> (CampaignResult, CampaignResult, Vec<(String, &'static str)>) {
    let dir = std::env::temp_dir().join("moa-chaos-soak");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{chaos_seed:x}.checkpoint"));
    let _ = std::fs::remove_file(&path);
    let base = CampaignOptions {
        // The degradation ladder is armed and the work ceiling is low enough
        // that injected `InflateWork` fires push faults over it.
        moa: MoaOptions::default().with_degrade(true),
        budget: FaultBudget::none().with_work_limit(1 << 13),
        audit: Some(CampaignAudit::default()),
        checkpoint: Some(path.clone()),
        checkpoint_every: 8,
        threads: 4,
        ..Default::default()
    };

    failpoint::clear();
    let clean = run_campaign(circuit, seq, faults, &base);

    let _ = std::fs::remove_file(&path);
    failpoint::install(ChaosSchedule::seeded(chaos_seed));
    let mut attempts = 0;
    let chaotic = loop {
        attempts += 1;
        assert!(attempts <= 200, "chaos campaign never converged");
        let options = CampaignOptions {
            // Until the first checkpoint write survives there is nothing to
            // resume from; afterwards every retry picks up the survivors.
            resume: path.exists(),
            ..base.clone()
        };
        // An injected checkpoint write/rename/resume failure "kills" a run;
        // the next attempt resumes from whatever was flushed.
        if let Ok(result) = try_run_campaign(circuit, seq, faults, &options) {
            break result;
        }
    };
    let combos: Vec<(String, &'static str)> = failpoint::fired_combos()
        .into_iter()
        .map(|(combo, _count)| combo)
        .collect();
    failpoint::clear();

    // The surviving checkpoint is complete, free of skips and duplicates,
    // and a clean resume re-simulates nothing (the hook proves it) while
    // reproducing the chaotic run's aggregate exactly.
    let resumed = run_campaign(
        circuit,
        seq,
        faults,
        &CampaignOptions {
            resume: true,
            fault_hook: Some(Arc::new(|index, _fault: &Fault| {
                panic!("fault {index} re-simulated after a completed chaos run");
            })),
            isolate_panics: false,
            ..base
        },
    );
    assert!(resumed.resume_skipped.is_empty(), "{:?}", resumed.resume_skipped);
    assert_eq!(chaotic, resumed, "the final checkpoint holds the full result");
    let _ = std::fs::remove_file(&path);
    (clean, chaotic, combos)
}

/// The soak contract: complete, sound, audit-clean.
fn assert_chaos_contract(clean: &CampaignResult, chaotic: &CampaignResult) {
    assert_eq!(chaotic.total_faults, clean.total_faults);
    assert_eq!(chaotic.statuses.len(), clean.statuses.len(), "no lost records");
    assert_eq!(chaotic.audit_failed, 0, "chaos must never manufacture a detection");
    for (index, (chaos, reference)) in
        chaotic.statuses.iter().zip(&clean.statuses).enumerate()
    {
        if chaos == reference {
            continue;
        }
        assert!(
            matches!(
                chaos,
                FaultStatus::Faulted { .. } | FaultStatus::PartialVerdict { .. }
            ),
            "fault {index}: chaos may only downgrade to Faulted/PartialVerdict, \
             got {chaos:?} where the clean run says {reference:?}"
        );
    }
}

#[test]
fn pinned_seed_soak_covers_the_site_matrix_and_stays_sound() {
    let _serial = failpoint::test_lock();
    let mut distinct: BTreeSet<(String, &'static str)> = BTreeSet::new();

    let s27 = s27();
    let seq = random_sequence(&s27, 32, 0xFA17);
    let faults = full_fault_list(&s27);
    let (clean, chaotic, combos) = soak(&s27, &seq, &faults, 0xC4A0_5EED, "s27");
    assert_chaos_contract(&clean, &chaotic);
    distinct.extend(combos);

    // A second, larger circuit reaches the hot per-frame sites more often.
    // Every third fault keeps the runtime modest without thinning coverage.
    let s208 = entry("s208").expect("suite circuit").build();
    let seq = random_sequence(&s208, 48, 0xFA17);
    let faults: Vec<Fault> = full_fault_list(&s208).into_iter().step_by(3).collect();
    let (clean, chaotic, combos) = soak(&s208, &seq, &faults, 0xC4A0_5EED, "s208");
    assert_chaos_contract(&clean, &chaotic);
    distinct.extend(combos);

    assert!(
        distinct.len() >= 5,
        "the pinned seed must exercise at least 5 site/action combos: {distinct:?}"
    );
}

/// The sharded campaign under the same chaos schedule: shard writes fail,
/// shard workers panic and stall, shard files come back through an
/// injected-error read path — and the merged result must still carry
/// exactly one verdict per fault, audit-clean, soundly downgraded at worst.
/// The post-merge legs then corrupt and truncate a shard file on disk and
/// assert the strict merge refuses each with a located error until the
/// shard is healed by re-running it.
#[test]
fn sharded_chaos_soak_merges_exactly_once() {
    let _serial = failpoint::test_lock();
    let circuit = s27();
    let seq = random_sequence(&circuit, 32, 0xFA17);
    let faults = full_fault_list(&circuit);
    let dir = std::env::temp_dir().join("moa-chaos-shard-soak");
    let _ = std::fs::remove_dir_all(&dir);
    let base = CampaignOptions {
        moa: MoaOptions::default().with_degrade(true),
        budget: FaultBudget::none().with_work_limit(1 << 13),
        audit: Some(CampaignAudit::default()),
        threads: 2,
        ..Default::default()
    };

    failpoint::clear();
    let clean = run_campaign(&circuit, &seq, &faults, &base);

    failpoint::install(ChaosSchedule::seeded(0x5AAD_C4A0));
    let shard_opts = ShardOptions {
        // Generous enough to outlast every bounded injection plan.
        retries: 25,
        ..ShardOptions::new(4, dir.clone())
    };
    let run = run_sharded(&circuit, &seq, &faults, &base, &shard_opts).unwrap();
    assert!(
        run.quarantined.is_empty(),
        "no shard may be lost under a bounded schedule: {:?}",
        run.quarantined
    );
    // `fp/shard.read` and engine sites can still fire inside the merge; a
    // transient failure there is retried just like a shard attempt.
    let mut attempts = 0;
    let merged = loop {
        attempts += 1;
        assert!(attempts <= 50, "merge never converged under chaos");
        if let Ok(m) = merge_shards(&circuit, &seq, &faults, &base, &run.files) {
            break m;
        }
    };
    failpoint::clear();

    assert_eq!(merged.records, faults.len(), "exactly one record per fault");
    assert!(merged.audited > 0, "the merge re-audits detections");
    assert_chaos_contract(&clean, &merged.result);

    // Corruption leg: a flipped bit inside a record is refused by checksum,
    // with the damage located.
    let victim = shard_path(&dir, 2);
    let good = std::fs::read(&victim).unwrap();
    let mut corrupt = good.clone();
    let target = corrupt.len() - 20;
    corrupt[target] ^= 0x04;
    std::fs::write(&victim, &corrupt).unwrap();
    let e = merge_shards(&circuit, &seq, &faults, &base, &run.files).unwrap_err();
    assert!(e.to_string().contains("checksum mismatch"), "{e}");

    // Truncation leg: a torn file is refused outright.
    std::fs::write(&victim, &good[..good.len() - 9]).unwrap();
    let e = merge_shards(&circuit, &seq, &faults, &base, &run.files).unwrap_err();
    assert!(e.to_string().contains("torn"), "{e}");

    // Healing: re-running the shard resumes the intact records, re-simulates
    // the rest cleanly, and the merge completes exactly-once again.
    run_shard(&circuit, &seq, &faults, &base, 4, 2, &dir).unwrap();
    let healed = merge_shards(&circuit, &seq, &faults, &base, &run.files).unwrap();
    assert_eq!(healed.records, faults.len());
    assert_chaos_contract(&clean, &healed.result);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon under chaos: spool I/O errors on admit/store, panics and
/// delays in the submit handler and the worker loop. The contract is the
/// service-level degradation ladder — a submission either lands (and then
/// completes bit-identically, possibly after retries) or is refused with a
/// structured error; a job is either finished, still queued, or poisoned
/// with a reason; the daemon itself never dies and always drains cleanly.
#[test]
fn serve_chaos_soak_survives_spool_and_worker_failures() {
    use moa_core::{JobSpec, JobStatus, ServeOptions, Server, Submit};

    let _serial = failpoint::test_lock();
    let circuit = s27();
    let seq = random_sequence(&circuit, 16, 0x5E12);
    let spec = JobSpec::new(
        moa_circuits::iscas::S27_BENCH,
        &seq.to_text(),
        CampaignOptions::new(),
    )
    .expect("valid spec");
    let clean = run_campaign(&circuit, &seq, &full_fault_list(&circuit), &spec.options);

    let dir = std::env::temp_dir().join("moa-chaos-serve-soak");
    let _ = std::fs::remove_dir_all(&dir);
    failpoint::install(ChaosSchedule::seeded(0xC4A0_5EED));

    let server = Server::start(ServeOptions {
        workers: 1,
        job_attempts: 10,
        ..ServeOptions::new(&dir)
    })
    .expect("the daemon must start under chaos");
    // Submissions may be refused by injected spool errors or killed by
    // injected submit-handler panics (the catch is process-level in the
    // CLI; here an injected panic unwinds out of submit) — keep trying,
    // the daemon itself must stay serviceable.
    let mut hash = None;
    for _ in 0..32 {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.submit(&spec))) {
            Ok(Ok(
                Submit::Accepted { hash: h }
                | Submit::Coalesced { hash: h }
                | Submit::Cached { hash: h, .. },
            )) => {
                hash = Some(h);
                break;
            }
            Ok(Ok(other)) => panic!("unexpected submit outcome under chaos: {other:?}"),
            Ok(Err(_)) | Err(_) => {}
        }
    }
    let hash = hash.expect("32 tries must beat a p<=0.2 injection");

    // Poll until the job settles: chaos panics in the worker re-queue it
    // (bounded by job_attempts), injected store errors retry it. Poisoning
    // is an acceptable terminal state only if the attempt budget was truly
    // eaten by injections.
    let deadline = std::time::Instant::now() + std::time::Duration::from_mins(2);
    let final_status = loop {
        assert!(std::time::Instant::now() < deadline, "daemon never settled");
        // An Err here is an *injected* I/O failure on the cache-read path
        // (fp/checkpoint.resume, fp/spool.*): structured, located, and
        // transient — retrying is the client contract under chaos.
        match server.job_status(hash) {
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            Ok(JobStatus::Done { digest }) => break digest,
            Ok(JobStatus::Poisoned { reason }) => {
                assert!(
                    reason.contains("attempt"),
                    "poison must carry a structured reason: {reason}"
                );
                failpoint::clear();
                assert!(server.drain().is_ok());
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
            Ok(JobStatus::Queued | JobStatus::Running) => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Ok(JobStatus::Unknown) => panic!("an admitted job cannot be unknown"),
        }
    };
    // Chaos may soundly downgrade individual verdicts (injected worker
    // panics become Faulted under isolation) — hold the completed job to
    // the same contract as every other soak: no lost/duplicated records,
    // downgrades only, audits clean. The digest must match the *cached*
    // result exactly: what status reported is what the cache serves.
    failpoint::clear();
    let Submit::Cached { result, .. } = server.submit(&spec).expect("cache hit") else {
        panic!("a done job must answer from the cache");
    };
    assert_eq!(final_status, moa_core::verdict_digest(&result));
    assert_chaos_contract(&clean, &result);
    assert_eq!(server.drain().expect("drain"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn randomized_schedules_never_corrupt_verdicts(chaos_seed in 1u64..u64::MAX) {
        let _serial = failpoint::test_lock();
        let circuit = s27();
        let seq = random_sequence(&circuit, 24, 0xBEEF);
        let faults = full_fault_list(&circuit);
        let (clean, chaotic, _combos) = soak(&circuit, &seq, &faults, chaos_seed, "prop");
        assert_chaos_contract(&clean, &chaotic);
    }
}
