//! Equivalence guarantees of the 64-way parallel-fault screening pre-pass.
//!
//! The packed screen exists purely as an accelerator: for every fault it must
//! report *exactly* the conventional detection (same time unit, same output)
//! that a scalar faulty-machine simulation reports, and a campaign with
//! screening enabled must be indistinguishable — status by status — from one
//! without it, also on full fault lists, where equivalent faults share one
//! screen lane. These tests pin both properties across the full embedded
//! suite, across random circuits, and across checkpoint/resume.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;

use moa_repro::circuits::suite::suite;
use moa_repro::circuits::synth::{generate, SynthSpec};
use moa_repro::core::{
    condition_c_holds, n_out_profile, n_sv_profile, read_checkpoint, run_campaign, CampaignAudit,
    CampaignOptions, CheckpointHeader,
};
use moa_repro::netlist::{collapse_faults, full_fault_list, Fault};
use moa_repro::sim::{
    run_conventional, screen_faults, screen_faults_wide, simulate, ScreenLanes, SimTrace,
};
use moa_repro::tpg::random_sequence;

/// Condition (C) as the per-fault procedure decides it, from the scalar
/// faulty trace.
fn scalar_condition_c(good: &SimTrace, faulty: &SimTrace) -> bool {
    let n_sv = n_sv_profile(faulty);
    let n_out = n_out_profile(good, faulty);
    condition_c_holds(&n_sv[..n_out.len()], &n_out)
}

/// The headline equivalence: for every representative fault of every
/// embedded suite circuit, the 64-way packed screen reports bit-identically
/// the detection (or absence) of the scalar conventional simulation, and for
/// every fault it leaves undetected, the condition-(C) verdict of the scalar
/// faulty trace. The scalar reference runs are independent per fault, so
/// each circuit's comparison is split across the machine's cores.
#[test]
fn screen_matches_scalar_conventional_on_every_suite_fault() {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for e in suite() {
        let circuit = e.build();
        let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
        let good = simulate(&circuit, &seq, None);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();

        let outcome = screen_faults(&circuit, &seq, &good, &faults);
        assert_eq!(outcome.detections.len(), faults.len());
        assert!(outcome.gate_evaluations > 0, "{}", e.name);

        let verdicts: Vec<_> = faults
            .iter()
            .zip(outcome.detections.iter().zip(&outcome.condition_c))
            .collect();
        let (circuit, seq, good) = (&circuit, &seq, &good);
        std::thread::scope(|scope| {
            for part in verdicts.chunks(verdicts.len().div_ceil(threads).max(1)) {
                scope.spawn(move || {
                    for &(fault, (screened, &holds)) in part {
                        let (scalar, faulty) = run_conventional(circuit, seq, good, fault);
                        assert_eq!(
                            *screened, scalar,
                            "{}: screen and scalar conventional disagree on {fault}",
                            e.name
                        );
                        if screened.is_none() {
                            assert_eq!(
                                holds,
                                scalar_condition_c(good, &faulty),
                                "{}: screen and scalar condition (C) disagree on {fault}",
                                e.name
                            );
                        }
                    }
                });
            }
        });
    }
}

/// Slot verdicts must not depend on which other faults share the word:
/// screening each fault alone equals screening them 64 at a time. (This is
/// what makes resume sound — a resumed campaign screens a different, smaller
/// batch than the original run.)
#[test]
fn screen_verdicts_are_independent_of_batch_composition() {
    let entries = suite();
    let e = &entries[0];
    let circuit = e.build();
    let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
    let good = simulate(&circuit, &seq, None);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();

    let batched = screen_faults(&circuit, &seq, &good, &faults);
    for (i, fault) in faults.iter().enumerate() {
        let alone = screen_faults(&circuit, &seq, &good, std::slice::from_ref(fault));
        assert_eq!(
            alone.detections[0], batched.detections[i],
            "verdict for {fault} depends on its batch"
        );
    }
}

/// A screened campaign is status-for-status identical to an unscreened one on
/// every embedded circuit small enough for a debug-mode MOA campaign; the
/// bench command asserts the same equality on the full suite in release mode.
#[test]
fn screened_campaign_matches_unscreened_across_suite() {
    for e in suite() {
        let circuit = e.build();
        if circuit.num_flip_flops() > 10 {
            continue;
        }
        let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let screened = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
        let unscreened = run_campaign(
            &circuit,
            &seq,
            &faults,
            &CampaignOptions {
                screen: false,
                ..Default::default()
            },
        );
        assert_eq!(screened, unscreened, "{}", e.name);
    }
}

/// Screening survives a mid-campaign crash: the resumed run screens only the
/// still-pending faults and aggregates bit-identically to an uninterrupted,
/// audited campaign.
#[test]
fn screened_audited_campaign_resumes_identically_after_interruption() {
    let entries = suite();
    let e = &entries[0];
    let circuit = e.build();
    let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();
    let dir = std::env::temp_dir().join("moa-screening-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("screened.checkpoint");
    let _ = std::fs::remove_file(&path);

    let options = || CampaignOptions {
        audit: Some(CampaignAudit::default()),
        ..Default::default()
    };
    let reference = run_campaign(&circuit, &seq, &faults, &options());
    assert_eq!(reference.audit_failed, 0);

    let killer = faults.len() / 2;
    let interrupted = catch_unwind(AssertUnwindSafe(|| {
        run_campaign(
            &circuit,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 8,
                threads: 1,
                isolate_panics: false,
                fault_hook: Some(Arc::new(move |index, _fault: &Fault| {
                    assert!(index != killer, "simulated crash");
                })),
                ..options()
            },
        )
    }));
    assert!(interrupted.is_err(), "the campaign must have been interrupted");

    let header = CheckpointHeader {
        circuit: circuit.name().to_owned(),
        total_faults: faults.len(),
        seq_len: seq.len(),
    };
    let done = read_checkpoint(&path, &header)
        .unwrap()
        .slots
        .iter()
        .filter(|s| s.is_some())
        .count();
    assert!(done > 0 && done < faults.len(), "{done} of {}", faults.len());

    let resumed = run_campaign(
        &circuit,
        &seq,
        &faults,
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: 8,
            resume: true,
            ..options()
        },
    );
    assert_eq!(reference, resumed);
}

/// The wide kernels and the thread axis are pure execution knobs: for every
/// suite circuit, every lane width at several thread counts reports
/// detections and condition-(C) bits bit-identical to the 64-lane
/// single-threaded reference (and therefore, by the test above, to scalar
/// conventional simulation).
#[test]
fn wide_and_threaded_screens_match_the_64_lane_kernel_across_suite() {
    for e in suite() {
        let circuit = e.build();
        let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
        let good = simulate(&circuit, &seq, None);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let reference = screen_faults(&circuit, &seq, &good, &faults);
        for lanes in ScreenLanes::ALL {
            for threads in [1, 4] {
                let wide = screen_faults_wide(&circuit, &seq, &good, &faults, lanes, threads);
                assert_eq!(
                    wide.detections, reference.detections,
                    "{}: lanes={lanes} threads={threads}",
                    e.name
                );
                assert_eq!(
                    wide.condition_c, reference.condition_c,
                    "{}: lanes={lanes} threads={threads}",
                    e.name
                );
            }
        }
    }
}

/// A campaign interrupted mid-run and resumed with *different* screening
/// knobs (wider lanes, more threads) still aggregates bit-identically: the
/// screen is an accelerator, so the resumed half may run on any
/// configuration.
#[test]
fn resume_with_different_screen_knobs_is_bit_identical() {
    let entries = suite();
    let e = &entries[0];
    let circuit = e.build();
    let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();
    let dir = std::env::temp_dir().join("moa-screening-wide-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.checkpoint");
    let _ = std::fs::remove_file(&path);

    let reference = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());

    let killer = faults.len() / 2;
    let interrupted = catch_unwind(AssertUnwindSafe(|| {
        run_campaign(
            &circuit,
            &seq,
            &faults,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 8,
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

    let resumed = run_campaign(
        &circuit,
        &seq,
        &faults,
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: 8,
            resume: true,
            screen_lanes: ScreenLanes::L256,
            screen_threads: 4,
            ..Default::default()
        },
    );
    assert_eq!(reference, resumed, "wide resume diverged from the 64-lane run");
}

fn arb_spec() -> impl Strategy<Value = SynthSpec> {
    (1usize..5, 1usize..4, 1usize..7, 10usize..60, any::<u64>()).prop_map(
        |(inputs, outputs, ffs, extra_gates, seed)| {
            SynthSpec::new(
                "screen-prop",
                inputs,
                outputs,
                ffs,
                ffs + outputs + extra_gates,
                seed,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Screen/scalar equivalence — detections, and condition (C) for the
    /// faults left undetected — holds on random circuits and random
    /// sequences, for every collapsed fault — not just the embedded suite.
    #[test]
    fn screen_matches_scalar_on_random_circuits(
        spec in arb_spec(),
        len in 1usize..40,
        seq_seed in any::<u64>(),
    ) {
        let circuit = generate(&spec);
        let seq = random_sequence(&circuit, len, seq_seed);
        let good = simulate(&circuit, &seq, None);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let outcome = screen_faults(&circuit, &seq, &good, &faults);
        let verdicts = outcome.detections.iter().zip(&outcome.condition_c);
        for (fault, (screened, &holds)) in faults.iter().zip(verdicts) {
            let (scalar, faulty) = run_conventional(&circuit, &seq, &good, fault);
            prop_assert_eq!(*screened, scalar, "disagreement on {}", fault);
            if screened.is_none() {
                prop_assert_eq!(holds, scalar_condition_c(&good, &faulty),
                    "condition (C) disagreement on {}", fault);
            }
        }
    }

    /// Campaign equality under screening holds on random circuits too, over
    /// the full fault list: equivalent faults share one screen lane, while
    /// the unscreened campaign decides each member from its own scalar trace.
    #[test]
    fn screened_campaign_matches_unscreened_on_random_circuits(spec in arb_spec()) {
        let circuit = generate(&spec);
        let seq = random_sequence(&circuit, 24, spec.seed ^ 0x5eed);
        let faults = full_fault_list(&circuit);
        let screened = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
        let unscreened = run_campaign(
            &circuit,
            &seq,
            &faults,
            &CampaignOptions { screen: false, ..Default::default() },
        );
        prop_assert_eq!(screened, unscreened);
    }

    /// The full execution-knob sweep: on random circuits, a randomly drawn
    /// lane width and thread count report screen verdicts (detections and
    /// condition-(C) bits) bit-identical to both the scalar simulation and
    /// the 64-lane reference kernel.
    #[test]
    fn wide_screen_matches_scalar_and_narrow_on_random_circuits(
        spec in arb_spec(),
        len in 1usize..40,
        seq_seed in any::<u64>(),
        lane_pick in 0usize..3,
        threads in 1usize..5,
    ) {
        let circuit = generate(&spec);
        let seq = random_sequence(&circuit, len, seq_seed);
        let good = simulate(&circuit, &seq, None);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let lanes = ScreenLanes::ALL[lane_pick];
        let narrow = screen_faults(&circuit, &seq, &good, &faults);
        let wide = screen_faults_wide(&circuit, &seq, &good, &faults, lanes, threads);
        prop_assert_eq!(&wide.detections, &narrow.detections,
            "lanes={} threads={}", lanes, threads);
        prop_assert_eq!(&wide.condition_c, &narrow.condition_c,
            "lanes={} threads={}", lanes, threads);
        let verdicts = wide.detections.iter().zip(&wide.condition_c);
        for (fault, (screened, &holds)) in faults.iter().zip(verdicts) {
            let (scalar, faulty) = run_conventional(&circuit, &seq, &good, fault);
            prop_assert_eq!(*screened, scalar, "disagreement on {}", fault);
            if screened.is_none() {
                prop_assert_eq!(holds, scalar_condition_c(&good, &faulty),
                    "condition (C) disagreement on {}", fault);
            }
        }
    }

    /// Lane width and thread count stay verdict-neutral under a work-limit
    /// budget: the limit bounds the per-fault MOA stages, whose inputs (which
    /// faults the screen resolved, and how) are bit-identical at every
    /// screening configuration — so whole campaigns agree status for status.
    #[test]
    fn campaigns_agree_across_lanes_threads_and_work_limits(
        spec in arb_spec(),
        lane_pick in 0usize..3,
        threads in 1usize..5,
        work_limit in 0u64..50, // 0 = unlimited

    ) {
        let circuit = generate(&spec);
        let seq = random_sequence(&circuit, 24, spec.seed ^ 0x5eed);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let mut budget = moa_repro::core::FaultBudget::none();
        if work_limit > 0 {
            budget = budget.with_work_limit(work_limit);
        }
        let narrow = run_campaign(&circuit, &seq, &faults, &CampaignOptions {
            budget: budget.clone(),
            ..Default::default()
        });
        let wide = run_campaign(&circuit, &seq, &faults, &CampaignOptions {
            budget,
            screen_lanes: ScreenLanes::ALL[lane_pick],
            screen_threads: threads,
            ..Default::default()
        });
        prop_assert_eq!(narrow, wide);
    }
}
