//! Cross-crate pipeline invariants: campaigns, statuses, determinism and the
//! relation between the baseline and the proposed procedure.

use moa_repro::circuits::suite::{entry, suite};
use moa_repro::circuits::synth::{generate, SynthSpec};
use moa_repro::circuits::teaching::resettable_toggle;
use moa_repro::core::{
    explain_fault, run_campaign, simulate_fault, CampaignOptions, FaultStatus, MoaOptions,
};
use moa_repro::netlist::{collapse_faults, full_fault_list};
use moa_repro::sim::{simulate, TestSequence};
use moa_repro::tpg::random_sequence;

#[test]
fn campaign_statuses_partition_the_fault_list() {
    let circuit = generate(&SynthSpec::new("part", 5, 3, 6, 60, 7));
    let seq = random_sequence(&circuit, 32, 9);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();
    let result = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
    assert_eq!(result.statuses.len(), faults.len());
    let conventional = result
        .statuses
        .iter()
        .filter(|s| matches!(s, FaultStatus::DetectedConventional(_)))
        .count();
    let skipped = result
        .statuses
        .iter()
        .filter(|s| matches!(s, FaultStatus::SkippedConditionC))
        .count();
    let extra = result.statuses.iter().filter(|s| s.is_extra_detected()).count();
    let undetected = result
        .statuses
        .iter()
        .filter(|s| matches!(s, FaultStatus::NotDetected { .. }))
        .count();
    assert_eq!(conventional, result.conventional);
    assert_eq!(skipped, result.skipped_condition_c);
    assert_eq!(extra, result.extra);
    assert_eq!(conventional + skipped + extra + undetected, faults.len());
    assert_eq!(result.expansion_counters.len(), extra);
}

#[test]
fn campaigns_are_deterministic_across_thread_counts() {
    let circuit = generate(&SynthSpec::new("det", 5, 3, 6, 60, 11));
    let seq = random_sequence(&circuit, 32, 12);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();
    let mut reference: Option<Vec<FaultStatus>> = None;
    for threads in [1, 2, 5] {
        let result = run_campaign(
            &circuit,
            &seq,
            &faults,
            &CampaignOptions {
                threads,
                ..Default::default()
            },
        );
        match &reference {
            None => reference = Some(result.statuses),
            Some(r) => assert_eq!(r, &result.statuses, "threads = {threads}"),
        }
    }
}

#[test]
fn proposed_detects_superset_of_baseline_on_suite_sample() {
    // Deterministic check on two small suite circuits: the empirical claim
    // of the paper ("all faults identified in [4] are also identified by the
    // proposed procedure") holds on our stand-ins.
    for name in ["s208", "s298"] {
        let e = entry(name).expect("suite circuit");
        let circuit = e.build();
        let seq = random_sequence(&circuit, 48, e.spec.seed);
        let faults = moa_repro::netlist::collapse_faults(
            &circuit,
            &moa_repro::netlist::full_fault_list(&circuit),
        )
        .representatives()
        .to_vec();
        let baseline = run_campaign(&circuit, &seq, &faults, &CampaignOptions::baseline());
        let proposed = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
        for (i, (b, p)) in baseline.statuses.iter().zip(&proposed.statuses).enumerate() {
            if b.is_detected() {
                assert!(
                    p.is_detected(),
                    "{name}: fault {i} detected by baseline but not proposed"
                );
            }
        }
    }
}

#[test]
fn n_states_limit_bounds_sequences() {
    let circuit = resettable_toggle();
    let seq = TestSequence::from_words(&["0", "0", "0", "0"]).unwrap();
    let good = simulate(&circuit, &seq, None);
    let fault = moa_repro::netlist::Fault::stem(circuit.find_net("r").unwrap(), true);
    for n_states in [2usize, 4, 16, 64] {
        let opts = MoaOptions::default().with_n_states(n_states);
        let result = simulate_fault(&circuit, &seq, &good, &fault, &opts);
        match result.status {
            FaultStatus::DetectedByExpansion { sequences } => {
                assert!(sequences <= n_states, "n_states = {n_states}");
            }
            FaultStatus::NotDetected { sequences, .. } => {
                assert!(sequences <= n_states);
            }
            _ => {}
        }
    }
}

#[test]
fn tighter_budgets_never_invent_detections() {
    // Shrinking max_implication_runs can lose detections but never add
    // unsound ones; detected counts are monotone-ish — verify subset-ness.
    let circuit = generate(&SynthSpec::new("bud", 5, 3, 6, 60, 23));
    let seq = random_sequence(&circuit, 32, 24);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();
    let small = run_campaign(
        &circuit,
        &seq,
        &faults,
        &CampaignOptions {
            moa: MoaOptions::default().with_max_implication_runs(8),
            threads: 1,
            ..Default::default()
        },
    );
    let large = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
    for (s, l) in small.statuses.iter().zip(&large.statuses) {
        if s.is_extra_detected() {
            assert!(
                l.is_extra_detected(),
                "full budget must keep the small budget's detections"
            );
        }
    }
}

#[test]
fn suite_definitions_build_and_are_nontrivial() {
    for e in suite() {
        let c = e.build();
        assert!(c.num_gates() >= 90, "{} is substantial", e.name);
        let faults = full_fault_list(&c);
        assert!(faults.len() > c.num_gates(), "{}", e.name);
    }
}

#[test]
fn include_final_time_unit_only_adds_detections() {
    let circuit = generate(&SynthSpec::new("fin", 5, 3, 6, 60, 31));
    let seq = random_sequence(&circuit, 24, 32);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();
    let base = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
    let with_final = run_campaign(
        &circuit,
        &seq,
        &faults,
        &CampaignOptions {
            moa: MoaOptions {
                include_final_time_unit: true,
                ..Default::default()
            },
            threads: 1,
            ..Default::default()
        },
    );
    assert!(with_final.detected_total() >= base.detected_total());
}

/// The campaign resimulates with the event-driven differential engine;
/// `explain_fault` walks the same procedure with the whole-frame
/// `resimulate` reference. Every default-campaign status must match it.
#[test]
fn campaign_resimulation_matches_the_whole_frame_reference() {
    let mut resimulated = 0;
    for seed in [3u64, 7, 11] {
        let circuit = generate(&SynthSpec::new(format!("pk{seed}"), 5, 3, 7, 70, seed));
        let seq = random_sequence(&circuit, 32, seed + 100);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let campaign = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
        let good = simulate(&circuit, &seq, None);
        for (fault, status) in faults.iter().zip(&campaign.statuses) {
            let reference = explain_fault(&circuit, &seq, &good, fault, &MoaOptions::default());
            assert_eq!(status, &reference.status, "seed {seed}: {}", reference.fault);
            resimulated += usize::from(reference.sequences > 0);
        }
    }
    assert!(resimulated > 0, "no fault reached resimulation");
}

#[test]
fn differential_and_full_conventional_agree_campaign_wide() {
    for seed in [5u64, 13] {
        let circuit = generate(&SynthSpec::new(format!("df{seed}"), 5, 3, 7, 70, seed));
        let seq = random_sequence(&circuit, 32, seed + 200);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let full = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
        let differential = run_campaign(
            &circuit,
            &seq,
            &faults,
            &CampaignOptions {
                differential: true,
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(full.statuses, differential.statuses, "seed {seed}");
    }
}

/// A tiny `N_STATES` forces aborts on faults whose candidate pairs outnumber
/// the allowed expansions; relaxing the limit resolves (some of) them.
#[test]
fn tiny_n_states_aborts_and_larger_limits_recover()  {
    let circuit = generate(&SynthSpec::new("ab", 5, 3, 7, 70, 41));
    let seq = random_sequence(&circuit, 32, 42);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();
    let tiny = run_campaign(
        &circuit,
        &seq,
        &faults,
        &CampaignOptions {
            moa: MoaOptions::default().with_n_states(2),
            threads: 1,
            ..Default::default()
        },
    );
    let full = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
    assert!(
        tiny.aborted >= full.aborted,
        "a tighter limit aborts at least as often ({} vs {})",
        tiny.aborted,
        full.aborted
    );
    assert!(full.detected_total() >= tiny.detected_total());
}
