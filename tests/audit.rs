//! End-to-end validation of the detection-certificate audit subsystem: every
//! detection the engine claims on the embedded circuits must survive concrete
//! witness replay, and — where the exhaustive checker applies — the audited
//! detections must be a subset of the exact restricted-MOA verdicts.

use moa_repro::circuits::iscas::s27;
use moa_repro::circuits::suite::suite;
use moa_repro::circuits::teaching::resettable_toggle;
use moa_repro::core::{
    certificate_cross_check, run_campaign, simulate_fault_certified, BudgetMeter, CampaignAudit,
    CampaignOptions, MoaOptions,
};
use moa_repro::netlist::{collapse_faults, full_fault_list};
use moa_repro::sim::simulate;
use moa_repro::tpg::random_sequence;

#[test]
fn s27_audited_campaign_is_clean_and_matches_plain() {
    let c = s27();
    let seq = random_sequence(&c, 32, 27);
    let faults = collapse_faults(&c, &full_fault_list(&c))
        .representatives()
        .to_vec();
    let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
    let audited = run_campaign(
        &c,
        &seq,
        &faults,
        &CampaignOptions {
            audit: Some(CampaignAudit::default()),
            ..Default::default()
        },
    );
    assert_eq!(audited.audit_failed, 0, "a sound engine audits clean");
    assert_eq!(plain, audited, "a clean audit must not change any verdict");
}

#[test]
fn audited_detections_are_subset_of_exact_on_s27() {
    let c = s27();
    let seq = random_sequence(&c, 32, 27);
    let good = simulate(&c, &seq, None);
    let faults = collapse_faults(&c, &full_fault_list(&c))
        .representatives()
        .to_vec();
    let mut confirmed = 0usize;
    for fault in &faults {
        let (result, certificate) = simulate_fault_certified(
            &c,
            &seq,
            &good,
            fault,
            &MoaOptions::default(),
            None,
            &mut BudgetMeter::unlimited(),
        );
        if !result.status.is_detected() {
            assert!(certificate.is_none());
            continue;
        }
        let certificate = certificate.expect("every detection carries a certificate");
        let check = certificate_cross_check(&c, &seq, &good, fault, &certificate, 8);
        // s27 has 3 flip-flops: both the audit and the exact checker run to
        // completion, so confirmation implies an exact detection.
        assert!(
            check.audit.is_confirmed(),
            "{fault:?}: {:?}",
            check.audit
        );
        assert!(check.consistent(), "{fault:?}: audited ⊄ exact");
        assert!(
            check.exact.expect("s27 is small enough").is_detected(),
            "{fault:?}: audit confirmed a detection the exact checker denies"
        );
        confirmed += 1;
    }
    assert!(confirmed > 0, "s27 must have audited detections");
}

#[test]
fn toggle_audited_campaign_is_clean() {
    let c = resettable_toggle();
    let seq = moa_repro::sim::TestSequence::from_words(&["0", "0", "0"]).unwrap();
    let faults = full_fault_list(&c);
    let audited = run_campaign(
        &c,
        &seq,
        &faults,
        &CampaignOptions {
            audit: Some(CampaignAudit::default()),
            ..Default::default()
        },
    );
    assert_eq!(audited.audit_failed, 0);
    assert!(audited.extra >= 1, "the reset-line fault stays detected");
}

#[test]
fn small_suite_circuits_audit_clean() {
    // The suite entries small enough for exhaustive replay under the audit's
    // 2^14-state cap; the CI audit-smoke job covers the rest via `moa suite
    // --audit` (over-cap circuits audit as Inconclusive, never as failed).
    for e in suite() {
        let circuit = e.build();
        if circuit.num_flip_flops() > 10 {
            continue;
        }
        let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let audited = run_campaign(
            &circuit,
            &seq,
            &faults,
            &CampaignOptions {
                audit: Some(CampaignAudit::default()),
                ..Default::default()
            },
        );
        assert_eq!(
            audited.audit_failed, 0,
            "{}: {} detections failed their audit",
            e.name, audited.audit_failed
        );
        assert_eq!(
            audited.perf.audits_confirmed,
            audited.detected_total() as u64,
            "{}: under the cap every detection is confirmed: {:?}",
            e.name,
            audited.perf
        );
    }
}
