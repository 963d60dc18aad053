//! A deterministic end-to-end snapshot of a full s27 campaign: pins the
//! observable behaviour of the entire pipeline on the one circuit we share
//! with the paper, so regressions in any stage surface as a diff here.

use moa_repro::circuits::iscas::s27;
use moa_repro::core::{
    exact_moa_check, run_campaign, CampaignOptions, ExactOutcome, FaultStatus, MoaOptions,
};
use moa_repro::netlist::{collapse_faults, full_fault_list};
use moa_repro::sim::simulate;
use moa_repro::tpg::random_sequence;

#[test]
fn s27_campaign_snapshot() {
    let c = s27();
    let seq = random_sequence(&c, 32, 27);
    let faults = collapse_faults(&c, &full_fault_list(&c))
        .representatives()
        .to_vec();
    assert_eq!(faults.len(), 32, "collapsed s27 fault list");

    let baseline = run_campaign(&c, &seq, &faults, &CampaignOptions::baseline());
    let proposed = run_campaign(&c, &seq, &faults, &CampaignOptions::new());

    // The snapshot: totals must stay exactly stable across refactors.
    assert_eq!(proposed.conventional, baseline.conventional);
    let snapshot = (
        proposed.conventional,
        baseline.detected_total(),
        proposed.detected_total(),
        proposed.skipped_condition_c,
    );
    // Ground truth for the snapshot values:
    let good = simulate(&c, &seq, None);
    let exact: usize = faults
        .iter()
        .filter(|f| {
            exact_moa_check(&c, &seq, &good, f, 16).expect("3 flip-flops") == ExactOutcome::Detected
        })
        .count();
    assert!(proposed.detected_total() <= exact, "sound");
    // s27 is small and well-initialized: every exactly detectable fault is
    // already conventionally detected (this is consistent with the paper,
    // whose Table 2 starts at s208 — s27 has no expansion-recoverable
    // faults under random patterns).
    assert_eq!(
        snapshot,
        (11, 11, 11, 19),
        "s27 pipeline snapshot changed (exact restricted-MOA detectable: {exact})"
    );
    assert_eq!(exact, 11, "the procedure is complete on s27 for this sequence");

    // Every undetected fault is either condition-C-skipped or has survivors.
    for status in &proposed.statuses {
        match status {
            FaultStatus::NotDetected { undecided, .. } => assert!(*undecided > 0),
            FaultStatus::SkippedConditionC => {}
            other => assert!(other.is_detected(), "unexpected status {other:?}"),
        }
    }

    // Depth-2 chaining keeps the same detected set on the full circuit here.
    let deep = run_campaign(
        &c,
        &seq,
        &faults,
        &CampaignOptions {
            moa: MoaOptions::default().with_backward_time_units(2),
            threads: 1,
            ..Default::default()
        },
    );
    assert_eq!(deep.detected_total(), proposed.detected_total());
}
