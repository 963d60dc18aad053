//! Integration tests for the static fault-collapsing subsystem
//! (`CampaignOptions::collapse`) on the embedded circuit suite.
//!
//! The contract is *bit-identity in per-original-fault statuses*: a
//! collapsed campaign simulates one representative per proven equivalence
//! class, expands the two member-invariant verdicts (conventional detection
//! and the condition-C skip) to the other members, and individually
//! simulates everything else — so `CampaignResult` equality against the
//! plain run must hold exactly, on every suite circuit, with the audit gate
//! replaying inherited certificates against the member faults.

use moa_circuits::suite::entry;
use moa_core::{run_campaign, CampaignAudit, CampaignOptions, CollapseAnalysis};
use moa_netlist::{full_fault_list, Circuit};
use moa_sim::TestSequence;
use moa_tpg::random_sequence;

fn fixture(name: &str, seq_len: usize) -> (Circuit, TestSequence) {
    let e = entry(name).unwrap();
    let c = e.build();
    let seq = random_sequence(&c, seq_len, 0xC0FFEE ^ seq_len as u64);
    (c, seq)
}

#[test]
fn suite_circuits_collapse_at_least_thirty_percent_statically() {
    // The acceptance floor for the subsystem: gate-local equivalence rules
    // closed over fanout-free regions must retire ≥ 30% of the full fault
    // list on the suite stand-ins (measured 38–44%).
    for name in ["s208", "s298", "s344", "s420"] {
        let e = entry(name).unwrap();
        let c = e.build();
        let faults = full_fault_list(&c);
        let analysis = CollapseAnalysis::of(&c, &faults);
        assert!(
            analysis.ratio() >= 0.30,
            "{name}: only {:.1}% of {} faults collapsed",
            analysis.ratio() * 100.0,
            analysis.total()
        );
    }
}

#[test]
fn collapsed_suite_campaign_is_bit_identical_and_audits_clean() {
    for name in ["s208", "s298"] {
        let (c, seq) = fixture(name, 48);
        let faults = full_fault_list(&c);
        let plain = run_campaign(&c, &seq, &faults, &CampaignOptions::new());
        let collapsed = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                collapse: true,
                audit: Some(CampaignAudit::default()),
                ..CampaignOptions::new()
            },
        );
        assert_eq!(
            plain, collapsed,
            "{name}: collapse changed a per-fault status"
        );
        assert_eq!(collapsed.audit_failed, 0, "{name}: an inherited verdict was refuted");
        let report = collapsed.collapse.as_ref().expect("collapse report");
        assert!(report.inherited > 0, "{name}: {report:?}");
        assert!(report.audited > 0, "{name}: {report:?}");
        assert_eq!(
            report.inherited + report.fallback,
            report.collapsed(),
            "{name}: {report:?}"
        );
    }
}
