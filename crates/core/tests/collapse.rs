//! Integration tests for structural fault collapsing on the embedded circuit
//! suite.
//!
//! The campaign's packed screen spends one lane per structural equivalence
//! class of its pending list, and every member takes its representative's
//! conventional detection and condition-(C) bit. The contract is
//! *bit-identity in per-fault statuses*: on full fault lists, where classes
//! have several members, the screened campaign must equal the unscreened
//! one (which decides each member from its own scalar trace), with the
//! audit gate replaying each member's own certificate against the member
//! fault.

use moa_circuits::suite::entry;
use moa_core::{run_campaign, CampaignAudit, CampaignOptions};
use moa_netlist::{collapse_faults, full_fault_list, Circuit};
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
        let classes = collapse_faults(&c, &faults).len();
        let ratio = (faults.len() - classes) as f64 / faults.len() as f64;
        assert!(
            ratio >= 0.30,
            "{name}: only {:.1}% of {} faults collapsed",
            ratio * 100.0,
            faults.len()
        );
    }
}

#[test]
fn shared_screen_lanes_are_bit_identical_and_audit_clean_on_full_lists() {
    for name in ["s208", "s298"] {
        let (c, seq) = fixture(name, 48);
        let faults = full_fault_list(&c);
        let screened = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                audit: Some(CampaignAudit::default()),
                ..CampaignOptions::new()
            },
        );
        let unscreened = run_campaign(
            &c,
            &seq,
            &faults,
            &CampaignOptions {
                screen: false,
                ..CampaignOptions::new()
            },
        );
        assert_eq!(
            screened, unscreened,
            "{name}: a shared screen lane changed a per-fault status"
        );
        assert_eq!(screened.audit_failed, 0, "{name}: a shared verdict was refuted");
        assert!(screened.conventional > 0, "{name}: {screened:?}");
    }
}
