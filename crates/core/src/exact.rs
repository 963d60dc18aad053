//! Exhaustive ground truth for the restricted multiple observation time
//! approach.
//!
//! For a circuit with `k` flip-flops and a binary test sequence, a fault is
//! detected under the restricted MOA iff *every* one of the `2^k` binary
//! initial states of the faulty machine produces an output sequence that
//! conflicts with the (three-valued) fault-free response at some position
//! where the fault-free value is specified. This module enumerates all
//! initial states, 64 at a time, with the bit-parallel simulator — feasible
//! for small `k` and used by the test suites to validate that the paper's
//! procedure is *sound* (it never claims detection the exact check refutes).

use moa_netlist::{Circuit, Fault};
use moa_sim::{packed_next_state, packed_outputs, run_packed_frame, SimTrace, TestSequence};

use crate::audit::{audit_certificate, initial_state_batches, AuditStatus};
use crate::certificate::DetectionCertificate;

/// The exact verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactOutcome {
    /// Every initial state of the faulty machine conflicts with the
    /// fault-free response: the fault is detected under the restricted MOA.
    Detected,
    /// At least one initial state of the faulty machine reproduces the
    /// fault-free response at every specified position.
    NotDetected {
        /// One surviving initial state (flip-flop values in index order).
        surviving_state: Vec<bool>,
    },
}

impl ExactOutcome {
    /// `true` for [`ExactOutcome::Detected`].
    pub fn is_detected(&self) -> bool {
        matches!(self, ExactOutcome::Detected)
    }
}

/// Exhaustively decides restricted-MOA detection of `fault` under `seq`.
///
/// Returns `None` when the check is infeasible: more than `max_flip_flops`
/// state variables, or a test sequence containing `X` values.
///
/// `good` must be the fault-free trace of `seq`.
///
/// # Panics
///
/// Panics if `max_flip_flops >= 28` (the enumeration would be astronomically
/// large; the guard keeps accidental misuse from hanging).
///
/// # Example
///
/// ```
/// use moa_core::{exact_moa_check, ExactOutcome};
/// use moa_netlist::{parse_bench, Fault};
/// use moa_sim::{simulate, TestSequence};
///
/// let c = parse_bench(
///     "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
/// )?;
/// let seq = TestSequence::from_words(&["0", "0", "0"])?;
/// let good = simulate(&c, &seq, None);
/// let fault = Fault::stem(c.find_net("r").unwrap(), true);
/// let outcome = exact_moa_check(&c, &seq, &good, &fault, 16).unwrap();
/// assert!(outcome.is_detected());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exact_moa_check(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    max_flip_flops: usize,
) -> Option<ExactOutcome> {
    assert!(max_flip_flops < 28, "exact enumeration bound is too large");
    let k = circuit.num_flip_flops();
    if k > max_flip_flops || !seq.is_fully_specified() {
        return None;
    }

    let patterns: Vec<Vec<bool>> = seq
        .iter()
        .map(|p| p.iter().map(|v| v.to_bool().expect("binary")).collect())
        .collect();

    for (base, valid, mut state) in initial_state_batches(k) {
        let mut mismatched = 0u64;
        for (u, pattern) in patterns.iter().enumerate() {
            let frame = run_packed_frame(circuit, pattern, &state, Some(fault));
            let outs = packed_outputs(circuit, &frame);
            for (o, &word) in outs.iter().enumerate() {
                match good.outputs[u][o].to_bool() {
                    Some(true) => mismatched |= !word,
                    Some(false) => mismatched |= word,
                    None => {}
                }
            }
            state = packed_next_state(circuit, &frame, Some(fault));
        }

        let surviving = valid & !mismatched;
        if surviving != 0 {
            let slot = u64::from(surviving.trailing_zeros());
            let index = base + slot;
            let surviving_state = (0..k).map(|i| index >> i & 1 == 1).collect();
            return Some(ExactOutcome::NotDetected { surviving_state });
        }
    }
    Some(ExactOutcome::Detected)
}

/// The combined verdicts of [`certificate_cross_check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateCrossCheck {
    /// The certificate audit verdict.
    pub audit: AuditStatus,
    /// The exhaustive verdict (`None` when [`exact_moa_check`] is
    /// infeasible for this circuit or sequence).
    pub exact: Option<ExactOutcome>,
}

impl CertificateCrossCheck {
    /// `audited ⊆ exact`: a confirmed audit must agree with the exhaustive
    /// checker whenever the latter applies. Any other combination — refuted,
    /// inconclusive, or no exact verdict — is vacuously consistent (those
    /// detections are simply not *confirmed*).
    pub fn consistent(&self) -> bool {
        match (&self.audit, &self.exact) {
            (AuditStatus::Confirmed { .. }, Some(exact)) => exact.is_detected(),
            _ => true,
        }
    }
}

/// Cross-checks a detection certificate against the exhaustive ground truth:
/// runs [`audit_certificate`] and [`exact_moa_check`] independently and
/// returns both verdicts. A confirmed audit claims every binary behaviour
/// mismatches the fault-free response, which is precisely restricted-MOA
/// detection — so [`CertificateCrossCheck::consistent`] failing would prove
/// the audit itself unsound. Tier-1 tests assert consistency over every
/// auditable suite circuit.
pub fn certificate_cross_check(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    certificate: &DetectionCertificate,
    max_flip_flops: usize,
) -> CertificateCrossCheck {
    CertificateCrossCheck {
        audit: audit_certificate(circuit, seq, good, fault, certificate),
        exact: exact_moa_check(circuit, seq, good, fault, max_flip_flops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::GateKind;
    use moa_netlist::CircuitBuilder;
    use moa_sim::simulate;

    fn toggle() -> (Circuit, TestSequence, SimTrace) {
        let mut b = CircuitBuilder::new("toggle");
        b.add_input("r").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Not, "nq", &["q"]).unwrap();
        b.add_gate(GateKind::And, "d", &["r", "nq"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        (c, seq, good)
    }

    #[test]
    fn detects_the_reset_fault() {
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        assert_eq!(
            exact_moa_check(&c, &seq, &good, &fault, 16),
            Some(ExactOutcome::Detected)
        );
    }

    #[test]
    fn reports_a_surviving_state() {
        // nq stuck-at-1 → d = r = 0 = good d: behaviourally equivalent under
        // this sequence, so every initial state survives.
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("nq").unwrap(), true);
        match exact_moa_check(&c, &seq, &good, &fault, 16) {
            Some(ExactOutcome::NotDetected { surviving_state }) => {
                assert_eq!(surviving_state.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn partially_detected_fault_is_not_moa_detected() {
        // z = OR(a, q), d = BUF(q), a stuck-at-0: starting at q=1 the faulty
        // machine matches forever → not detected.
        let mut b = CircuitBuilder::new("or");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Or, "z", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Buf, "d", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["1", "1"]).unwrap();
        let good = simulate(&c, &seq, None);
        let fault = Fault::stem(c.find_net("a").unwrap(), false);
        match exact_moa_check(&c, &seq, &good, &fault, 16) {
            Some(ExactOutcome::NotDetected { surviving_state }) => {
                assert_eq!(surviving_state, vec![true]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cross_check_confirms_audited_detection() {
        use crate::budget::BudgetMeter;
        use crate::procedure::simulate_fault_certified;
        use crate::MoaOptions;
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let (result, certificate) = simulate_fault_certified(
            &c,
            &seq,
            &good,
            &fault,
            &MoaOptions::default(),
            None,
            &mut BudgetMeter::unlimited(),
        );
        assert!(result.status.is_detected());
        let check = certificate_cross_check(
            &c,
            &seq,
            &good,
            &fault,
            &certificate.expect("certificate"),
            16,
        );
        assert!(check.audit.is_confirmed());
        assert_eq!(check.exact, Some(ExactOutcome::Detected));
        assert!(check.consistent());
    }

    #[test]
    fn cross_check_is_vacuously_consistent_without_exact_verdict() {
        use crate::certificate::{CertificateClaim, CertificateSource, ClaimKind};
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let cert = DetectionCertificate {
            source: CertificateSource::Expansion,
            claims: vec![CertificateClaim {
                assignments: Vec::new(),
                kind: ClaimKind::Observation {
                    time: 1,
                    output: 0,
                    value: true,
                },
            }],
        };
        // max_flip_flops = 0 disables the exact check.
        let check = certificate_cross_check(&c, &seq, &good, &fault, &cert, 0);
        assert_eq!(check.exact, None);
        assert!(check.consistent());
    }

    #[test]
    fn too_many_flip_flops_returns_none() {
        let (c, seq, good) = toggle();
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        assert_eq!(exact_moa_check(&c, &seq, &good, &fault, 0), None);
    }

    #[test]
    fn multi_ff_enumeration_crosses_batches() {
        // 7 flip-flops → 128 initial states → two 64-slot batches.
        let mut b = CircuitBuilder::new("wide");
        b.add_input("r").unwrap();
        let mut or_terms = Vec::new();
        for i in 0..7 {
            let q = format!("q{i}");
            let d = format!("d{i}");
            b.add_flip_flop(&q, &d).unwrap();
            b.add_gate(GateKind::And, &d, &["r", &q]).unwrap();
            or_terms.push(q);
        }
        let refs: Vec<&str> = or_terms.iter().map(String::as_str).collect();
        b.add_gate(GateKind::Or, "z", &refs).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        // r=0 clears every flip-flop: good z = x,0.
        let seq = TestSequence::from_words(&["0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        // r stuck-at-1 holds the state: any nonzero initial state keeps z=1
        // (mismatch), but the all-zero state matches → not detected.
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        match exact_moa_check(&c, &seq, &good, &fault, 16) {
            Some(ExactOutcome::NotDetected { surviving_state }) => {
                assert!(surviving_state.iter().all(|&b| !b));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
