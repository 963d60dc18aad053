//! Certificate audit — concrete two-valued replay of detection claims.
//!
//! [`audit_certificate`] validates a [`DetectionCertificate`] against the
//! ground truth: it enumerates *every* binary initial state of the faulty
//! machine (64 at a time, through the bit-parallel two-valued simulator) and
//! checks, per behaviour, that
//!
//! 1. no behaviour satisfies an [`ClaimKind::Infeasible`] cube (a concrete
//!    witness refutes the infeasibility outright),
//! 2. every behaviour satisfying an [`ClaimKind::Observation`] cube actually
//!    shows the claimed output value at the claimed time, and
//! 3. every behaviour satisfies at least one `Observation` cube — the claims
//!    jointly *cover* the behaviour space.
//!
//! Because each claimed observation is pre-checked to conflict with the
//! specified fault-free response, a [`AuditStatus::Confirmed`] verdict
//! proves every binary behaviour of the faulty machine mismatches the
//! fault-free trace at a specified position — exactly restricted-MOA
//! detection, independently of all symbolic reasoning. The audit never
//! trusts the implication engine; it only trusts the packed two-valued
//! simulator and the fault-free trace.
//!
//! # Bounds and `Inconclusive`
//!
//! The enumeration is exponential in the flip-flop count `k`, so the audit
//! enumerates at most `2^14` initial states: every circuit with up to 14
//! flip-flops. Circuits beyond the cap — or test sequences containing `X`
//! inputs, which the two-valued replay cannot drive — yield
//! [`AuditStatus::Inconclusive`]: the detection stands un-audited, which is
//! explicitly *not* a confirmation. Only [`AuditStatus::Refuted`] indicates
//! unsoundness.

use moa_netlist::{Circuit, Fault};
use moa_sim::{packed_next_state, packed_outputs, run_packed_frame, SimTrace, TestSequence};

use crate::certificate::{ClaimKind, DetectionCertificate};

/// The most initial states (`2^k`) [`audit_certificate`] enumerates; larger
/// state spaces yield [`AuditStatus::Inconclusive`]. `2^14 = 16384` audits
/// every circuit with up to 14 flip-flops.
const AUDIT_STATE_CAP: u64 = 1 << 14;

/// The `2^k` binary initial states of a `k`-flip-flop machine, 64 to a
/// batch, as the bit-parallel two-valued simulator takes them: each item is
/// `(base, valid, state)`, where slot `s` holds initial state index
/// `base + s`, `valid` masks the slots in use, and `state[i]` packs
/// flip-flop `i`'s value per slot. Shared by the audit and the exact
/// checker; `k` must be below 64.
pub(crate) fn initial_state_batches(k: usize) -> impl Iterator<Item = (u64, u64, Vec<u64>)> {
    let total = 1u64 << k;
    (0..total).step_by(64).map(move |base| {
        let batch = (total - base).min(64);
        let valid = if batch == 64 { u64::MAX } else { (1u64 << batch) - 1 };
        let state = (0..k)
            .map(|i| {
                (0..batch)
                    .filter(|s| (base + s) >> i & 1 == 1)
                    .fold(0u64, |word, s| word | 1 << s)
            })
            .collect();
        (base, valid, state)
    })
}

/// The audit verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditStatus {
    /// Every enumerated behaviour is covered by a truthful observation claim
    /// and no infeasibility claim has a concrete witness: the detection is
    /// proven by replay.
    Confirmed {
        /// Number of initial states enumerated (`2^k`).
        states_checked: u64,
    },
    /// The certificate is wrong: some claim lies about the concrete
    /// behaviour of the faulty machine, or the claims fail to cover it.
    Refuted {
        /// What failed, including a witness initial-state index where one
        /// exists.
        reason: String,
    },
    /// The audit could not run to completion; the detection is neither
    /// confirmed nor refuted.
    Inconclusive {
        /// Why the audit could not run.
        reason: String,
    },
}

impl AuditStatus {
    /// `true` for [`AuditStatus::Confirmed`].
    pub fn is_confirmed(&self) -> bool {
        matches!(self, AuditStatus::Confirmed { .. })
    }

    /// `true` for [`AuditStatus::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, AuditStatus::Refuted { .. })
    }
}

/// Validates `certificate` for `fault` under `seq` by exhaustive two-valued
/// replay. `good` must be the fault-free trace of `seq`.
///
/// # Example
///
/// A hand-written certificate for the resettable-toggle reset fault: the
/// behaviours starting at `q = 0` and `q = 1` each mismatch the fault-free
/// response (`z = x, 0, 0`) at some time unit.
///
/// ```
/// use moa_core::{audit_certificate, CertificateClaim, ClaimKind, CertificateSource,
///     DetectionCertificate};
/// use moa_netlist::{parse_bench, Fault};
/// use moa_sim::{simulate, TestSequence};
///
/// let c = parse_bench(
///     "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
/// )?;
/// let seq = TestSequence::from_words(&["0", "0", "0"])?;
/// let good = simulate(&c, &seq, None);
/// let fault = Fault::stem(c.find_net("r").unwrap(), true);
/// let certificate = DetectionCertificate {
///     source: CertificateSource::Expansion,
///     claims: vec![
///         // q = 0 initially → q toggles to 1 at time 1 → z = 1 ≠ good 0.
///         CertificateClaim {
///             assignments: vec![(0, 0, false)],
///             kind: ClaimKind::Observation { time: 1, output: 0, value: true },
///         },
///         // q = 1 initially → z = 1 ≠ good 0 at time 1 (q toggles 1,0,1).
///         CertificateClaim {
///             assignments: vec![(0, 0, true)],
///             kind: ClaimKind::Observation { time: 2, output: 0, value: true },
///         },
///     ],
/// };
/// let status = audit_certificate(&c, &seq, &good, &fault, &certificate);
/// assert!(status.is_confirmed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn audit_certificate(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    certificate: &DetectionCertificate,
) -> AuditStatus {
    let k = circuit.num_flip_flops();
    let l = seq.len();

    if !seq.is_fully_specified() {
        return AuditStatus::Inconclusive {
            reason: "test sequence contains unspecified inputs; two-valued replay cannot drive it"
                .into(),
        };
    }
    if k >= 64 || (1u64 << k) > AUDIT_STATE_CAP {
        return AuditStatus::Inconclusive {
            reason: format!("2^{k} initial states exceed the audit cap of {AUDIT_STATE_CAP}"),
        };
    }

    // Structural pre-checks: claims must be well-formed, and every claimed
    // observation must conflict a *specified* fault-free value — otherwise
    // the observation would not constitute a detection even if replay
    // reproduces it.
    if certificate.claims.is_empty() {
        return AuditStatus::Refuted {
            reason: "certificate has no claims; the behaviour space is uncovered".into(),
        };
    }
    for (c, claim) in certificate.claims.iter().enumerate() {
        for &(u, i, _) in &claim.assignments {
            if u > l || i >= k {
                return AuditStatus::Refuted {
                    reason: format!("claim {c}: assignment (u={u}, i={i}) is out of range"),
                };
            }
        }
        match claim.kind {
            ClaimKind::Observation {
                time,
                output,
                value,
            } => {
                if time >= l || output >= circuit.num_outputs() {
                    return AuditStatus::Refuted {
                        reason: format!(
                            "claim {c}: observation (time={time}, output={output}) is out of range"
                        ),
                    };
                }
                if good.outputs[time][output].to_bool() != Some(!value) {
                    return AuditStatus::Refuted {
                        reason: format!(
                            "claim {c}: claimed observation {value} at (time={time}, \
                             output={output}) does not conflict the specified fault-free value"
                        ),
                    };
                }
            }
            ClaimKind::Infeasible { time } => {
                if time > l {
                    return AuditStatus::Refuted {
                        reason: format!("claim {c}: conflict frame {time} is out of range"),
                    };
                }
            }
        }
    }

    let patterns: Vec<Vec<bool>> = seq
        .iter()
        .map(|p| p.iter().filter_map(|v| v.to_bool()).collect())
        .collect();

    // Per-claim assignments indexed by time unit, so each frame is checked
    // in one pass while the replay state is at hand.
    let mut at_time: Vec<Vec<(usize, usize, bool)>> = vec![Vec::new(); l + 1];
    for (c, claim) in certificate.claims.iter().enumerate() {
        for &(u, i, value) in &claim.assignments {
            at_time[u].push((c, i, value));
        }
    }
    let num_claims = certificate.claims.len();

    for (base, valid, mut state) in initial_state_batches(k) {
        // cube[c]: slots whose trajectory satisfies claim c's assignments so
        // far. holds[c]: slots where claim c's observation comes out as
        // claimed (meaningful for Observation claims only).
        let mut cube = vec![u64::MAX; num_claims];
        let mut holds = vec![0u64; num_claims];

        for (u, pattern) in patterns.iter().enumerate() {
            for &(c, i, value) in &at_time[u] {
                cube[c] &= if value { state[i] } else { !state[i] };
            }
            let frame = run_packed_frame(circuit, pattern, &state, Some(fault));
            let outs = packed_outputs(circuit, &frame);
            for (c, claim) in certificate.claims.iter().enumerate() {
                if let ClaimKind::Observation {
                    time,
                    output,
                    value,
                } = claim.kind
                {
                    if time == u {
                        holds[c] = if value { outs[output] } else { !outs[output] };
                    }
                }
            }
            state = packed_next_state(circuit, &frame, Some(fault));
        }
        for &(c, i, value) in &at_time[l] {
            cube[c] &= if value { state[i] } else { !state[i] };
        }

        let mut infeasible_hit = 0u64;
        let mut violated = 0u64;
        let mut covered = 0u64;
        for (c, claim) in certificate.claims.iter().enumerate() {
            match claim.kind {
                ClaimKind::Infeasible { .. } => infeasible_hit |= cube[c],
                ClaimKind::Observation { .. } => {
                    covered |= cube[c] & holds[c];
                    violated |= cube[c] & !holds[c];
                }
            }
        }

        let bad = valid & (infeasible_hit | violated | !covered);
        if bad != 0 {
            let slot = u64::from(bad.trailing_zeros());
            let witness = base + slot;
            let bit = 1u64 << slot;
            let reason = if infeasible_hit & bit != 0 {
                format!("initial state {witness} is a concrete witness for an infeasibility claim")
            } else if violated & bit != 0 {
                format!("initial state {witness} satisfies an observation claim whose claimed output value does not replay")
            } else {
                format!("initial state {witness} is not covered by any observation claim")
            };
            return AuditStatus::Refuted { reason };
        }
    }

    AuditStatus::Confirmed {
        states_checked: 1u64 << k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{CertificateClaim, CertificateSource};
    use moa_logic::GateKind;
    use moa_netlist::CircuitBuilder;
    use moa_sim::simulate;

    fn toggle() -> (Circuit, TestSequence, SimTrace, Fault) {
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
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        (c, seq, good, fault)
    }

    fn toggle_certificate() -> DetectionCertificate {
        DetectionCertificate {
            source: CertificateSource::Expansion,
            claims: vec![
                CertificateClaim {
                    assignments: vec![(0, 0, false)],
                    kind: ClaimKind::Observation {
                        time: 1,
                        output: 0,
                        value: true,
                    },
                },
                CertificateClaim {
                    assignments: vec![(0, 0, true)],
                    kind: ClaimKind::Observation {
                        time: 2,
                        output: 0,
                        value: true,
                    },
                },
            ],
        }
    }

    #[test]
    fn valid_certificate_is_confirmed() {
        let (c, seq, good, fault) = toggle();
        let status = audit_certificate(&c, &seq, &good, &fault, &toggle_certificate());
        assert_eq!(status, AuditStatus::Confirmed { states_checked: 2 });
    }

    #[test]
    fn perturbed_observation_value_is_refuted() {
        // Flipping a claimed observation value makes it agree with the
        // fault-free response — the structural pre-check rejects it.
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        if let ClaimKind::Observation { value, .. } = &mut cert.claims[0].kind {
            *value = !*value;
        }
        let status = audit_certificate(&c, &seq, &good, &fault, &cert);
        assert!(status.is_refuted(), "{status:?}");
    }

    #[test]
    fn perturbed_observation_time_is_refuted_by_replay() {
        // Claim the q=1 behaviour mismatches at time 1 — it actually matches
        // there (faulty z = 0 = good); replay catches the lie.
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        cert.claims[1].kind = ClaimKind::Observation {
            time: 1,
            output: 0,
            value: true,
        };
        let status = audit_certificate(&c, &seq, &good, &fault, &cert);
        match status {
            AuditStatus::Refuted { reason } => {
                assert!(reason.contains("does not replay"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn perturbed_cube_breaks_cover() {
        // Pointing both cubes at the same initial state leaves the other
        // state uncovered.
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        cert.claims[1].assignments = vec![(0, 0, false)];
        let status = audit_certificate(&c, &seq, &good, &fault, &cert);
        assert!(status.is_refuted(), "{status:?}");
    }

    #[test]
    fn false_infeasibility_claim_is_refuted_by_witness() {
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        cert.claims.push(CertificateClaim {
            assignments: vec![(0, 0, true)],
            kind: ClaimKind::Infeasible { time: 0 },
        });
        let status = audit_certificate(&c, &seq, &good, &fault, &cert);
        match status {
            AuditStatus::Refuted { reason } => {
                assert!(reason.contains("concrete witness"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_certificate_is_refuted() {
        let (c, seq, good, fault) = toggle();
        let cert = DetectionCertificate {
            source: CertificateSource::Expansion,
            claims: Vec::new(),
        };
        let status = audit_certificate(&c, &seq, &good, &fault, &cert);
        assert!(status.is_refuted());
    }

    #[test]
    fn out_of_range_claims_are_refuted() {
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        cert.claims[0].assignments = vec![(99, 0, false)];
        assert!(audit_certificate(&c, &seq, &good, &fault, &cert).is_refuted());
        let mut cert = toggle_certificate();
        cert.claims[0].kind = ClaimKind::Observation {
            time: 99,
            output: 0,
            value: true,
        };
        assert!(audit_certificate(&c, &seq, &good, &fault, &cert).is_refuted());
    }

    #[test]
    fn state_space_over_cap_is_inconclusive() {
        // 15 resettable flip-flops: 2^15 initial states, one power of two
        // past the cap.
        let mut b = CircuitBuilder::new("fifteen");
        b.add_input("r").unwrap();
        let mut qs = Vec::new();
        for i in 0..15 {
            let (q, d) = (format!("q{i}"), format!("d{i}"));
            b.add_flip_flop(&q, &d).unwrap();
            b.add_gate(GateKind::And, &d, &["r", &q]).unwrap();
            qs.push(q);
        }
        let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
        b.add_gate(GateKind::Or, "z", &refs).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let status = audit_certificate(&c, &seq, &good, &fault, &toggle_certificate());
        match status {
            AuditStatus::Inconclusive { reason } => {
                assert!(reason.contains("2^15 initial states exceed the audit cap"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unspecified_sequence_is_inconclusive() {
        let (c, _, _, fault) = toggle();
        let seq = TestSequence::from_words(&["x", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let status = audit_certificate(&c, &seq, &good, &fault, &toggle_certificate());
        assert!(matches!(status, AuditStatus::Inconclusive { .. }));
    }
}
