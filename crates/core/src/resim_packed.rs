//! Bit-parallel resimulation of expanded state sequences.
//!
//! The paper's `N_STATES = 64` limit matches the machine word: all expanded
//! sequences of one fault fit the 64 slots of the dual-rail packed simulator,
//! so one pass over the test sequence resimulates every sequence at once.
//! Each frame starts from the cached conventional faulty frame (broadcast
//! into all 64 slots) and only the gates in the structural fan-out cone of
//! the state variables where some slot differs from the conventional trace
//! are re-evaluated ([`moa_sim::run_packed3_gates`]).
//!
//! Equivalence with the scalar [`resimulate`](crate::resimulate): the scalar
//! procedure skips unmarked time units, but an unmarked frame's state equals
//! the conventional trace's state there, so recomputing it reproduces the
//! conventional values exactly — no detection (the fault survived
//! conventional simulation) and no new state values. Simulating *every* time
//! unit therefore yields identical per-sequence outcomes, and the work
//! charged per frame matches the scalar path unit for unit; both are locked
//! in by the tests below and campaign-wide by the integration tests.

use moa_netlist::{Circuit, Fault, FaultSite, GateId};
use moa_sim::{
    packed3_next_state, run_packed3_gates, Detection, Packed3, Packed3Values, SimTrace,
    TestSequence,
};

use crate::budget::BudgetMeter;
use crate::chain::FrameCache;
use crate::cones::{union_state_fanout, ConeCache};
use crate::resim::{ResimVerdict, SequenceOutcome};
use crate::stateseq::StateSequence;

/// Resimulates expanded sequences 64 at a time (see the module docs),
/// charging work units against `meter` — one unit per *undecided* slot per
/// frame advanced, which is exactly what the scalar path charges (each
/// sequence costs one unit per frame up to and including the frame that
/// decides it). Both paths therefore exhaust a work limit at the same spent
/// count for the same fault. When the meter exhausts, the unprocessed slots
/// stay [`SequenceOutcome::Undecided`]; the caller must check
/// [`BudgetMeter::is_exhausted`] and discard the partial verdict.
///
/// Slots beyond the chunk width are forced to the broadcast value, so every
/// masked read (`& valid`) sees a consistent word; only the gate-visit count
/// depends on how many state variables deviate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resimulate_packed_differential_metered(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: Option<&Fault>,
    cache: &FrameCache<'_>,
    cones: &ConeCache<'_>,
    sequences: &[StateSequence],
    meter: &mut BudgetMeter,
) -> ResimVerdict {
    let mut scratch = DiffScratch {
        values: Packed3Values::new(circuit),
        marked: Vec::new(),
        order: Vec::new(),
        diff_ffs: Vec::new(),
    };
    let mut outcomes = Vec::with_capacity(sequences.len());
    for chunk in sequences.chunks(64) {
        if meter.is_exhausted() {
            outcomes.extend(vec![SequenceOutcome::Undecided; chunk.len()]);
        } else {
            outcomes.extend(resimulate_chunk_differential(
                circuit,
                seq,
                good,
                fault,
                cache,
                cones,
                chunk,
                meter,
                &mut scratch,
            ));
        }
    }
    ResimVerdict { outcomes }
}

/// Reusable buffers for [`resimulate_chunk_differential`] — one allocation
/// set per fault, not per chunk or frame.
struct DiffScratch {
    values: Packed3Values,
    marked: Vec<bool>,
    order: Vec<GateId>,
    diff_ffs: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn resimulate_chunk_differential(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: Option<&Fault>,
    cache: &FrameCache<'_>,
    cones: &ConeCache<'_>,
    chunk: &[StateSequence],
    meter: &mut BudgetMeter,
    scratch: &mut DiffScratch,
) -> Vec<SequenceOutcome> {
    let k = circuit.num_flip_flops();
    let l = seq.len();
    let slots = chunk.len() as u32;
    let valid: u64 = if slots == 64 {
        u64::MAX
    } else {
        (1u64 << slots) - 1
    };

    let mut states: Vec<Vec<Packed3>> = (0..=l)
        .map(|u| {
            (0..k)
                .map(|i| {
                    let mut p = Packed3::ALL_X;
                    for (slot, s) in chunk.iter().enumerate() {
                        p.set(slot as u32, s.value(u, i));
                    }
                    p
                })
                .collect()
        })
        .collect();

    let mut outcomes: Vec<SequenceOutcome> = vec![SequenceOutcome::Undecided; chunk.len()];
    let mut resolved: u64 = 0;
    let faulty = cache.faulty();
    let mut gate_evals = 0u64;

    for u in 0..l {
        if resolved == valid {
            break;
        }
        fail_hit!("fp/resim_packed.frame", meter);
        // One unit per still-undecided slot entering this frame — the same
        // count the scalar path charges, in the same unit increments, so
        // exhaustion trips at an identical spent value on both paths.
        for _ in 0..(valid & !resolved).count_ones() {
            if !meter.charge(1) {
                meter.perf.gate_evals += gate_evals;
                return outcomes;
            }
        }

        // Broadcast the cached conventional faulty frame, then overlay the
        // state variables where some valid slot deviates from it.
        scratch.values.broadcast_from(cache.context(u).base());
        scratch.diff_ffs.clear();
        for (i, ff) in circuit.flip_flops().iter().enumerate() {
            // A stem-faulted q net is pinned by the frame evaluation; the
            // broadcast base already holds the stuck value.
            if matches!(fault, Some(f) if f.site == FaultSite::Net(ff.q())) {
                continue;
            }
            let stored = states[u][i];
            let b = Packed3::broadcast(faulty.states[u][i]);
            if ((stored.ones ^ b.ones) | (stored.zeros ^ b.zeros)) & valid != 0 {
                // Invalid slots keep the broadcast value so the whole word
                // stays consistent with what the cone re-evaluation expects.
                let merged = Packed3 {
                    ones: (b.ones & !valid) | (stored.ones & valid),
                    zeros: (b.zeros & !valid) | (stored.zeros & valid),
                };
                scratch.values.set(ff.q(), merged);
                scratch.diff_ffs.push(i);
            }
        }
        if !scratch.diff_ffs.is_empty() {
            union_state_fanout(
                cones,
                scratch.diff_ffs.iter().copied(),
                &mut scratch.marked,
                &mut scratch.order,
            );
            run_packed3_gates(circuit, &mut scratch.values, &scratch.order, fault);
            // One gate-word visit covers all 64 slots.
            gate_evals += scratch.order.len() as u64;
        }

        // Detections first (scalar order), outputs in index order.
        for (o, &net) in circuit.outputs().iter().enumerate() {
            let out = scratch.values.get(net);
            let mismatch = match good.outputs[u][o].to_bool() {
                Some(true) => out.zeros,
                Some(false) => out.ones,
                None => 0,
            };
            let newly = mismatch & valid & !resolved;
            if newly != 0 {
                for slot in iter_bits(newly) {
                    outcomes[slot] = SequenceOutcome::Detected(Detection { time: u, output: o });
                }
                resolved |= newly;
            }
        }

        // Next-state merge: conflicts prove infeasibility; newly specified
        // values are adopted into the stored state at u + 1.
        let next = packed3_next_state(circuit, &scratch.values, fault);
        let mut infeasible = 0u64;
        for (i, n) in next.iter().enumerate() {
            let stored = states[u + 1][i];
            infeasible |= (n.ones & stored.zeros) | (n.zeros & stored.ones);
        }
        let newly = infeasible & valid & !resolved;
        if newly != 0 {
            for slot in iter_bits(newly) {
                outcomes[slot] = SequenceOutcome::Infeasible { time: u };
            }
            resolved |= newly;
        }
        for (i, n) in next.iter().enumerate() {
            let stored = &mut states[u + 1][i];
            let open = !stored.specified();
            stored.ones |= n.ones & open;
            stored.zeros |= n.zeros & open;
        }
    }
    meter.perf.gate_evals += gate_evals;
    outcomes
}

fn iter_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if word == 0 {
            None
        } else {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(bit)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::FaultBudget;
    use crate::resim::resimulate_metered;
    use moa_logic::{GateKind, V3};
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

    /// Runs the packed resimulator under `meter`.
    fn packed(
        c: &Circuit,
        seq: &TestSequence,
        good: &SimTrace,
        fault: Option<&Fault>,
        sequences: &[StateSequence],
        meter: &mut BudgetMeter,
    ) -> ResimVerdict {
        let faulty = simulate(c, seq, fault);
        let cache = FrameCache::new(c, seq, &faulty, fault);
        let cones = ConeCache::new(c);
        resimulate_packed_differential_metered(
            c, seq, good, fault, &cache, &cones, sequences, meter,
        )
    }

    /// Locks the packed path against the scalar reference: identical
    /// outcomes and identical budget accounting, at unlimited budget and at
    /// every work limit below the total (where both trip at `limit + 1`, by
    /// unit charging). Returns the unlimited verdict.
    fn assert_scalar_parity(
        c: &Circuit,
        seq: &TestSequence,
        good: &SimTrace,
        fault: Option<&Fault>,
        sequences: &[StateSequence],
    ) -> ResimVerdict {
        let mut m_scalar = BudgetMeter::unlimited();
        let scalar = resimulate_metered(c, seq, good, fault, sequences.to_vec(), &mut m_scalar);
        let mut m_packed = BudgetMeter::unlimited();
        let verdict = packed(c, seq, good, fault, sequences, &mut m_packed);
        assert_eq!(scalar.outcomes, verdict.outcomes);
        assert_eq!(m_scalar.spent(), m_packed.spent(), "identical work accounting");

        for limit in 0..m_scalar.spent() {
            let budget = FaultBudget::none().with_work_limit(limit);
            let mut m_scalar = BudgetMeter::new(&budget);
            let _ = resimulate_metered(c, seq, good, fault, sequences.to_vec(), &mut m_scalar);
            let mut m_packed = BudgetMeter::new(&budget);
            let _ = packed(c, seq, good, fault, sequences, &mut m_packed);
            assert!(m_scalar.is_exhausted() && m_packed.is_exhausted());
            assert_eq!(m_scalar.spent(), m_packed.spent(), "spend at limit {limit}");
            assert_eq!(m_scalar.spent(), limit + 1);
        }
        verdict
    }

    #[test]
    fn packed_matches_scalar_on_expanded_toggle() {
        let (c, seq, good, fault) = toggle();
        let faulty = simulate(&c, &seq, Some(&fault));
        let base = StateSequence::from_trace(&faulty);
        let mut s0 = base.clone();
        assert!(s0.assign(1, 0, V3::Zero));
        let mut s1 = base;
        assert!(s1.assign(1, 0, V3::One));
        let verdict = assert_scalar_parity(&c, &seq, &good, Some(&fault), &[s0, s1]);
        assert!(verdict.detected());
    }

    #[test]
    fn empty_input_yields_empty_verdict() {
        let (c, seq, good, fault) = toggle();
        let verdict = packed(&c, &seq, &good, Some(&fault), &[], &mut BudgetMeter::unlimited());
        assert!(verdict.outcomes.is_empty());
        assert!(!verdict.detected());
    }

    #[test]
    fn more_than_64_sequences_are_chunked() {
        let (c, seq, good, fault) = toggle();
        let faulty = simulate(&c, &seq, Some(&fault));
        let base = StateSequence::from_trace(&faulty);
        // A mixed population across two chunks: slots decided at different
        // frames plus one never-marked slot that stays undecided for the
        // full length.
        let mut sequences = Vec::new();
        for n in 0..80 {
            let mut s = base.clone();
            assert!(s.assign(1, 0, V3::from_bool(n % 2 == 0)));
            sequences.push(s);
        }
        sequences.push(base);
        let verdict = assert_scalar_parity(&c, &seq, &good, Some(&fault), &sequences);
        assert_eq!(verdict.outcomes.len(), 81);
    }

    #[test]
    fn packed_matches_scalar_across_fault_kinds() {
        // A stem fault on the state variable itself (the q net stays pinned
        // and must not be overlaid), a flip-flop input fault, and no fault.
        // Like the procedure, resimulate only faults that conventional
        // simulation leaves undetected: the packed path re-evaluates frames
        // the scalar path skips, which is only equivalent under that
        // premise (see the module docs).
        let mut b = CircuitBuilder::new("toggle");
        b.add_input("r").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Not, "nq", &["q"]).unwrap();
        b.add_gate(GateKind::And, "d", &["r", "nq"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["1", "0", "1"]).unwrap();
        let good = simulate(&c, &seq, None);
        let q_fault = Fault::stem(c.find_net("q").unwrap(), false);
        let ff_fault = Fault::flip_flop_input(moa_netlist::FlipFlopId::new(0), false);
        for fault in [Some(&q_fault), Some(&ff_fault), None] {
            let faulty = simulate(&c, &seq, fault);
            assert_eq!(moa_sim::conventional_detection(&good, &faulty), None);
            let base = StateSequence::from_trace(&faulty);
            let mut sequences = Vec::new();
            for n in 0..3 {
                let mut s = base.clone();
                // Some assignments conflict with the trace and are rejected;
                // keep whatever states the sequence ends up with.
                let _ = s.assign(n % 2, 0, V3::from_bool(n % 2 == 0));
                sequences.push(s);
            }
            sequences.push(base);
            assert_scalar_parity(&c, &seq, &good, fault, &sequences);
        }
    }

    #[test]
    fn undecided_sequences_match_scalar() {
        // The OR-hold circuit: the q=1 branch survives undecided.
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
        let faulty = simulate(&c, &seq, Some(&fault));
        let base = StateSequence::from_trace(&faulty);
        let mut s0 = base.clone();
        assert!(s0.assign(0, 0, V3::Zero));
        let mut s1 = base;
        assert!(s1.assign(0, 0, V3::One));
        let verdict = assert_scalar_parity(&c, &seq, &good, Some(&fault), &[s0, s1]);
        assert_eq!(verdict.undecided(), 1);
    }
}
