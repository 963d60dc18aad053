//! Section 3.4 — fault simulation after expansion.

use moa_logic::V3;
use moa_netlist::{Circuit, Fault, NetId};
use moa_sim::{
    compute_frame, frame_next_state, frame_outputs, Detection, EventSim, SimTrace, TestSequence,
};

use crate::budget::BudgetMeter;
use crate::chain::FrameCache;
use crate::stateseq::StateSequence;

/// Why one expanded sequence was dropped (or not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceOutcome {
    /// A primary output conflicted with the fault-free response: the fault is
    /// detected for every behaviour consistent with this sequence.
    Detected(Detection),
    /// The next state computed at `time` conflicted with the sequence's
    /// recorded state at `time + 1`: the sequence is infeasible.
    Infeasible {
        /// Time unit of the conflicting frame.
        time: usize,
    },
    /// The sequence survived resimulation with no conflict: the fault may
    /// escape detection along it.
    Undecided,
}

/// The verdict over the whole sequence set.
#[derive(Debug, Clone)]
pub struct ResimVerdict {
    /// Per-sequence outcomes, in the order the sequences were supplied.
    pub outcomes: Vec<SequenceOutcome>,
}

impl ResimVerdict {
    /// The fault is detected iff *every* sequence was dropped by a detection
    /// or proven infeasible.
    pub fn detected(&self) -> bool {
        !self.outcomes.is_empty()
            && self
                .outcomes
                .iter()
                .all(|o| !matches!(o, SequenceOutcome::Undecided))
    }

    /// Number of sequences that survived undecided.
    pub fn undecided(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, SequenceOutcome::Undecided))
            .count()
    }
}

/// Resimulates every expanded sequence over its marked time units.
///
/// For each marked time unit `u` of a sequence `S'`, the frame is evaluated
/// with the inputs `T[u]` and the present state `S'[u]`; the computed outputs
/// are compared against the fault-free response (a conflict detects the fault
/// for `S'`), the computed next state is merged into `S'[u+1]` (a conflict
/// proves `S'` infeasible), and newly specified state variables mark `u + 1`.
/// Marks only propagate forward, so one in-order scan suffices.
pub fn resimulate(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: Option<&Fault>,
    sequences: Vec<StateSequence>,
) -> ResimVerdict {
    resimulate_metered(
        circuit,
        seq,
        good,
        fault,
        sequences,
        &mut BudgetMeter::unlimited(),
    )
}

/// Like [`resimulate`], charging one work unit per sequence-frame advanced
/// against `meter` — every frame up to the one that decides the sequence
/// counts, whether or not it is marked (only marked frames are *evaluated*),
/// so the budget measures progress through the test sequence rather than
/// evaluation effort. When the meter exhausts, the remaining sequences are
/// left [`SequenceOutcome::Undecided`]; the caller must check
/// [`BudgetMeter::is_exhausted`] and discard the partial verdict.
pub fn resimulate_metered(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: Option<&Fault>,
    sequences: Vec<StateSequence>,
    meter: &mut BudgetMeter,
) -> ResimVerdict {
    let outcomes = sequences
        .into_iter()
        .map(|s| {
            if meter.is_exhausted() {
                SequenceOutcome::Undecided
            } else {
                resimulate_one(circuit, seq, good, fault, s, meter)
            }
        })
        .collect();
    ResimVerdict { outcomes }
}

/// The campaign's resimulator, the differential sibling of
/// [`resimulate_metered`]: instead of evaluating every marked frame from
/// scratch, each frame starts from the cached faulty frame of `cache`
/// (computed once, with the fault injected, and shared with the collection
/// sweep) and an event-driven simulator propagates only the state variables
/// in which the expanded sequence differs from the conventional faulty
/// trace. Outcomes and budget charges are identical to the full-frame path
/// — locked in by parity tests — only the gate-visit count changes.
pub(crate) fn resimulate_differential_metered(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: Option<&Fault>,
    cache: &FrameCache<'_>,
    sequences: Vec<StateSequence>,
    meter: &mut BudgetMeter,
) -> ResimVerdict {
    let mut sim = EventSim::new(circuit, fault);
    let mut deltas: Vec<(NetId, V3)> = Vec::new();
    let before = sim.evaluations();
    let outcomes = sequences
        .into_iter()
        .map(|s| {
            if meter.is_exhausted() {
                SequenceOutcome::Undecided
            } else {
                resimulate_one_differential(circuit, seq, good, cache, &mut sim, &mut deltas, s, meter)
            }
        })
        .collect();
    meter.perf.gate_evals += sim.evaluations() - before;
    ResimVerdict { outcomes }
}

#[allow(clippy::too_many_arguments)]
fn resimulate_one_differential(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    cache: &FrameCache<'_>,
    sim: &mut EventSim<'_>,
    deltas: &mut Vec<(NetId, V3)>,
    mut s: StateSequence,
    meter: &mut BudgetMeter,
) -> SequenceOutcome {
    let faulty = cache.faulty();
    for u in 0..seq.len() {
        fail_hit!("fp/resim.frame", meter);
        // Same budget unit as the full-frame path: one per frame advanced.
        if !meter.charge(1) {
            return SequenceOutcome::Undecided;
        }
        if !s.is_marked(u) {
            continue;
        }
        let ctx = cache.context(u);
        sim.load_from(ctx.base());
        deltas.clear();
        for (i, ff) in circuit.flip_flops().iter().enumerate() {
            let v = s.state(u)[i];
            if v != faulty.states[u][i] {
                // A stem-faulted q net stays pinned; `update` skips it, as
                // `compute_frame` would.
                deltas.push((ff.q(), v));
            }
        }
        sim.update(deltas);
        for (output, &net) in circuit.outputs().iter().enumerate() {
            if sim.values()[net].conflicts(good.outputs[u][output]) {
                return SequenceOutcome::Detected(Detection { time: u, output });
            }
        }
        for i in 0..circuit.num_flip_flops() {
            let v = ctx.next_state_value(sim.values(), i);
            if !v.is_specified() {
                continue;
            }
            if !s.assign(u + 1, i, v) {
                return SequenceOutcome::Infeasible { time: u };
            }
        }
    }
    SequenceOutcome::Undecided
}

fn resimulate_one(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: Option<&Fault>,
    mut s: StateSequence,
    meter: &mut BudgetMeter,
) -> SequenceOutcome {
    for u in 0..seq.len() {
        fail_hit!("fp/resim.frame", meter);
        // One unit per frame advanced, marked or not: the budget measures
        // progress through the sequence, not evaluation effort, so the
        // whole-frame and differential paths exhaust at identical counts.
        if !meter.charge(1) {
            return SequenceOutcome::Undecided;
        }
        if !s.is_marked(u) {
            continue;
        }
        let frame = compute_frame(circuit, seq.pattern(u), s.state(u), fault);
        let outputs = frame_outputs(circuit, &frame);
        for (output, (&f, &g)) in outputs.iter().zip(&good.outputs[u]).enumerate() {
            if f.conflicts(g) {
                return SequenceOutcome::Detected(Detection { time: u, output });
            }
        }
        let next = frame_next_state(circuit, &frame, fault);
        for (i, &v) in next.iter().enumerate() {
            if !v.is_specified() {
                continue;
            }
            if !s.assign(u + 1, i, v) {
                return SequenceOutcome::Infeasible { time: u };
            }
        }
    }
    SequenceOutcome::Undecided
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::{GateKind, V3};
    use moa_netlist::CircuitBuilder;
    use moa_sim::simulate;

    /// z = AND(a, q), d = XOR(a, q): q never initializes; with z stuck-at-1,
    /// expanding q at time 0 detects the fault on both branches.
    fn xor_circuit() -> (Circuit, TestSequence, SimTrace, Fault) {
        let mut b = CircuitBuilder::new("x");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Xor, "d", &["a", "q"]).unwrap();
        b.add_gate(GateKind::And, "z", &["a", "q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["1", "1"]).unwrap();
        let good = simulate(&c, &seq, None);
        let fault = Fault::stem(c.find_net("z").unwrap(), true);
        (c, seq, good, fault)
    }

    #[test]
    fn both_expanded_branches_detect() {
        let (c, seq, good, fault) = xor_circuit();
        let faulty = simulate(&c, &seq, Some(&fault));
        let base = StateSequence::from_trace(&faulty);

        // Manually expand q at time 0 into the two binary values.
        let mut s0 = base.clone();
        assert!(s0.assign(0, 0, V3::Zero));
        let mut s1 = base;
        assert!(s1.assign(0, 0, V3::One));

        // q=0 at t0: z=0 vs stuck 1? The *faulty* output is 1 (stuck);
        // the good output is AND(1, 0) = 0 — wait: resimulation runs the
        // faulty machine over the expanded states and compares to the good
        // *trace* (whose q is X, z=x at t0). So the t0 compare is x vs 1: no
        // conflict. But q=0 → next q = XOR(1,0) = 1 → at t1 good z is still
        // x… The good trace never specifies z, so detection can't happen.
        // This shows resimulation alone (against an unspecified good trace)
        // cannot detect here. Verify exactly that:
        let verdict = resimulate(&c, &seq, &good, Some(&fault), vec![s0, s1]);
        assert!(!verdict.detected());
        assert_eq!(verdict.undecided(), 2);
    }

    /// A case where resimulation does detect: the good output is specified
    /// while the faulty one is X until expansion specifies it.
    #[test]
    fn expansion_plus_resim_detects() {
        // good: z = OR(a, q) with a=1 → z=1 regardless of q.
        // fault: a stuck-at-0 → faulty z = q (unknown). Expanding q:
        //   q=0 → z=0 conflicts good 1 → detected;
        //   q=1 → z=1, next state keeps q=1 (d = q), time 1 same… z=1 never
        //         conflicts → undecided. So NOT detected overall (correct:
        //         starting at q=1 the faulty machine matches forever).
        let mut b = CircuitBuilder::new("or");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Or, "z", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Buf, "d", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["1", "1"]).unwrap();
        let good = simulate(&c, &seq, None);
        assert_eq!(good.outputs[0], vec![V3::One]);
        let fault = Fault::stem(c.find_net("a").unwrap(), false);
        let faulty = simulate(&c, &seq, Some(&fault));

        let base = StateSequence::from_trace(&faulty);
        let mut s0 = base.clone();
        assert!(s0.assign(0, 0, V3::Zero));
        let mut s1 = base;
        assert!(s1.assign(0, 0, V3::One));
        let verdict = resimulate(&c, &seq, &good, Some(&fault), vec![s0, s1]);
        assert_eq!(
            verdict.outcomes[0],
            SequenceOutcome::Detected(Detection { time: 0, output: 0 })
        );
        assert_eq!(verdict.outcomes[1], SequenceOutcome::Undecided);
        assert!(!verdict.detected());
        assert_eq!(verdict.undecided(), 1);
    }

    /// Infeasibility: a sequence whose recorded later state contradicts what
    /// the expansion implies is dropped as infeasible.
    #[test]
    fn infeasible_sequence_counts_toward_detection() {
        // d = BUF(q): state persists. Record q=0 at time 1, then expand q=1
        // at time 0: resimulating time 0 computes next q=1 ≠ recorded 0.
        let mut b = CircuitBuilder::new("hold");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Buf, "d", &["q"]).unwrap();
        b.add_gate(GateKind::And, "z", &["a", "q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let faulty = simulate(&c, &seq, None);
        let mut s = StateSequence::from_trace(&faulty);
        assert!(s.assign(1, 0, V3::Zero));
        assert!(s.assign(0, 0, V3::One));
        let verdict = resimulate(&c, &seq, &good, None, vec![s]);
        assert_eq!(verdict.outcomes[0], SequenceOutcome::Infeasible { time: 0 });
        assert!(verdict.detected(), "all sequences dropped");
    }

    #[test]
    fn unmarked_sequences_stay_undecided() {
        let (c, seq, good, fault) = xor_circuit();
        let faulty = simulate(&c, &seq, Some(&fault));
        let s = StateSequence::from_trace(&faulty);
        let verdict = resimulate(&c, &seq, &good, Some(&fault), vec![s]);
        assert_eq!(verdict.outcomes[0], SequenceOutcome::Undecided);
    }

    #[test]
    fn empty_sequence_set_is_not_detected() {
        let (c, seq, good, fault) = xor_circuit();
        let verdict = resimulate(&c, &seq, &good, Some(&fault), Vec::new());
        assert!(!verdict.detected());
    }

    /// Locks the event-driven differential path against the full-frame scalar
    /// path: identical outcomes and identical budget accounting at unlimited
    /// budget and at every work limit below the total, where both trip at
    /// `limit + 1` (one unit per frame). Returns the unlimited verdict.
    fn assert_differential_parity(
        c: &Circuit,
        seq: &TestSequence,
        good: &SimTrace,
        fault: Option<&Fault>,
        sequences: &[StateSequence],
    ) -> ResimVerdict {
        use crate::budget::FaultBudget;
        let faulty = simulate(c, seq, fault);
        let cache = FrameCache::new(c, seq, &faulty, fault);

        let mut m_full = BudgetMeter::unlimited();
        let full = resimulate_metered(c, seq, good, fault, sequences.to_vec(), &mut m_full);
        let mut m_diff = BudgetMeter::unlimited();
        let diff = resimulate_differential_metered(
            c,
            seq,
            good,
            fault,
            &cache,
            sequences.to_vec(),
            &mut m_diff,
        );
        assert_eq!(full.outcomes, diff.outcomes);
        assert_eq!(m_full.spent(), m_diff.spent(), "identical work accounting");

        for limit in 0..m_full.spent() {
            let budget = FaultBudget::none().with_work_limit(limit);
            let mut m_full = BudgetMeter::new(&budget);
            let full = resimulate_metered(c, seq, good, fault, sequences.to_vec(), &mut m_full);
            let mut m_diff = BudgetMeter::new(&budget);
            let diff = resimulate_differential_metered(
                c,
                seq,
                good,
                fault,
                &cache,
                sequences.to_vec(),
                &mut m_diff,
            );
            assert_eq!(full.outcomes, diff.outcomes, "outcomes at limit {limit}");
            assert!(m_full.is_exhausted() && m_diff.is_exhausted(), "limit {limit}");
            assert_eq!(m_full.spent(), m_diff.spent(), "spend at limit {limit}");
            assert_eq!(m_diff.spent(), limit + 1);
        }
        diff
    }

    /// d = AND(r, NOT q), z = BUF(q) with r stuck-at-1: the faulty machine
    /// toggles from any known state, and the good one holds q at 0.
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

    #[test]
    fn differential_matches_full_frame_on_the_toggle_expanded_at_frame_1() {
        let (c, seq, good, fault) = toggle();
        let faulty = simulate(&c, &seq, Some(&fault));
        let base = StateSequence::from_trace(&faulty);
        let mut s0 = base.clone();
        assert!(s0.assign(1, 0, V3::Zero));
        let mut s1 = base;
        assert!(s1.assign(1, 0, V3::One));
        let verdict = assert_differential_parity(&c, &seq, &good, Some(&fault), &[s0, s1]);
        assert!(verdict.detected());
    }

    #[test]
    fn differential_matches_full_frame_on_a_mixed_population() {
        // 81 sequences: 80 expanded at frame 1 and decided at different
        // frames, plus one never-marked sequence that stays undecided for
        // the full length.
        let (c, seq, good, fault) = toggle();
        let faulty = simulate(&c, &seq, Some(&fault));
        let base = StateSequence::from_trace(&faulty);
        let mut sequences = Vec::new();
        for n in 0..80 {
            let mut s = base.clone();
            assert!(s.assign(1, 0, V3::from_bool(n % 2 == 0)));
            sequences.push(s);
        }
        sequences.push(base);
        let verdict = assert_differential_parity(&c, &seq, &good, Some(&fault), &sequences);
        assert_eq!(verdict.outcomes.len(), 81);
        assert_eq!(verdict.outcomes[80], SequenceOutcome::Undecided);
        let decided_at: std::collections::BTreeSet<usize> = verdict
            .outcomes
            .iter()
            .filter_map(|o| match o {
                SequenceOutcome::Detected(d) => Some(d.time),
                SequenceOutcome::Infeasible { time } => Some(*time),
                SequenceOutcome::Undecided => None,
            })
            .collect();
        assert!(decided_at.len() > 1, "decided at frames {decided_at:?}");
    }

    #[test]
    fn differential_of_no_sequences_is_an_empty_verdict() {
        let (c, seq, good, fault) = toggle();
        let verdict = assert_differential_parity(&c, &seq, &good, Some(&fault), &[]);
        assert!(verdict.outcomes.is_empty());
        assert!(!verdict.detected());
    }

    #[test]
    fn differential_matches_full_frame_resimulation() {
        // The OR-hold case: one detected branch, one undecided branch.
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
        let mut s1 = base.clone();
        assert!(s1.assign(0, 0, V3::One));
        assert_differential_parity(&c, &seq, &good, Some(&fault), &[s0, s1, base]);
    }

    #[test]
    fn differential_matches_full_frame_across_fault_kinds() {
        // Stem fault on the state variable (q stays pinned — deltas on it
        // are skipped by the event simulator), flip-flop input fault, and
        // the fault-free machine. Also covers infeasibility.
        let (c, seq, good, _) = xor_circuit();
        let q_fault = Fault::stem(c.find_net("q").unwrap(), true);
        let ff_fault = Fault::flip_flop_input(moa_netlist::FlipFlopId::new(0), false);
        for fault in [Some(&q_fault), Some(&ff_fault), None] {
            let faulty = simulate(&c, &seq, fault);
            let base = StateSequence::from_trace(&faulty);
            let mut sequences = Vec::new();
            for n in 0..4 {
                let mut s = base.clone();
                let _ = s.assign(n % 2, 0, V3::from_bool(n < 2));
                sequences.push(s);
            }
            sequences.push(base);
            assert_differential_parity(&c, &seq, &good, fault, &sequences);
        }
    }
}
