//! Section 3.1 — collecting backward implications.
//!
//! For every pair `(u, i)` such that present-state variable `y_i` is
//! unspecified at time unit `u` in the faulty circuit and `N_out(u-1) > 0`,
//! assert `Y_i = α` at time unit `u-1` for `α ∈ {0, 1}` and record the first
//! applicable of: a conflict, a detection at time `u-1`, or the set
//! `extra(u, i, α)` of next-state variables that become specified.
//! Time unit 0 gets the paper's trivial records.

use moa_logic::V3;
use moa_netlist::{Circuit, Fault};
use moa_sim::{SimTrace, TestSequence};

use crate::budget::BudgetMeter;
use crate::chain::{assert_backward, ChainOutcome, FrameCache};
use crate::cones::ConeCache;
use crate::imply::ImplyScratch;
use crate::MoaOptions;

/// Identifies a candidate expansion: present-state variable `y_i` at time
/// unit `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairKey {
    /// The time unit of the expansion.
    pub u: usize,
    /// The state-variable index.
    pub i: usize,
}

/// Concrete evidence recorded when a side of a pair is forced — the payload
/// of the `conf` / `detect` flags, kept so a [`crate::DetectionCertificate`]
/// can claim the exact observation or conflict frame for later audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideEvidence {
    /// `detect`: the (possibly chained) backward implication specified
    /// primary output `output` at time `time` to `value`, opposite to the
    /// specified fault-free value there.
    Observed {
        /// Time unit of the conflicting output.
        time: usize,
        /// Primary-output index.
        output: usize,
        /// The implied (faulty) output value.
        value: bool,
    },
    /// `conf`: the implication engine found the frame at `time` inconsistent.
    Conflicted {
        /// Time unit of the inconsistent frame.
        time: usize,
    },
}

/// The information collected for one pair, indexed by the asserted value
/// `α ∈ {0, 1}` (index 0 ↔ `α = 0`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairInfo {
    /// `conf(u, i, α)`: backward implications conflicted.
    pub conf: [bool; 2],
    /// `detect(u, i, α)`: backward implications assigned an output value at
    /// `u - 1` opposite to the fault-free value.
    pub detect: [bool; 2],
    /// `extra(u, i, α)`: state variables `(j, β)` specified at time `u` when
    /// `Y_i = α` at `u - 1` (contains `(i, α)` itself). Only meaningful when
    /// neither `conf` nor `detect` holds for `α`.
    pub extra: [Vec<(usize, V3)>; 2],
    /// Per-side certificate evidence: `Some` exactly when `conf[α]` or
    /// `detect[α]` is set (trivial/baseline records carry `None`).
    pub evidence: [Option<SideEvidence>; 2],
}

impl PairInfo {
    /// The paper's `N_extra(u, i, α)`.
    pub fn n_extra(&self, alpha: usize) -> usize {
        self.extra[alpha].len()
    }

    /// `Some(α)` if exactly one side is forced (conflicted or detected);
    /// `None` if neither is. (Both sides forced is resolved earlier, in the
    /// Section 3.2 check or by [`crate::expand`].)
    pub fn forced_side(&self) -> Option<usize> {
        let f0 = self.conf[0] || self.detect[0];
        let f1 = self.conf[1] || self.detect[1];
        match (f0, f1) {
            (true, false) => Some(0),
            (false, true) => Some(1),
            _ => None,
        }
    }

    /// `true` when neither side conflicted nor detected: a genuine two-way
    /// expansion candidate.
    pub fn is_two_way(&self) -> bool {
        !(self.conf[0] || self.detect[0] || self.conf[1] || self.detect[1])
    }

    /// `true` when both sides are forced (each conflicted or detected).
    pub fn both_forced(&self) -> bool {
        (self.conf[0] || self.detect[0]) && (self.conf[1] || self.detect[1])
    }

    fn trivial(i: usize) -> Self {
        PairInfo {
            extra: [vec![(i, V3::Zero)], vec![(i, V3::One)]],
            ..PairInfo::default()
        }
    }
}

/// The result of the collection sweep.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    /// Collected pairs in visiting order (descending `N_out`, i.e. ascending
    /// time unit, with the trivial `u = 0` entries appended last).
    pub pairs: Vec<(PairKey, PairInfo)>,
    /// `true` when [`MoaOptions::max_implication_runs`] cut the sweep short.
    pub truncated: bool,
    /// Implication-engine invocations performed.
    pub runs: usize,
}

impl Collection {
    /// Looks up a pair's info.
    pub fn info(&self, key: PairKey) -> Option<&PairInfo> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, info)| info)
    }
}

/// Runs the Section 3.1 collection sweep.
///
/// `good` / `faulty` are the conventional fault-free and faulty traces;
/// `fault` is the injected fault (`None` collects on the fault-free circuit,
/// which is how the paper's Section 2 examples are produced); `n_out` is the
/// profile from [`crate::n_out_profile`].
///
/// With [`MoaOptions::backward_implications`] disabled every eligible pair
/// gets the trivial info (no conflicts, no detections,
/// `extra(u, i, α) = {(i, α)}`) — the reference-\[4] baseline.
pub fn collect_pairs(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faulty: &SimTrace,
    fault: Option<&Fault>,
    n_out: &[usize],
    options: &MoaOptions,
) -> Collection {
    // Frame contexts (the forward-simulated earlier time units) are cached
    // and shared by every assertion of the sweep, including the chained
    // assertions of the multi-time-unit extension.
    let cones = ConeCache::new(circuit);
    let learned = options.static_learning.then(|| cones.learned_db());
    let cache = FrameCache::new(circuit, seq, faulty, fault).with_learned(learned);
    collect_pairs_with_cache(
        circuit,
        seq,
        good,
        n_out,
        options,
        &cache,
        &cones,
        &mut BudgetMeter::unlimited(),
    )
}

/// Sweep core sharing an externally-owned [`FrameCache`] (so resimulation can
/// reuse the forward-simulated frames) and [`ConeCache`] (so campaign workers
/// share the cone regions across faults), charging one work unit per
/// implication-engine run against `meter`. When the meter exhausts, the
/// sweep stops immediately; the caller must check
/// [`BudgetMeter::is_exhausted`] — a budget stop is *not* reported through
/// [`Collection::truncated`], which keeps its
/// [`MoaOptions::max_implication_runs`] meaning. The caller is also
/// responsible for folding `cache.frames_built()` into its gate-evaluation
/// tally exactly once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_pairs_with_cache(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    n_out: &[usize],
    options: &MoaOptions,
    cache: &FrameCache<'_>,
    cones: &ConeCache<'_>,
    meter: &mut BudgetMeter,
) -> Collection {
    let l = seq.len();
    let max_u = if options.include_final_time_unit { l } else { l.saturating_sub(1) };
    let num_ffs = circuit.num_flip_flops();
    let faulty = cache.faulty();
    let mut collection = Collection::default();
    let depth = options.backward_time_units.max(1);
    // One scratch serves the whole sweep: each implication run reuses the
    // refined-frame and pin-view buffers instead of allocating afresh.
    let mut scratch = ImplyScratch::new();
    let mut exhausted_early = false;

    // `N_out` is non-increasing in `u`, so visiting `u` in ascending order
    // visits pairs in descending `N_out(u-1)` order; once it reaches 0 no
    // later time unit is eligible.
    'sweep: for u in 1..=max_u {
        if n_out[u - 1] == 0 {
            break;
        }
        if faulty.num_unspecified_state_vars(u) == 0 {
            continue;
        }
        for i in 0..num_ffs {
            if faulty.states[u][i].is_specified() {
                continue;
            }
            if !options.backward_implications {
                collection
                    .pairs
                    .push((PairKey { u, i }, PairInfo::trivial(i)));
                continue;
            }
            if collection.runs + 2 > options.max_implication_runs {
                collection.truncated = true;
                break 'sweep;
            }
            let d_net = circuit.flip_flops()[i].d();
            let mut info = PairInfo::default();
            for (ai, alpha) in [V3::Zero, V3::One].into_iter().enumerate() {
                let (outcome, runs) = assert_backward(
                    cache,
                    good,
                    u - 1,
                    &[(d_net, alpha)],
                    depth,
                    options.implication_rounds,
                    Some(cones),
                    &mut scratch,
                );
                collection.runs += runs;
                if !meter.charge(runs as u64) {
                    // Budget exhausted mid-pair: the partial pair is
                    // discarded and the caller abandons the fault.
                    exhausted_early = true;
                    break 'sweep;
                }
                match outcome {
                    ChainOutcome::Conflict { time } => {
                        info.conf[ai] = true;
                        info.evidence[ai] = Some(SideEvidence::Conflicted { time });
                    }
                    ChainOutcome::Detected {
                        time,
                        output,
                        value,
                    } => {
                        info.detect[ai] = true;
                        info.evidence[ai] = Some(SideEvidence::Observed {
                            time,
                            output,
                            value,
                        });
                    }
                    ChainOutcome::Refined => {
                        let values = scratch.frame(0);
                        let ctx = cache.context(u - 1);
                        info.extra[ai] = (0..num_ffs)
                            .filter_map(|j| {
                                if faulty.states[u][j].is_specified() {
                                    return None;
                                }
                                let v = ctx.next_state_value(values, j);
                                v.is_specified().then_some((j, v))
                            })
                            .collect();
                        debug_assert!(info.extra[ai].contains(&(i, alpha)));
                    }
                }
            }
            collection.pairs.push((PairKey { u, i }, info));
        }
    }

    // Time unit 0: expansion is possible but implies nothing backward; the
    // trivial records allow it to compete in selection. A budget stop skips
    // this — the caller abandons the fault anyway.
    if !exhausted_early && n_out.first().copied().unwrap_or(0) > 0 {
        for i in 0..num_ffs {
            if !faulty.states[0][i].is_specified() {
                collection
                    .pairs
                    .push((PairKey { u: 0, i }, PairInfo::trivial(i)));
            }
        }
    }
    meter.perf.gate_evals += scratch.evals;
    meter.perf.imply_nanos += scratch.nanos;
    meter.perf.learned_hits += scratch.learned_hits;
    collection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::n_out_profile;
    use moa_logic::GateKind;
    use moa_netlist::CircuitBuilder;
    use moa_sim::simulate;

    /// d = NOR(a, q); z = NOT(q). Under a=0, asserting Y=1 at time 0 forces
    /// q=0 and z=1 at time 0.
    fn nor_latchish() -> Circuit {
        let mut b = CircuitBuilder::new("c");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Nor, "d", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["q"]).unwrap();
        b.add_output("z");
        b.finish().unwrap()
    }

    #[test]
    fn collects_extras_on_fault_free_circuit() {
        let c = nor_latchish();
        let seq = TestSequence::from_words(&["0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let n_out = n_out_profile(&good, &good);
        // Fault-free vs itself: no detectable outputs → N_out all zero, so
        // nothing (besides nothing at all) is collected.
        let coll = collect_pairs(&c, &seq, &good, &good, None, &n_out, &MoaOptions::default());
        assert!(coll.pairs.is_empty());
    }

    /// The reset-line fault of the toggle circuit: collection must record a
    /// one-sided detection at the pair whose backward implication specifies
    /// the output at `u - 1` opposite to the fault-free value.
    #[test]
    fn collects_detection_records_against_a_fault() {
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
        // Good z = x,0,0. With r stuck-at-1 the faulty machine toggles from
        // an unknown state: faulty z = x,x,x.
        let fault = moa_netlist::Fault::stem(c.find_net("r").unwrap(), true);
        let faulty = simulate(&c, &seq, Some(&fault));
        let n_out = n_out_profile(&good, &faulty);
        assert_eq!(n_out, vec![2, 2, 1, 0]);
        let coll = collect_pairs(
            &c,
            &seq,
            &good,
            &faulty,
            Some(&fault),
            &n_out,
            &MoaOptions::default(),
        );
        // Pair (u=2, i=0): asserting Y=0 at time 1 forces q=1 at time 1
        // (faulty d = NOT(q)), so z=1 at time 1 — opposite to the good 0:
        // a detection for α=0. Asserting Y=1 forces q=0, z=0 = good: no
        // detection, extras = {(0, 1)}.
        let info = coll.info(PairKey { u: 2, i: 0 }).expect("pair collected");
        assert!(info.detect[0]);
        assert_eq!(
            info.evidence[0],
            Some(SideEvidence::Observed {
                time: 1,
                output: 0,
                value: true
            })
        );
        assert!(!info.detect[1] && !info.conf[1]);
        assert_eq!(info.evidence[1], None);
        assert_eq!(info.extra[1], vec![(0, V3::One)]);
        assert_eq!(info.forced_side(), Some(0));
        // Pair (u=1, i=0): at time 0 the good output is unspecified, so both
        // sides are plain extras.
        let info = coll.info(PairKey { u: 1, i: 0 }).expect("pair collected");
        assert!(info.is_two_way());
        assert_eq!(info.extra[0], vec![(0, V3::Zero)]);
        assert_eq!(info.extra[1], vec![(0, V3::One)]);
        assert_eq!(coll.runs, 4);
        assert!(!coll.truncated);
    }

    /// A focused check of extras, conflicts and detections through the
    /// Figure-4-style conflict circuit with an observable output.
    #[test]
    fn conflict_and_detection_records() {
        // Next-state d = AND(or1, NOT(or2)) with or1 = OR(q, b1),
        // or2 = OR(q, b2), b1/b2 = BUF(a). Under a = 0: asserting Y=1
        // conflicts (forces q=1 and q=0). Output z = NOT(q): good z …
        let mut b = CircuitBuilder::new("fig4");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Buf, "b1", &["a"]).unwrap();
        b.add_gate(GateKind::Buf, "b2", &["a"]).unwrap();
        b.add_gate(GateKind::Or, "or1", &["q", "b1"]).unwrap();
        b.add_gate(GateKind::Or, "or2", &["q", "b2"]).unwrap();
        b.add_gate(GateKind::Not, "n2", &["or2"]).unwrap();
        b.add_gate(GateKind::And, "d", &["or1", "n2"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        // Pretend-faulty trace where outputs are unspecified but good has a
        // specified output: simulate with a fault on z (stuck-at-1): good z
        // is X though. For this unit test drive collect with a synthetic
        // n_out profile to exercise the mechanics.
        let fault = moa_netlist::Fault::stem(c.find_net("z").unwrap(), true);
        let faulty = simulate(&c, &seq, Some(&fault));
        let n_out = vec![1, 1, 0]; // force eligibility
        let coll = collect_pairs(
            &c,
            &seq,
            &good,
            &faulty,
            Some(&fault),
            &n_out,
            &MoaOptions::default(),
        );
        // Pair (u=1, i=0) must record a conflict for α=1 (Figure 4's claim).
        let info = coll.info(PairKey { u: 1, i: 0 }).expect("pair collected");
        assert!(info.conf[1], "Y=1 at time 0 conflicts under a=0");
        assert_eq!(info.evidence[1], Some(SideEvidence::Conflicted { time: 0 }));
        assert!(!info.conf[0]);
        assert_eq!(info.forced_side(), Some(1));
        assert!(!info.is_two_way());
        assert!(!info.both_forced());
        // extra(1, 0, 0) holds the trivial (0, Zero) at least.
        assert!(info.extra[0].contains(&(0, V3::Zero)));
        // Trivial time-0 entries exist because n_out[0] > 0.
        assert!(coll.info(PairKey { u: 0, i: 0 }).is_some());
    }

    #[test]
    fn budget_truncates() {
        let c = nor_latchish();
        let seq = TestSequence::from_words(&["0", "0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let fault = moa_netlist::Fault::stem(c.find_net("z").unwrap(), true);
        let faulty = simulate(&c, &seq, Some(&fault));
        let n_out = vec![1, 1, 1, 0];
        let opts = MoaOptions::default().with_max_implication_runs(1);
        let coll = collect_pairs(&c, &seq, &good, &faulty, Some(&fault), &n_out, &opts);
        assert!(coll.truncated);
        assert_eq!(coll.runs, 0);
    }

    #[test]
    fn baseline_mode_yields_trivial_pairs() {
        let c = nor_latchish();
        let seq = TestSequence::from_words(&["0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let fault = moa_netlist::Fault::stem(c.find_net("z").unwrap(), true);
        let faulty = simulate(&c, &seq, Some(&fault));
        let n_out = vec![1, 1, 0];
        let coll = collect_pairs(
            &c,
            &seq,
            &good,
            &faulty,
            Some(&fault),
            &n_out,
            &MoaOptions::baseline(),
        );
        assert_eq!(coll.runs, 0);
        for (_, info) in &coll.pairs {
            assert!(info.is_two_way());
            assert_eq!(info.n_extra(0), 1);
            assert_eq!(info.n_extra(1), 1);
        }
        // Pairs exist for u=1 (q unspecified, faulty) and u=0.
        assert!(coll.info(PairKey { u: 1, i: 0 }).is_some());
        assert!(coll.info(PairKey { u: 0, i: 0 }).is_some());
    }
}
