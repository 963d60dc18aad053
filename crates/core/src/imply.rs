//! The single-time-frame implication engine.
//!
//! This is the machinery behind the paper's *backward implications*. Setting
//! present-state variable `y_i = α` at time unit `u` forces next-state
//! variable `Y_i = α` at time unit `u - 1`; [`FrameContext::imply`] asserts
//! that value on the corresponding net in the (already forward-simulated)
//! frame `u - 1` and computes its consequences with:
//!
//! 1. one **outputs→inputs** pass applying backward justification
//!    ([`moa_logic::justify`]) to every gate in reverse topological order, and
//! 2. one **inputs→outputs** pass re-evaluating every gate forward,
//!
//! exactly the two passes the paper uses "to keep the computation time low".
//! More rounds (each round = both passes) iterate toward a fixed point and
//! are available as an extension / ablation knob.
//!
//! Stuck-at faults are respected throughout: a stem-faulted net keeps its
//! stuck value and implications never cross it into the (disconnected)
//! driving gate; a branch-faulted pin reads its stuck value and is never the
//! target of a justification.

use std::time::Instant;

use moa_analyze::ImplicationDb;
use moa_logic::{JustifyOutcome, V3};
use moa_netlist::{frame_fanin_cone, frame_fanout_cone, Circuit, Fault, FaultSite, GateId, NetId};
use moa_sim::{compute_frame, NetValues};

/// The gates an implication run starting from a fixed set of asserted nets
/// can ever touch, precomputed so each run visits only its cone of influence
/// instead of the whole circuit.
///
/// Let `F` be the union of the *within-frame* fan-in cones of the asserted
/// nets. The backward pass only needs gates whose output lies in `F`:
/// a gate outside `F` keeps its base output value, which is forward-consistent
/// with its (possibly refined) input views, and a forward-consistent gate
/// yields no new justifications. The forward pass only needs gates whose
/// output lies in the within-frame fan-out cone of `F`: any other gate's
/// inputs never change, so re-evaluating it is a no-op. Conflicts, too, can
/// only arise at those gates, so restricting both passes is exact — the
/// refined values and the conflict verdict are identical to running over the
/// full topological order.
///
/// The restriction is computed structurally, ignoring the injected fault; a
/// fault only ever *blocks* propagation (a stem fault disconnects a gate from
/// its output net, a branch fault pins one pin), so the structural region is
/// a superset of the reachable gates and remains exact.
#[derive(Debug, Clone, Default)]
pub struct ImplyRegion {
    /// Gates visited by the backward pass, in reverse topological order.
    backward: Vec<GateId>,
    /// Gates visited by the forward pass, in topological order.
    forward: Vec<GateId>,
}

impl ImplyRegion {
    /// The region for implication runs asserting values on `nets` (any
    /// subset; typically the flip-flop data nets of one backward step).
    pub fn for_nets(circuit: &Circuit, nets: &[NetId]) -> Self {
        let mut in_fanin = vec![false; circuit.num_nets()];
        for &net in nets {
            for n in frame_fanin_cone(circuit, net) {
                in_fanin[n.index()] = true;
            }
        }
        let fanin_nets: Vec<NetId> = circuit
            .net_ids()
            .filter(|n| in_fanin[n.index()])
            .collect();
        let mut in_fanout = vec![false; circuit.num_nets()];
        for n in frame_fanout_cone(circuit, &fanin_nets) {
            in_fanout[n.index()] = true;
        }
        let mut backward = Vec::new();
        let mut forward = Vec::new();
        for &gid in circuit.topo_order() {
            let out = circuit.gate(gid).output();
            if in_fanin[out.index()] {
                backward.push(gid);
            }
            if in_fanout[out.index()] {
                forward.push(gid);
            }
        }
        backward.reverse();
        ImplyRegion { backward, forward }
    }

    /// Number of gates visited per round (backward + forward).
    pub fn num_gates(&self) -> usize {
        self.backward.len() + self.forward.len()
    }
}

/// Reusable buffers for [`FrameContext::imply_into`], avoiding a fresh frame
/// clone and pin-view vector per implication run. One scratch serves a whole
/// collection sweep; `frames` holds one refined frame per backward-chaining
/// recursion level so nested runs do not clobber their caller's result.
#[derive(Debug, Default)]
pub struct ImplyScratch {
    frames: Vec<NetValues>,
    view: Vec<V3>,
    /// Worklist for cascading statically learned implications.
    stack: Vec<u32>,
    /// Gate visits performed through this scratch (justifications plus
    /// forward evaluations); drained into performance counters by callers.
    pub evals: u64,
    /// Wall time spent inside implication runs, in nanoseconds.
    pub nanos: u64,
    /// Nets newly specified by firing statically learned implications;
    /// drained into performance counters by callers.
    pub learned_hits: u64,
}

impl ImplyScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The refined frame left by the last successful [`FrameContext::imply_into`]
    /// at recursion `level`.
    ///
    /// # Panics
    ///
    /// Panics if no run at that level has completed yet.
    pub fn frame(&self, level: usize) -> &NetValues {
        &self.frames[level]
    }
}

/// The result of asserting values in a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImplyOutcome {
    /// The assertion is inconsistent with the frame: no completion of the
    /// unknown values satisfies it. For an asserted `Y_i = α` this proves
    /// `y_i = ᾱ` at the next time unit.
    Conflict,
    /// The refined frame values (a superset of the specified values of the
    /// base frame).
    Values(NetValues),
}

impl ImplyOutcome {
    /// `true` for [`ImplyOutcome::Conflict`].
    pub fn is_conflict(&self) -> bool {
        matches!(self, ImplyOutcome::Conflict)
    }
}

/// A forward-simulated time frame ready to accept assertions.
///
/// Build one per (fault, time unit) and call [`FrameContext::imply`] once per
/// assertion; the base frame is computed once and cloned per call.
///
/// # Example
///
/// ```
/// use moa_core::imply::FrameContext;
/// use moa_logic::V3;
/// use moa_netlist::parse_bench;
///
/// // Figure-4 style: asserting the next-state variable backward implies
/// // values on the present-state variable.
/// let c = parse_bench("INPUT(a)\nOUTPUT(z)\nq = DFF(d)\nd = NOR(a, q)\nz = NOT(q)\n")?;
/// let ctx = FrameContext::new(&c, &[V3::Zero], &[V3::X], None);
/// let d = c.find_net("d").unwrap();
/// match ctx.imply(&[(d, V3::One)], 1) {
///     moa_core::imply::ImplyOutcome::Values(v) => {
///         // d = NOR(0, q) = 1 forces q = 0 (and thus z = 1).
///         assert_eq!(v[c.find_net("q").unwrap()], V3::Zero);
///         assert_eq!(v[c.find_net("z").unwrap()], V3::One);
///     }
///     _ => unreachable!(),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameContext<'a> {
    circuit: &'a Circuit,
    fault: Option<&'a Fault>,
    base: NetValues,
    learned: Option<Learned<'a>>,
}

/// Statically learned implications armed for one frame, together with the
/// injected fault's *critical net*: the net whose learned-support presence
/// disqualifies a list (the faulted net of a stem fault, the carrying gate's
/// output net for an input-pin fault; flip-flop-input faults leave the
/// within-frame logic intact and disqualify nothing).
#[derive(Debug, Clone, Copy)]
struct Learned<'a> {
    db: &'a ImplicationDb,
    critical: Option<NetId>,
}

impl<'a> FrameContext<'a> {
    /// Forward-simulates the frame for `pattern` / `present_state` with
    /// `fault` injected and wraps it for assertions.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` or `present_state` have the wrong length (see
    /// [`compute_frame`]).
    pub fn new(
        circuit: &'a Circuit,
        pattern: &[V3],
        present_state: &[V3],
        fault: Option<&'a Fault>,
    ) -> Self {
        let base = compute_frame(circuit, pattern, present_state, fault);
        FrameContext {
            circuit,
            fault,
            base,
            learned: None,
        }
    }

    /// Arms statically learned implications: whenever an implication run
    /// newly specifies a net, the net's learned list fires (and cascades).
    /// Lists whose support involves this frame's fault-critical net are
    /// suppressed, keeping the firing sound under the injected fault.
    #[must_use]
    pub fn with_learned(mut self, db: &'a ImplicationDb) -> Self {
        let critical = self.fault.and_then(|f| match f.site {
            FaultSite::Net(net) => Some(net),
            FaultSite::GateInput { gate, .. } => Some(self.circuit.gate(gate).output()),
            FaultSite::FlipFlopInput(_) => None,
        });
        self.learned = Some(Learned { db, critical });
        self
    }

    /// The base frame values.
    pub fn base(&self) -> &NetValues {
        &self.base
    }

    /// The circuit this frame belongs to.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Asserts `assignments` on the frame and runs `rounds` implication
    /// rounds (each one backward pass + one forward pass; `rounds = 1` is the
    /// paper's configuration). Returns the refined values or a conflict.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or an assignment value is `X`.
    pub fn imply(&self, assignments: &[(NetId, V3)], rounds: usize) -> ImplyOutcome {
        let mut scratch = ImplyScratch::new();
        if self.imply_into(assignments, rounds, None, &mut scratch, 0) {
            ImplyOutcome::Values(scratch.frames.swap_remove(0))
        } else {
            ImplyOutcome::Conflict
        }
    }

    /// Allocation-free core of [`FrameContext::imply`]: runs the implication
    /// rounds into `scratch.frames[level]`, visiting only `region`'s gates
    /// when one is given (`None` falls back to the full topological order —
    /// same result, more gate visits). Returns `false` on conflict; on
    /// success the refined values are read via [`ImplyScratch::frame`].
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or an assignment value is `X`.
    pub fn imply_into(
        &self,
        assignments: &[(NetId, V3)],
        rounds: usize,
        region: Option<&ImplyRegion>,
        scratch: &mut ImplyScratch,
        level: usize,
    ) -> bool {
        assert!(rounds > 0, "at least one implication round is required");
        fail_hit!("fp/imply.pass");
        let started = Instant::now();
        if scratch.frames.len() <= level {
            scratch
                .frames
                .resize_with(level + 1, || NetValues::new(self.circuit));
        }
        let ImplyScratch {
            frames,
            view,
            stack,
            evals,
            nanos,
            learned_hits,
        } = scratch;
        let values = &mut frames[level];
        values.copy_from(&self.base);

        let ok = (|| {
            for &(net, value) in assignments {
                assert!(value.is_specified(), "assertions must be binary");
                let was_unspecified = !values[net].is_specified();
                match values[net].merge(value) {
                    Some(v) => values[net] = v,
                    None => return false,
                }
                if was_unspecified {
                    let mut ignored = false;
                    if !self.fire_learned(net, value, values, stack, &mut ignored, learned_hits)
                    {
                        return false;
                    }
                }
            }

            for _ in 0..rounds {
                let mut changed = false;
                let backward_ok = match region {
                    Some(r) => self.backward_pass(
                        r.backward.iter().copied(),
                        values,
                        view,
                        stack,
                        evals,
                        &mut changed,
                        learned_hits,
                    ),
                    None => self.backward_pass(
                        self.circuit.topo_order().iter().rev().copied(),
                        values,
                        view,
                        stack,
                        evals,
                        &mut changed,
                        learned_hits,
                    ),
                };
                if !backward_ok {
                    return false;
                }
                let forward_ok = match region {
                    Some(r) => self.forward_pass(
                        r.forward.iter().copied(),
                        values,
                        view,
                        stack,
                        evals,
                        &mut changed,
                        learned_hits,
                    ),
                    None => self.forward_pass(
                        self.circuit.topo_order().iter().copied(),
                        values,
                        view,
                        stack,
                        evals,
                        &mut changed,
                        learned_hits,
                    ),
                };
                if !forward_ok {
                    return false;
                }
                if !changed {
                    break;
                }
            }
            true
        })();
        *nanos += started.elapsed().as_nanos() as u64;
        ok
    }

    /// Fires the statically learned implication list of `net = value` (just
    /// specified), cascading through lists of any net it newly specifies.
    /// No-op without [`FrameContext::with_learned`]. Returns `false` when a
    /// learned implication conflicts with the frame.
    fn fire_learned(
        &self,
        net: NetId,
        value: V3,
        values: &mut NetValues,
        stack: &mut Vec<u32>,
        changed: &mut bool,
        hits: &mut u64,
    ) -> bool {
        let Some(learned) = self.learned else {
            return true;
        };
        debug_assert!(value.is_specified());
        stack.clear();
        stack.push(ImplicationDb::literal(net, value == V3::One));
        while let Some(lit) = stack.pop() {
            if let Some(critical) = learned.critical {
                if learned.db.support_contains(lit, critical) {
                    continue; // derivation may cross the faulted gate
                }
            }
            for &target in learned.db.implied(lit) {
                let (target_net, target_value) = ImplicationDb::decode(target);
                let v3 = V3::from_bool(target_value);
                match values[target_net].merge(v3) {
                    Some(v) => {
                        if values[target_net] != v {
                            values[target_net] = v;
                            *changed = true;
                            *hits += 1;
                            stack.push(target);
                        }
                    }
                    None => return false,
                }
            }
        }
        true
    }

    /// The value input pin `pin` of `gate` reads under `values`, honoring a
    /// branch fault injected on that pin.
    #[inline]
    fn pin_view(&self, values: &NetValues, gate: GateId, pin: usize, net: NetId) -> V3 {
        if let Some(f) = self.fault {
            if let FaultSite::GateInput { gate: fg, pin: fp } = f.site {
                if fg == gate && fp == pin {
                    return V3::from_bool(f.stuck);
                }
            }
        }
        values[net]
    }

    /// `true` if `net`'s driven value is pinned by a stem fault — its driving
    /// gate is then logically disconnected from it.
    #[inline]
    fn stem_faulted(&self, net: NetId) -> bool {
        matches!(self.fault, Some(f) if f.site == FaultSite::Net(net))
    }

    /// `true` if input pin `pin` of `gate` is pinned by a branch fault.
    #[inline]
    fn pin_faulted(&self, gate: GateId, pin: usize) -> bool {
        matches!(
            self.fault,
            Some(f) if f.site == (FaultSite::GateInput { gate, pin })
        )
    }

    /// Outputs→inputs justification pass over `gates` (reverse topological
    /// order). Returns `false` on conflict.
    #[allow(clippy::too_many_arguments)]
    fn backward_pass(
        &self,
        gates: impl Iterator<Item = GateId>,
        values: &mut NetValues,
        view: &mut Vec<V3>,
        stack: &mut Vec<u32>,
        evals: &mut u64,
        changed: &mut bool,
        hits: &mut u64,
    ) -> bool {
        for gid in gates {
            let gate = self.circuit.gate(gid);
            // A stem fault disconnects the gate from its output net: the
            // net's value says nothing about the gate inputs.
            if self.stem_faulted(gate.output()) {
                continue;
            }
            let out = values[gate.output()];
            if !out.is_specified() {
                continue;
            }
            view.clear();
            for (pin, &net) in gate.inputs().iter().enumerate() {
                view.push(self.pin_view(values, gid, pin, net));
            }
            *evals += 1;
            match moa_logic::justify(gate.kind(), out, view) {
                JustifyOutcome::Conflict => return false,
                JustifyOutcome::Implied(imps) => {
                    for imp in imps {
                        // A branch-faulted pin is specified in the view, so
                        // justify never targets it; the implication lands on
                        // the underlying net.
                        debug_assert!(!self.pin_faulted(gid, imp.input));
                        let target = gate.inputs()[imp.input];
                        match values[target].merge(imp.value) {
                            Some(v) => {
                                if values[target] != v {
                                    values[target] = v;
                                    *changed = true;
                                    if !self.fire_learned(
                                        target, v, values, stack, changed, hits,
                                    ) {
                                        return false;
                                    }
                                }
                            }
                            None => return false,
                        }
                    }
                }
            }
        }
        true
    }

    /// Inputs→outputs propagation pass over `gates` (topological order).
    /// Returns `false` on conflict.
    #[allow(clippy::too_many_arguments)]
    fn forward_pass(
        &self,
        gates: impl Iterator<Item = GateId>,
        values: &mut NetValues,
        view: &mut Vec<V3>,
        stack: &mut Vec<u32>,
        evals: &mut u64,
        changed: &mut bool,
        hits: &mut u64,
    ) -> bool {
        for gid in gates {
            let gate = self.circuit.gate(gid);
            if self.stem_faulted(gate.output()) {
                continue; // the net keeps its stuck value
            }
            view.clear();
            for (pin, &net) in gate.inputs().iter().enumerate() {
                view.push(self.pin_view(values, gid, pin, net));
            }
            *evals += 1;
            let out = gate.kind().eval(view);
            if !out.is_specified() {
                continue;
            }
            let slot = gate.output();
            match values[slot].merge(out) {
                Some(v) => {
                    if values[slot] != v {
                        values[slot] = v;
                        *changed = true;
                        if !self.fire_learned(slot, v, values, stack, changed, hits) {
                            return false;
                        }
                    }
                }
                None => return false,
            }
        }
        true
    }

    /// Next-state values (flip-flop data nets, with a flip-flop-input branch
    /// fault applied) read from refined `values` — the source of the paper's
    /// `extra(u, i, α)` sets.
    pub fn next_state_view(&self, values: &NetValues) -> Vec<V3> {
        moa_sim::frame_next_state(self.circuit, values, self.fault)
    }

    /// One entry of [`FrameContext::next_state_view`] without allocating the
    /// whole vector.
    pub fn next_state_value(&self, values: &NetValues, ff_index: usize) -> V3 {
        if let Some(f) = self.fault {
            if f.site == FaultSite::FlipFlopInput(moa_netlist::FlipFlopId::new(ff_index)) {
                return V3::from_bool(f.stuck);
            }
        }
        values[self.circuit.flip_flops()[ff_index].d()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::GateKind;
    use moa_netlist::{CircuitBuilder, Fault};

    /// The conflict circuit of the paper's Figure 4, reconstructed from its
    /// description: one input (line 1), one state variable (line 2), fan-out
    /// branches of the input (lines 3, 4), `5 = OR(2, 3)`, `6 = OR(2, 4)`,
    /// and next-state `11 = AND(5, NOT(6))`. Under input 0, asserting
    /// `11 = 1` forces `5 = 1 → 2 = 1` and `6 = 0 → 2 = 0`: a conflict.
    fn figure4() -> Circuit {
        let mut b = CircuitBuilder::new("figure4");
        b.add_input("l1").unwrap();
        b.add_flip_flop("l2", "l11").unwrap();
        b.add_gate(GateKind::Buf, "l3", &["l1"]).unwrap();
        b.add_gate(GateKind::Buf, "l4", &["l1"]).unwrap();
        b.add_gate(GateKind::Or, "l5", &["l2", "l3"]).unwrap();
        b.add_gate(GateKind::Or, "l6", &["l2", "l4"]).unwrap();
        b.add_gate(GateKind::Not, "l7", &["l6"]).unwrap();
        b.add_gate(GateKind::And, "l11", &["l5", "l7"]).unwrap();
        b.add_output("l11");
        b.finish().unwrap()
    }

    #[test]
    fn figure_4_conflict_on_one() {
        let c = figure4();
        let ctx = FrameContext::new(&c, &[V3::Zero], &[V3::X], None);
        let l11 = c.find_net("l11").unwrap();
        assert!(ctx.imply(&[(l11, V3::One)], 1).is_conflict());
    }

    #[test]
    fn figure_4_zero_side_is_consistent() {
        let c = figure4();
        let ctx = FrameContext::new(&c, &[V3::Zero], &[V3::X], None);
        let l11 = c.find_net("l11").unwrap();
        match ctx.imply(&[(l11, V3::Zero)], 1) {
            ImplyOutcome::Values(v) => {
                // Nothing further is forced: l2 can be 0 or 1.
                assert_eq!(v[c.find_net("l2").unwrap()], V3::X);
            }
            ImplyOutcome::Conflict => panic!("0 side must be consistent"),
        }
    }

    #[test]
    fn backward_chain_implies_present_state() {
        // d = NOR(a, q); asserting d=1 under a=0 forces q=0.
        let mut b = CircuitBuilder::new("chain");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Nor, "d", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let ctx = FrameContext::new(&c, &[V3::Zero], &[V3::X], None);
        let d = c.find_net("d").unwrap();
        match ctx.imply(&[(d, V3::One)], 1) {
            ImplyOutcome::Values(v) => {
                assert_eq!(v[c.find_net("q").unwrap()], V3::Zero);
                // The forward pass then specifies the output.
                assert_eq!(v[c.find_net("z").unwrap()], V3::One);
            }
            ImplyOutcome::Conflict => panic!("consistent assertion"),
        }
    }

    #[test]
    fn asserting_against_existing_value_conflicts() {
        let mut b = CircuitBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_gate(GateKind::Buf, "z", &["a"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let ctx = FrameContext::new(&c, &[V3::One], &[], None);
        let z = c.find_net("z").unwrap();
        assert!(ctx.imply(&[(z, V3::Zero)], 1).is_conflict());
        assert!(!ctx.imply(&[(z, V3::One)], 1).is_conflict());
    }

    #[test]
    fn stem_fault_blocks_backward_implication() {
        // d = NOR(a, q) with d stuck-at-1: asserting d=1 agrees with the
        // stuck value but must NOT imply q=0 (the gate is disconnected).
        let mut b = CircuitBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Nor, "d", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let d = c.find_net("d").unwrap();
        let fault = Fault::stem(d, true);
        let ctx = FrameContext::new(&c, &[V3::Zero], &[V3::X], Some(&fault));
        match ctx.imply(&[(d, V3::One)], 1) {
            ImplyOutcome::Values(v) => {
                assert_eq!(v[c.find_net("q").unwrap()], V3::X, "no implication through fault");
            }
            ImplyOutcome::Conflict => panic!("agreeing with the stuck value is consistent"),
        }
        // Asserting the opposite of the stuck value is an immediate conflict.
        assert!(ctx.imply(&[(d, V3::Zero)], 1).is_conflict());
    }

    #[test]
    fn branch_fault_blocks_justification_through_pin() {
        // z = AND(a, q) with the q-pin stuck-at-1: asserting z=1 under a=1
        // must not imply q=1 (the pin reads the stuck 1 regardless of q).
        let mut b = CircuitBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::And, "z", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Buf, "d", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let Driver::Gate(z_gate) = c.driver(c.find_net("z").unwrap()) else {
            unreachable!()
        };
        let fault = Fault::gate_input(z_gate, 1, true);
        let ctx = FrameContext::new(&c, &[V3::One], &[V3::X], Some(&fault));
        let z = c.find_net("z").unwrap();
        // Forward sim already proves z = 1 under the fault; re-asserting it
        // implies nothing about q.
        match ctx.imply(&[(z, V3::One)], 1) {
            ImplyOutcome::Values(v) => {
                assert_eq!(v[c.find_net("q").unwrap()], V3::X);
            }
            ImplyOutcome::Conflict => panic!("consistent"),
        }
        // z = 0 is impossible with the pin stuck at 1 and a = 1.
        assert!(ctx.imply(&[(z, V3::Zero)], 1).is_conflict());
    }

    #[test]
    fn extra_round_reaches_fixed_point() {
        // A case needing forward information before backward justification:
        // w = AND(a, b); z = OR(w, q); asserting z = 0 forces q = 0 in the
        // first backward pass only if w is known — w is only computed in the
        // forward direction. With one round the backward pass sees w = X but
        // justify(OR, 0, …) already forces both inputs to 0 regardless, so
        // craft instead: z = XOR(w, q) where w = AND(a, b) = 1 forward.
        let mut b = CircuitBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::And, "w", &["a", "b"]).unwrap();
        b.add_gate(GateKind::Xor, "z", &["w", "q"]).unwrap();
        b.add_gate(GateKind::Buf, "d", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let ctx = FrameContext::new(&c, &[V3::One, V3::One], &[V3::X], None);
        let z = c.find_net("z").unwrap();
        let q = c.find_net("q").unwrap();
        // Forward sim already computed w = 1, so even the single backward
        // pass can justify XOR(1, q) = 0 → q = 1.
        match ctx.imply(&[(z, V3::Zero)], 1) {
            ImplyOutcome::Values(v) => assert_eq!(v[q], V3::One),
            ImplyOutcome::Conflict => panic!("consistent"),
        }
    }

    #[test]
    fn region_restricted_imply_matches_full_for_every_assertion() {
        // Sweep every net and polarity: the cone-restricted run must agree
        // with the full-order run exactly (conflict verdict and every net
        // value), including under injected faults.
        let c = figure4();
        let faults = [
            None,
            Some(Fault::stem(c.find_net("l5").unwrap(), true)),
            Some(Fault::stem(c.find_net("l2").unwrap(), false)),
        ];
        for fault in &faults {
            let ctx = FrameContext::new(&c, &[V3::Zero], &[V3::X], fault.as_ref());
            let mut scratch = ImplyScratch::new();
            for net in c.net_ids() {
                let region = ImplyRegion::for_nets(&c, &[net]);
                for value in [V3::Zero, V3::One] {
                    let full = ctx.imply(&[(net, value)], 1);
                    let ok = ctx.imply_into(&[(net, value)], 1, Some(&region), &mut scratch, 0);
                    match (full, ok) {
                        (ImplyOutcome::Conflict, false) => {}
                        (ImplyOutcome::Values(v), true) => {
                            assert_eq!(&v, scratch.frame(0), "net {net:?} = {value:?}");
                        }
                        (full, ok) => panic!("verdict mismatch at {net:?}={value:?}: {full:?} vs {ok}"),
                    }
                }
            }
            assert!(scratch.evals > 0);
        }
    }

    #[test]
    fn region_visits_fewer_gates_than_full_order() {
        let c = figure4();
        // Asserting on a fan-out branch of the input touches a proper subset
        // of the circuit.
        let l3 = c.find_net("l3").unwrap();
        let region = ImplyRegion::for_nets(&c, &[l3]);
        assert!(region.num_gates() < 2 * c.num_gates());
    }

    #[test]
    fn next_state_value_matches_next_state_view() {
        let c = figure4();
        let fault = Fault::flip_flop_input(moa_netlist::FlipFlopId::new(0), true);
        for f in [None, Some(&fault)] {
            let ctx = FrameContext::new(&c, &[V3::One], &[V3::Zero], f);
            let view = ctx.next_state_view(ctx.base());
            for (i, &v) in view.iter().enumerate() {
                assert_eq!(ctx.next_state_value(ctx.base(), i), v);
            }
        }
    }

    #[test]
    fn learned_firing_preserves_figure_4_conflict_and_counts_hits() {
        let c = figure4();
        let db = moa_analyze::ImplicationDb::build(&c);
        let ctx = FrameContext::new(&c, &[V3::Zero], &[V3::X], None).with_learned(&db);
        let l11 = c.find_net("l11").unwrap();
        assert!(ctx.imply(&[(l11, V3::One)], 1).is_conflict());

        // The learner proves l11 statically constant 0, so asserting l11 = 1
        // conflicts via the infeasible-literal self-edge even with the input
        // unspecified — strictly stronger than one dynamic round from X.
        let blind = FrameContext::new(&c, &[V3::X], &[V3::X], None).with_learned(&db);
        assert!(blind.imply(&[(l11, V3::One)], 1).is_conflict());
    }

    #[test]
    fn learned_hits_are_metered() {
        // d = NOR(a, q): the learned list for d = 1 fires q = 0 (and more)
        // the instant d is specified, which the scratch counts.
        let mut b = CircuitBuilder::new("chain");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Nor, "d", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let db = moa_analyze::ImplicationDb::build(&c);
        let ctx = FrameContext::new(&c, &[V3::X], &[V3::X], None).with_learned(&db);
        let d = c.find_net("d").unwrap();
        let mut scratch = ImplyScratch::new();
        assert!(ctx.imply_into(&[(d, V3::One)], 1, None, &mut scratch, 0));
        assert!(scratch.learned_hits > 0, "{}", scratch.learned_hits);
        assert_eq!(scratch.frame(0)[c.find_net("q").unwrap()], V3::Zero);
        assert_eq!(scratch.frame(0)[c.find_net("a").unwrap()], V3::Zero);
    }

    #[test]
    fn fault_critical_net_suppresses_learned_lists() {
        // a → w1 → z is a buffer chain, so the learner knows a = 1 ⇒ w1 = 1.
        // With w1 stuck-at-0 that implication is wrong in the faulty machine;
        // the support check must suppress it, leaving a = 1 consistent.
        let mut b = CircuitBuilder::new("buf-chain");
        b.add_input("a").unwrap();
        b.add_gate(GateKind::Buf, "w1", &["a"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["w1"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let db = moa_analyze::ImplicationDb::build(&c);
        let a = c.find_net("a").unwrap();
        let w1 = c.find_net("w1").unwrap();
        let fault = Fault::stem(w1, false);
        let ctx = FrameContext::new(&c, &[V3::X], &[], Some(&fault)).with_learned(&db);
        match ctx.imply(&[(a, V3::One)], 1) {
            ImplyOutcome::Values(v) => {
                assert_eq!(v[w1], V3::Zero, "the stuck value must win");
                assert_eq!(v[c.find_net("z").unwrap()], V3::Zero);
            }
            ImplyOutcome::Conflict => {
                panic!("a=1 is consistent under w1 s-a-0; a learned list leaked")
            }
        }
    }

    #[test]
    fn rounds_zero_panics() {
        let mut b = CircuitBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_gate(GateKind::Buf, "z", &["a"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let ctx = FrameContext::new(&c, &[V3::One], &[], None);
        let z = c.find_net("z").unwrap();
        let result = std::panic::catch_unwind(|| ctx.imply(&[(z, V3::One)], 0));
        assert!(result.is_err());
    }

    use moa_netlist::Driver;
}
