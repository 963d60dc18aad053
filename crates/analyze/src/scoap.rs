//! SCOAP-style testability estimates: controllability and observability.
//!
//! Classic static testability measures (Goldstein's SCOAP): for every net,
//! the *0-controllability* `CC0` and *1-controllability* `CC1` estimate how
//! many line assignments it takes to drive the net to 0 or 1, and the
//! *observability* `CO` estimates how many it takes to propagate the net's
//! value to a primary output. Flip-flops add one unit per crossed frame
//! boundary, so sequential depth is priced in.
//!
//! These are **heuristics**, never proofs: a finite cost does not imply a
//! fault is detectable and [`UNREACHABLE`](Testability::UNREACHABLE) does not
//! replace the sound untestability screen
//! ([`UntestableScreen`](crate::UntestableScreen)). `moa analyze` reports
//! them as per-fault detection-cost statistics; no campaign verdict reads
//! them.

use moa_netlist::{Circuit, Fault, FaultSite, GateKind, NetId};

/// Per-net controllability/observability estimates for one circuit.
///
/// # Example
///
/// ```
/// use moa_analyze::Testability;
/// use moa_netlist::parse_bench;
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")?;
/// let t = Testability::build(&c);
/// let z = c.find_net("z").unwrap();
/// // Driving an AND output to 1 costs both inputs: CC1(z) = 1 + 1 + 1.
/// assert_eq!(t.cc1(z), 3);
/// assert_eq!(t.co(z), 0); // z is a primary output
/// # Ok::<(), moa_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Testability {
    cc0: Vec<u64>,
    cc1: Vec<u64>,
    co: Vec<u64>,
}

impl Testability {
    /// Cost assigned to a value no assignment can produce (and to nets from
    /// which no primary output is reachable). Large enough to dominate every
    /// finite cost, small enough that sums never wrap.
    pub const UNREACHABLE: u64 = u64::MAX / 4;

    /// Computes the measures by fixpoint iteration: controllabilities relax
    /// forward over the combinational logic and across flip-flops (`+1` per
    /// frame), observabilities relax backward. Feedback loops converge
    /// because costs only ever decrease and are bounded below.
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.num_nets();
        let mut t = Testability {
            cc0: vec![Self::UNREACHABLE; n],
            cc1: vec![Self::UNREACHABLE; n],
            co: vec![Self::UNREACHABLE; n],
        };
        for &pi in circuit.inputs() {
            t.cc0[pi.index()] = 1;
            t.cc1[pi.index()] = 1;
        }
        // Controllability: forward passes until stable. Each pass relaxes in
        // topological order, then carries values across the frame boundary;
        // path lengths through state are bounded by the flip-flop count.
        let passes = circuit.num_flip_flops() + 2;
        for _ in 0..passes {
            let mut changed = false;
            for &gid in circuit.topo_order() {
                let gate = circuit.gate(gid);
                let (c0, c1) = gate_controllability(gate.kind(), gate.inputs(), &t.cc0, &t.cc1);
                let out = gate.output().index();
                if c0 < t.cc0[out] {
                    t.cc0[out] = c0;
                    changed = true;
                }
                if c1 < t.cc1[out] {
                    t.cc1[out] = c1;
                    changed = true;
                }
            }
            for ff in circuit.flip_flops() {
                let (d, q) = (ff.d().index(), ff.q().index());
                let c0 = cap(t.cc0[d].saturating_add(1));
                let c1 = cap(t.cc1[d].saturating_add(1));
                if c0 < t.cc0[q] {
                    t.cc0[q] = c0;
                    changed = true;
                }
                if c1 < t.cc1[q] {
                    t.cc1[q] = c1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Observability: backward passes. A primary output observes itself
        // for free; a gate input is observed through the gate's output with
        // every sibling pin held at its non-controlling value.
        for &po in circuit.outputs() {
            t.co[po.index()] = 0;
        }
        for _ in 0..passes {
            let mut changed = false;
            for &gid in circuit.topo_order().iter().rev() {
                let gate = circuit.gate(gid);
                let out_co = t.co[gate.output().index()];
                for (pin, &src) in gate.inputs().iter().enumerate() {
                    let o = pin_observability(gate.kind(), gate.inputs(), pin, out_co, &t.cc0, &t.cc1);
                    if o < t.co[src.index()] {
                        t.co[src.index()] = o;
                        changed = true;
                    }
                }
            }
            for ff in circuit.flip_flops() {
                let o = cap(t.co[ff.q().index()].saturating_add(1));
                if o < t.co[ff.d().index()] {
                    t.co[ff.d().index()] = o;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        t
    }

    /// Estimated cost of driving `net` to 0.
    pub fn cc0(&self, net: NetId) -> u64 {
        self.cc0[net.index()]
    }

    /// Estimated cost of driving `net` to 1.
    pub fn cc1(&self, net: NetId) -> u64 {
        self.cc1[net.index()]
    }

    /// Estimated cost of propagating `net`'s value to a primary output.
    pub fn co(&self, net: NetId) -> u64 {
        self.co[net.index()]
    }

    /// Estimated detection cost of a stuck-at fault: activate the line to the
    /// opposite of the stuck value, then observe the effect from the net it
    /// first appears on (the gate output for branch faults, the flip-flop's
    /// `q` for data-pin faults — matching the untestability screen).
    pub fn fault_cost(&self, circuit: &Circuit, fault: &Fault) -> u64 {
        let line = fault.source_net(circuit);
        let activate = if fault.stuck {
            self.cc0(line)
        } else {
            self.cc1(line)
        };
        let effect = match fault.site {
            FaultSite::Net(n) => n,
            FaultSite::GateInput { gate, .. } => circuit.gate(gate).output(),
            FaultSite::FlipFlopInput(ff) => circuit.flip_flop(ff).q(),
        };
        cap(activate.saturating_add(self.co(effect)))
    }
}

/// Clamps a cost to [`Testability::UNREACHABLE`] so sums of unreachable
/// values stay unreachable instead of wrapping toward small numbers.
fn cap(cost: u64) -> u64 {
    cost.min(Testability::UNREACHABLE)
}

/// SCOAP output controllabilities of one gate from its input measures.
fn gate_controllability(
    kind: GateKind,
    inputs: &[NetId],
    cc0: &[u64],
    cc1: &[u64],
) -> (u64, u64) {
    let sum = |pick: &[u64]| {
        cap(inputs
            .iter()
            .fold(0u64, |acc, n| acc.saturating_add(pick[n.index()]))
            .saturating_add(1))
    };
    let min = |pick: &[u64]| {
        cap(inputs
            .iter()
            .map(|n| pick[n.index()])
            .min()
            .unwrap_or(Testability::UNREACHABLE)
            .saturating_add(1))
    };
    match kind {
        // Non-inverting: easy value comes from one controlling input, hard
        // value needs every input at the non-controlling value.
        GateKind::And => (min(cc0), sum(cc1)),
        GateKind::Or => (sum(cc0), min(cc1)),
        GateKind::Nand => (sum(cc1), min(cc0)),
        GateKind::Nor => (min(cc1), sum(cc0)),
        GateKind::Not => (min(cc1), min(cc0)),
        GateKind::Buf => (min(cc0), min(cc1)),
        GateKind::Xor | GateKind::Xnor => {
            // Cheapest input assignment of each parity, by dynamic
            // programming over the pins.
            let (mut even, mut odd) = (0u64, Testability::UNREACHABLE);
            for n in inputs {
                let (c0, c1) = (cc0[n.index()], cc1[n.index()]);
                let new_even = cap(even.saturating_add(c0)).min(cap(odd.saturating_add(c1)));
                let new_odd = cap(even.saturating_add(c1)).min(cap(odd.saturating_add(c0)));
                even = new_even;
                odd = new_odd;
            }
            let (zero, one) = if kind == GateKind::Xor {
                (even, odd)
            } else {
                (odd, even)
            };
            (cap(zero.saturating_add(1)), cap(one.saturating_add(1)))
        }
    }
}

/// SCOAP observability of one gate input pin: the output's observability
/// plus the cost of holding every sibling pin at a value that lets the pin's
/// value through.
fn pin_observability(
    kind: GateKind,
    inputs: &[NetId],
    pin: usize,
    out_co: u64,
    cc0: &[u64],
    cc1: &[u64],
) -> u64 {
    let siblings = inputs
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != pin)
        .map(|(_, n)| n);
    let side: u64 = match kind {
        // Siblings must sit at the non-controlling value.
        GateKind::And | GateKind::Nand => {
            siblings.fold(0u64, |acc, n| acc.saturating_add(cc1[n.index()]))
        }
        GateKind::Or | GateKind::Nor => {
            siblings.fold(0u64, |acc, n| acc.saturating_add(cc0[n.index()]))
        }
        GateKind::Not | GateKind::Buf => 0,
        // Parity gates propagate through any fixed sibling assignment: take
        // each sibling's cheaper value.
        GateKind::Xor | GateKind::Xnor => siblings.fold(0u64, |acc, n| {
            acc.saturating_add(cc0[n.index()].min(cc1[n.index()]))
        }),
    };
    cap(out_co.saturating_add(side).saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_netlist::{parse_bench, CircuitBuilder, Driver};

    #[test]
    fn and_gate_measures() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n").unwrap();
        let t = Testability::build(&c);
        let (a, z) = (c.find_net("a").unwrap(), c.find_net("z").unwrap());
        assert_eq!(t.cc0(z), 2); // one controlling input + 1
        assert_eq!(t.cc1(z), 3); // both inputs + 1
        assert_eq!(t.co(z), 0);
        // Observing `a` through the AND needs b at 1: co = 0 + 1 + 1.
        assert_eq!(t.co(a), 2);
    }

    #[test]
    fn xor_parity_dp_matches_two_input_truth() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = XOR(a, b)\n").unwrap();
        let t = Testability::build(&c);
        let z = c.find_net("z").unwrap();
        // Parity 0 cheapest: both at their cheaper value (1 + 1) + 1.
        assert_eq!(t.cc0(z), 3);
        assert_eq!(t.cc1(z), 3);
    }

    #[test]
    fn flip_flop_adds_a_frame_of_cost() {
        let c = parse_bench(
            "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = BUFF(a)\n",
        )
        .unwrap();
        let t = Testability::build(&c);
        let (d, q) = (c.find_net("d").unwrap(), c.find_net("q").unwrap());
        assert_eq!(t.cc1(q), t.cc1(d) + 1);
        assert_eq!(t.co(d), t.co(q) + 1);
        assert_eq!(t.co(q), 0);
    }

    #[test]
    fn sequential_feedback_converges() {
        // q feeds its own next-state logic: the fixpoint must terminate and
        // produce finite measures via the reset path.
        let c = parse_bench(
            "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
        )
        .unwrap();
        let t = Testability::build(&c);
        let q = c.find_net("q").unwrap();
        assert!(t.cc0(q) < Testability::UNREACHABLE);
        assert!(t.cc1(q) < Testability::UNREACHABLE);
        assert!(t.co(q) < Testability::UNREACHABLE);
    }

    #[test]
    fn dead_logic_is_unobservable() {
        let mut b = CircuitBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_gate(GateKind::Not, "dead", &["a"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["a"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let t = Testability::build(&c);
        let dead = c.find_net("dead").unwrap();
        assert_eq!(t.co(dead), Testability::UNREACHABLE);
        // The fault cost inherits the unreachable observability.
        let f = Fault::stem(dead, true);
        assert_eq!(t.fault_cost(&c, &f), Testability::UNREACHABLE);
    }

    #[test]
    fn fault_cost_orders_easy_before_hard() {
        // On z = AND(a, b): z stuck-at-1 activates with one controlling
        // input (cost 2), while a stuck-at-1 needs a = 0 *and* b held at 1
        // to propagate (cost 3).
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n").unwrap();
        let t = Testability::build(&c);
        let easy = Fault::stem(c.find_net("z").unwrap(), true);
        let hard = Fault::stem(c.find_net("a").unwrap(), true);
        assert_eq!(t.fault_cost(&c, &easy), 2);
        assert_eq!(t.fault_cost(&c, &hard), 3);
    }

    #[test]
    fn branch_fault_observes_from_the_reading_gate() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(u)\nOUTPUT(v)\nu = AND(a, b)\nv = OR(a, b)\n",
        )
        .unwrap();
        let t = Testability::build(&c);
        // Branch fault on the AND's `a` pin: effect net is `u`, whose co is
        // 0; cost = cc1(a) + 0 = finite and small.
        let Driver::Gate(and_gate) = c.driver(c.find_net("u").unwrap()) else {
            panic!("u must be gate-driven");
        };
        let f = Fault::gate_input(and_gate, 0, false);
        assert_eq!(t.fault_cost(&c, &f), 1);
    }
}
