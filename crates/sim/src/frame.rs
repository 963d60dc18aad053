//! Single time-frame evaluation with stuck-at fault injection.

use std::ops::{Index, IndexMut};

use moa_logic::V3;
use moa_netlist::{Circuit, Fault, FaultSite, NetId};

/// The three-valued value of every net in one time frame.
///
/// Indexable by [`NetId`]. Freshly created frames hold `X` everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetValues {
    values: Vec<V3>,
}

impl NetValues {
    /// An all-`X` frame for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        NetValues {
            values: vec![V3::X; circuit.num_nets()],
        }
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the frame has no nets (only for degenerate circuits).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of nets currently specified (binary).
    pub fn num_specified(&self) -> usize {
        self.values.iter().filter(|v| v.is_specified()).count()
    }

    /// Overwrites this frame with `other`'s values, reusing the allocation.
    pub fn copy_from(&mut self, other: &NetValues) {
        self.values.clear();
        self.values.extend_from_slice(&other.values);
    }
}

impl Index<NetId> for NetValues {
    type Output = V3;

    #[inline]
    fn index(&self, net: NetId) -> &V3 {
        &self.values[net.index()]
    }
}

impl IndexMut<NetId> for NetValues {
    #[inline]
    fn index_mut(&mut self, net: NetId) -> &mut V3 {
        &mut self.values[net.index()]
    }
}

/// Reads the value seen by input pin `pin` of the gate with id `gate_index`,
/// applying a gate-input branch fault if one is injected there.
#[inline]
pub(crate) fn pin_value(
    values: &NetValues,
    net: NetId,
    gate_index: usize,
    pin: usize,
    fault: Option<&Fault>,
) -> V3 {
    if let Some(f) = fault {
        if let FaultSite::GateInput { gate, pin: fpin } = f.site {
            if gate.index() == gate_index && fpin == pin {
                return V3::from_bool(f.stuck);
            }
        }
    }
    values[net]
}

/// Evaluates one time frame of `circuit`.
///
/// `pattern` gives the primary-input values (in `circuit.inputs()` order) and
/// `present_state` the flip-flop output values (in `circuit.flip_flops()`
/// order — the paper's `y_i`). The returned frame holds the value of every
/// net, with `fault` (if any) injected: a stem fault pins the value of its
/// net, a branch fault pins only the reading pin (and therefore is *not*
/// visible in the returned net values — use [`frame_next_state`] to read
/// flip-flop data pins with branch faults applied).
///
/// # Panics
///
/// Panics if `pattern` or `present_state` have the wrong length.
///
/// # Example
///
/// ```
/// use moa_logic::V3;
/// use moa_netlist::parse_bench;
/// use moa_sim::compute_frame;
///
/// let c = parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")?;
/// let frame = compute_frame(&c, &[V3::One], &[], None);
/// assert_eq!(frame[c.find_net("z").unwrap()], V3::Zero);
/// # Ok::<(), moa_netlist::NetlistError>(())
/// ```
pub fn compute_frame(
    circuit: &Circuit,
    pattern: &[V3],
    present_state: &[V3],
    fault: Option<&Fault>,
) -> NetValues {
    assert_eq!(pattern.len(), circuit.num_inputs(), "pattern length");
    assert_eq!(
        present_state.len(),
        circuit.num_flip_flops(),
        "present-state length"
    );

    let mut values = NetValues::new(circuit);
    for (i, &net) in circuit.inputs().iter().enumerate() {
        values[net] = pattern[i];
    }
    for (i, ff) in circuit.flip_flops().iter().enumerate() {
        values[ff.q()] = present_state[i];
    }
    // A stem fault on a source net (PI or flip-flop output) overrides it
    // before any gate reads it.
    if let Some(f) = fault {
        if let FaultSite::Net(net) = f.site {
            values[net] = V3::from_bool(f.stuck);
        }
    }

    let mut input_buffer: Vec<V3> = Vec::with_capacity(8);
    for &gid in circuit.topo_order() {
        let gate = circuit.gate(gid);
        input_buffer.clear();
        for (pin, &net) in gate.inputs().iter().enumerate() {
            input_buffer.push(pin_value(&values, net, gid.index(), pin, fault));
        }
        let mut out = gate.kind().eval(&input_buffer);
        if let Some(f) = fault {
            if f.site == FaultSite::Net(gate.output()) {
                out = V3::from_bool(f.stuck);
            }
        }
        values[gate.output()] = out;
    }
    values
}

/// Reads the next state (flip-flop data pins, the paper's `Y_i`) from a
/// computed frame, applying a flip-flop-input branch fault if injected.
pub fn frame_next_state(circuit: &Circuit, values: &NetValues, fault: Option<&Fault>) -> Vec<V3> {
    circuit
        .flip_flops()
        .iter()
        .enumerate()
        .map(|(i, ff)| {
            if let Some(f) = fault {
                if f.site == FaultSite::FlipFlopInput(moa_netlist::FlipFlopId::new(i)) {
                    return V3::from_bool(f.stuck);
                }
            }
            values[ff.d()]
        })
        .collect()
}

/// Reads the primary-output values from a computed frame.
pub fn frame_outputs(circuit: &Circuit, values: &NetValues) -> Vec<V3> {
    circuit.outputs().iter().map(|&net| values[net]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::GateKind;
    use moa_netlist::{CircuitBuilder, FlipFlopId, GateId};

    fn c1() -> Circuit {
        let mut b = CircuitBuilder::new("c1");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::And, "w", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Or, "d", &["w", "b"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["w"]).unwrap();
        b.add_output("z");
        b.finish().unwrap()
    }

    #[test]
    fn fault_free_evaluation() {
        let c = c1();
        let f = compute_frame(&c, &[V3::One, V3::Zero], &[V3::One], None);
        assert_eq!(f[c.find_net("w").unwrap()], V3::One);
        assert_eq!(f[c.find_net("d").unwrap()], V3::One);
        assert_eq!(f[c.find_net("z").unwrap()], V3::Zero);
        assert_eq!(frame_outputs(&c, &f), vec![V3::Zero]);
        assert_eq!(frame_next_state(&c, &f, None), vec![V3::One]);
    }

    #[test]
    fn unknown_state_propagates() {
        let c = c1();
        let f = compute_frame(&c, &[V3::One, V3::Zero], &[V3::X], None);
        assert_eq!(f[c.find_net("w").unwrap()], V3::X);
        assert_eq!(f[c.find_net("z").unwrap()], V3::X);
    }

    #[test]
    fn stem_fault_on_gate_output() {
        let c = c1();
        let w = c.find_net("w").unwrap();
        let fault = Fault::stem(w, true); // w stuck-at-1
        let f = compute_frame(&c, &[V3::Zero, V3::Zero], &[V3::Zero], Some(&fault));
        assert_eq!(f[w], V3::One, "stem fault pins the net");
        assert_eq!(f[c.find_net("z").unwrap()], V3::Zero);
        assert_eq!(f[c.find_net("d").unwrap()], V3::One);
    }

    #[test]
    fn stem_fault_on_primary_input() {
        let c = c1();
        let a = c.find_net("a").unwrap();
        let fault = Fault::stem(a, true);
        let f = compute_frame(&c, &[V3::Zero, V3::Zero], &[V3::One], Some(&fault));
        assert_eq!(f[c.find_net("w").unwrap()], V3::One);
    }

    #[test]
    fn stem_fault_on_flip_flop_output() {
        let c = c1();
        let q = c.find_net("q").unwrap();
        let fault = Fault::stem(q, false);
        let f = compute_frame(&c, &[V3::One, V3::Zero], &[V3::One], Some(&fault));
        assert_eq!(f[c.find_net("w").unwrap()], V3::Zero);
    }

    #[test]
    fn branch_fault_affects_only_its_pin() {
        let mut b = CircuitBuilder::new("br");
        b.add_input("a").unwrap();
        b.add_gate(GateKind::Buf, "u", &["a"]).unwrap();
        b.add_gate(GateKind::Buf, "v", &["a"]).unwrap();
        b.add_output("u");
        b.add_output("v");
        let c = b.finish().unwrap();
        // Branch fault on v's pin only.
        let moa_netlist::Driver::Gate(v_gate) = c.driver(c.find_net("v").unwrap()) else {
            unreachable!()
        };
        let fault = Fault::gate_input(v_gate, 0, true);
        let f = compute_frame(&c, &[V3::Zero], &[], Some(&fault));
        assert_eq!(f[c.find_net("u").unwrap()], V3::Zero, "u unaffected");
        assert_eq!(f[c.find_net("v").unwrap()], V3::One, "v sees stuck pin");
        // The net `a` itself is unaffected by the branch fault.
        assert_eq!(f[c.find_net("a").unwrap()], V3::Zero);
    }

    #[test]
    fn ff_input_branch_fault_applies_at_next_state() {
        let c = c1();
        let fault = Fault::flip_flop_input(FlipFlopId::new(0), false);
        let f = compute_frame(&c, &[V3::One, V3::One], &[V3::One], Some(&fault));
        // The d-net computes 1, but the flip-flop latches the stuck 0.
        assert_eq!(f[c.find_net("d").unwrap()], V3::One);
        assert_eq!(frame_next_state(&c, &f, Some(&fault)), vec![V3::Zero]);
    }

    #[test]
    fn pin_value_helper_only_matches_its_site() {
        let c = c1();
        let fault = Fault::gate_input(GateId::new(0), 1, true);
        let values = NetValues::new(&c);
        let net = c.gate(GateId::new(0)).inputs()[1];
        assert_eq!(pin_value(&values, net, 0, 1, Some(&fault)), V3::One);
        assert_eq!(pin_value(&values, net, 0, 0, Some(&fault)), V3::X);
        assert_eq!(pin_value(&values, net, 1, 1, Some(&fault)), V3::X);
    }

    #[test]
    fn num_specified_counts() {
        let c = c1();
        let mut values = NetValues::new(&c);
        assert_eq!(values.num_specified(), 0);
        values[c.find_net("a").unwrap()] = V3::One;
        assert_eq!(values.num_specified(), 1);
        assert_eq!(values.len(), c.num_nets());
        assert!(!values.is_empty());
    }
}
