//! Bit-parallel *three-valued* simulation (dual-rail encoding).
//!
//! Each net carries two words: lane `k` of `ones` means "value 1 in slot
//! `k`", lane `k` of `zeros` means "value 0 in slot `k`", and neither bit set
//! means `X`. Gate evaluation is a handful of bitwise operations per gate for
//! a whole word of scenarios at once.
//!
//! The value type is generic over the [`Word`] carrying the lanes:
//! [`PackedV3<u64>`] is the paper's configuration — its `N_STATES = 64`
//! expanded state sequences fit one machine word exactly — and the
//! [`Packed3`] alias keeps that 64-lane shape as the default vocabulary. The wide-word
//! screening kernel ([`crate::screen_faults_wide`]) instantiates the same
//! dual-rail algebra at 128 and 256 lanes.

use moa_logic::{GateKind, V3};
use moa_netlist::{Circuit, Fault, FaultSite, FlipFlopId, NetId};

use crate::word::Word;

/// A dual-rail three-valued value with one slot per lane of `W`.
///
/// Invariant: `ones & zeros == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedV3<W: Word = u64> {
    /// Lane `k` set: slot `k` holds 1.
    pub ones: W,
    /// Lane `k` set: slot `k` holds 0.
    pub zeros: W,
}

/// The 64-slot dual-rail word of the paper's `N_STATES = 64` configuration.
pub type Packed3 = PackedV3<u64>;

impl<W: Word> PackedV3<W> {
    /// All slots `X`.
    pub const ALL_X: PackedV3<W> = PackedV3 {
        ones: W::ZERO,
        zeros: W::ZERO,
    };

    /// Broadcasts one scalar value to all slots.
    pub fn broadcast(v: V3) -> PackedV3<W> {
        match v {
            V3::One => PackedV3 {
                ones: W::ONES,
                zeros: W::ZERO,
            },
            V3::Zero => PackedV3 {
                ones: W::ZERO,
                zeros: W::ONES,
            },
            V3::X => PackedV3::ALL_X,
        }
    }

    /// Reads one slot.
    #[inline]
    pub fn get(self, slot: u32) -> V3 {
        debug_assert!(self.ones.and(self.zeros).is_zero(), "dual-rail invariant");
        if self.ones.test_lane(slot as usize) {
            V3::One
        } else if self.zeros.test_lane(slot as usize) {
            V3::Zero
        } else {
            V3::X
        }
    }

    /// Writes one slot.
    #[inline]
    pub fn set(&mut self, slot: u32, v: V3) {
        let bit = W::lane_bit(slot as usize);
        self.ones = self.ones.and_not(bit);
        self.zeros = self.zeros.and_not(bit);
        match v {
            V3::One => self.ones = self.ones.or(bit),
            V3::Zero => self.zeros = self.zeros.or(bit),
            V3::X => {}
        }
    }

    /// Slots holding a binary value.
    #[inline]
    pub fn specified(self) -> W {
        self.ones.or(self.zeros)
    }

    #[inline]
    pub(crate) fn not(self) -> PackedV3<W> {
        PackedV3 {
            ones: self.zeros,
            zeros: self.ones,
        }
    }

    #[inline]
    pub(crate) fn and(self, rhs: PackedV3<W>) -> PackedV3<W> {
        PackedV3 {
            ones: self.ones.and(rhs.ones),
            zeros: self.zeros.or(rhs.zeros),
        }
    }

    #[inline]
    pub(crate) fn or(self, rhs: PackedV3<W>) -> PackedV3<W> {
        PackedV3 {
            ones: self.ones.or(rhs.ones),
            zeros: self.zeros.and(rhs.zeros),
        }
    }

    #[inline]
    pub(crate) fn xor(self, rhs: PackedV3<W>) -> PackedV3<W> {
        PackedV3 {
            ones: self.ones.and(rhs.zeros).or(self.zeros.and(rhs.ones)),
            zeros: self.ones.and(rhs.ones).or(self.zeros.and(rhs.zeros)),
        }
    }
}

/// One dual-rail value per net of a time frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedV3Values<W: Word = u64> {
    values: Vec<PackedV3<W>>,
}

/// The 64-slot frame of values matching [`Packed3`].
pub type Packed3Values = PackedV3Values<u64>;

impl<W: Word> PackedV3Values<W> {
    /// An all-`X` packed frame.
    pub fn new(circuit: &Circuit) -> Self {
        PackedV3Values {
            values: vec![PackedV3::ALL_X; circuit.num_nets()],
        }
    }

    /// Resets every net to `X`, (re)sizing for `circuit` while reusing the
    /// allocation — the cheap per-frame starting point of a kernel that owns
    /// its scratch buffer.
    pub fn reset(&mut self, circuit: &Circuit) {
        self.values.clear();
        self.values.resize(circuit.num_nets(), PackedV3::ALL_X);
    }

    /// The packed value of a net.
    #[inline]
    pub fn get(&self, net: NetId) -> PackedV3<W> {
        self.values[net.index()]
    }

    /// Sets the packed value of a net.
    #[inline]
    pub fn set(&mut self, net: NetId, v: PackedV3<W>) {
        self.values[net.index()] = v;
    }
}

/// Evaluates one time frame for 64 three-valued scenarios at once.
///
/// `pattern[i]` drives primary input `i` identically in all slots (as in the
/// experiments: the same test sequence for every expanded state sequence);
/// `present_state[i]` gives flip-flop `i`'s per-slot dual-rail values.
/// `fault` is injected in every slot.
///
/// No engine runs it: it is the dual-rail reference that the unit and
/// property tests check slot by slot against the scalar
/// [`compute_frame`](crate::compute_frame).
///
/// # Panics
///
/// Panics if `pattern` or `present_state` have the wrong length.
pub fn run_packed3_frame(
    circuit: &Circuit,
    pattern: &[V3],
    present_state: &[Packed3],
    fault: Option<&Fault>,
) -> Packed3Values {
    assert_eq!(pattern.len(), circuit.num_inputs(), "pattern length");
    assert_eq!(
        present_state.len(),
        circuit.num_flip_flops(),
        "present-state length"
    );

    let mut values = Packed3Values::new(circuit);
    for (i, &net) in circuit.inputs().iter().enumerate() {
        values.set(net, Packed3::broadcast(pattern[i]));
    }
    for (i, ff) in circuit.flip_flops().iter().enumerate() {
        values.set(ff.q(), present_state[i]);
    }
    if let Some(f) = fault {
        if let FaultSite::Net(net) = f.site {
            values.set(net, Packed3::broadcast(V3::from_bool(f.stuck)));
        }
    }

    // Branch faults pin the reading pin; a stem fault pins the gate's output.
    for &gid in circuit.topo_order() {
        let gate = circuit.gate(gid);
        let pin = |pin_index: usize| -> Packed3 {
            if let Some(f) = fault {
                if let FaultSite::GateInput { gate: fg, pin: fp } = f.site {
                    if fg == gid && fp == pin_index {
                        return Packed3::broadcast(V3::from_bool(f.stuck));
                    }
                }
            }
            values.get(gate.inputs()[pin_index])
        };
        let n = gate.inputs().len();
        let mut out = pin(0);
        match gate.kind() {
            GateKind::And | GateKind::Nand => {
                for i in 1..n {
                    out = out.and(pin(i));
                }
            }
            GateKind::Or | GateKind::Nor => {
                for i in 1..n {
                    out = out.or(pin(i));
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                for i in 1..n {
                    out = out.xor(pin(i));
                }
            }
            GateKind::Not | GateKind::Buf => {}
        }
        if gate.kind().inverting() {
            out = out.not();
        }
        if let Some(f) = fault {
            if f.site == FaultSite::Net(gate.output()) {
                out = Packed3::broadcast(V3::from_bool(f.stuck));
            }
        }
        values.set(gate.output(), out);
    }
    values
}

/// Reads the packed next state, applying a flip-flop-input branch fault.
pub fn packed3_next_state(
    circuit: &Circuit,
    values: &Packed3Values,
    fault: Option<&Fault>,
) -> Vec<Packed3> {
    circuit
        .flip_flops()
        .iter()
        .enumerate()
        .map(|(i, ff)| {
            if let Some(f) = fault {
                if f.site == FaultSite::FlipFlopInput(FlipFlopId::new(i)) {
                    return Packed3::broadcast(V3::from_bool(f.stuck));
                }
            }
            values.get(ff.d())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{compute_frame, frame_next_state, frame_outputs};
    use moa_logic::GateKind;
    use moa_netlist::CircuitBuilder;

    fn c1() -> Circuit {
        let mut b = CircuitBuilder::new("c1");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_flip_flop("q0", "d0").unwrap();
        b.add_flip_flop("q1", "d1").unwrap();
        b.add_gate(GateKind::Nand, "w", &["a", "q0"]).unwrap();
        b.add_gate(GateKind::Xnor, "d0", &["w", "q1"]).unwrap();
        b.add_gate(GateKind::Nor, "d1", &["b", "q0"]).unwrap();
        b.add_gate(GateKind::Or, "v", &["w", "q1"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["v"]).unwrap();
        b.add_output("z");
        b.finish().unwrap()
    }

    #[test]
    fn packed3_round_trip_accessors() {
        let mut p = Packed3::ALL_X;
        p.set(3, V3::One);
        p.set(7, V3::Zero);
        assert_eq!(p.get(3), V3::One);
        assert_eq!(p.get(7), V3::Zero);
        assert_eq!(p.get(0), V3::X);
        p.set(3, V3::X);
        assert_eq!(p.get(3), V3::X);
        assert_eq!(p.specified(), 1 << 7);
    }

    /// The wide instantiations run the same dual-rail algebra per lane:
    /// every slot of a 256-lane value round-trips and the gate ops agree
    /// with the 64-lane word slot-for-slot.
    #[test]
    fn wide_dual_rail_algebra_matches_u64_per_slot() {
        let vals = [V3::Zero, V3::One, V3::X];
        let mut wide_a: PackedV3<[u64; 4]> = PackedV3::ALL_X;
        let mut wide_b: PackedV3<[u64; 4]> = PackedV3::ALL_X;
        let mut narrow_a = Packed3::ALL_X;
        let mut narrow_b = Packed3::ALL_X;
        // Drive the low 64 slots of both widths with the same 3x3 pattern
        // and a different pattern in the upper lanes of the wide word.
        for slot in 0..256u32 {
            let a = vals[(slot % 3) as usize];
            let b = vals[(slot / 3 % 3) as usize];
            wide_a.set(slot, a);
            wide_b.set(slot, b);
            if slot < 64 {
                narrow_a.set(slot, a);
                narrow_b.set(slot, b);
            }
        }
        for slot in 0..256u32 {
            let (a, b) = (wide_a.get(slot), wide_b.get(slot));
            assert_eq!(wide_a.and(wide_b).get(slot), a & b, "and slot {slot}");
            assert_eq!(wide_a.or(wide_b).get(slot), a | b, "or slot {slot}");
            assert_eq!(wide_a.xor(wide_b).get(slot), a ^ b, "xor slot {slot}");
            assert_eq!(wide_a.not().get(slot), !a, "not slot {slot}");
            if slot < 64 {
                assert_eq!(narrow_a.and(narrow_b).get(slot), wide_a.and(wide_b).get(slot));
                assert_eq!(narrow_a.xor(narrow_b).get(slot), wide_a.xor(wide_b).get(slot));
            }
        }
    }

    /// Slot-by-slot agreement with the scalar three-valued simulator, over
    /// all 9 combinations of two three-valued state variables.
    #[test]
    fn packed3_agrees_with_scalar() {
        let c = c1();
        let vals = [V3::Zero, V3::One, V3::X];
        for (pa, pb) in [(V3::One, V3::Zero), (V3::X, V3::One), (V3::Zero, V3::X)] {
            // Pack the 9 state combinations into slots 0..9.
            let mut s0 = Packed3::ALL_X;
            let mut s1 = Packed3::ALL_X;
            for (slot, (i, j)) in (0..3)
                .flat_map(|i| (0..3).map(move |j| (i, j)))
                .enumerate()
            {
                s0.set(slot as u32, vals[i]);
                s1.set(slot as u32, vals[j]);
            }
            let packed = run_packed3_frame(&c, &[pa, pb], &[s0, s1], None);
            let p_out: Vec<Packed3> = c.outputs().iter().map(|&net| packed.get(net)).collect();
            let p_next = packed3_next_state(&c, &packed, None);
            for (slot, (i, j)) in (0..3)
                .flat_map(|i| (0..3).map(move |j| (i, j)))
                .enumerate()
            {
                let frame = compute_frame(&c, &[pa, pb], &[vals[i], vals[j]], None);
                let s_out = frame_outputs(&c, &frame);
                let s_next = frame_next_state(&c, &frame, None);
                for (o, &p) in p_out.iter().enumerate() {
                    assert_eq!(p.get(slot as u32), s_out[o], "slot {slot} out {o}");
                }
                for (k, &p) in p_next.iter().enumerate() {
                    assert_eq!(p.get(slot as u32), s_next[k], "slot {slot} next {k}");
                }
            }
        }
    }

    #[test]
    fn packed3_fault_injection_agrees_with_scalar() {
        let c = c1();
        let faults = [
            Fault::stem(c.find_net("w").unwrap(), true),
            Fault::stem(c.find_net("a").unwrap(), false),
            Fault::flip_flop_input(FlipFlopId::new(1), false),
        ];
        let vals = [V3::Zero, V3::One, V3::X];
        for fault in &faults {
            let mut s0 = Packed3::ALL_X;
            let mut s1 = Packed3::ALL_X;
            for slot in 0..9u32 {
                s0.set(slot, vals[(slot % 3) as usize]);
                s1.set(slot, vals[(slot / 3) as usize]);
            }
            let packed = run_packed3_frame(&c, &[V3::One, V3::X], &[s0, s1], Some(fault));
            let p_next = packed3_next_state(&c, &packed, Some(fault));
            let p_out: Vec<Packed3> = c.outputs().iter().map(|&net| packed.get(net)).collect();
            for slot in 0..9u32 {
                let st = [vals[(slot % 3) as usize], vals[(slot / 3) as usize]];
                let frame = compute_frame(&c, &[V3::One, V3::X], &st, Some(fault));
                let s_out = frame_outputs(&c, &frame);
                let s_next = frame_next_state(&c, &frame, Some(fault));
                for (o, &p) in p_out.iter().enumerate() {
                    assert_eq!(p.get(slot), s_out[o], "{fault} slot {slot} out {o}");
                }
                for (k, &p) in p_next.iter().enumerate() {
                    assert_eq!(p.get(slot), s_next[k], "{fault} slot {slot} next {k}");
                }
            }
        }
    }

    #[test]
    fn dual_rail_invariant_is_preserved() {
        let c = c1();
        let packed = run_packed3_frame(
            &c,
            &[V3::X, V3::One],
            &[Packed3::broadcast(V3::X), Packed3::broadcast(V3::One)],
            None,
        );
        for net in c.net_ids() {
            let v = packed.get(net);
            assert_eq!(v.ones & v.zeros, 0, "net {}", c.net_name(net));
        }
    }
}
