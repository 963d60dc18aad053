//! Structural equivalence collapsing of stuck-at faults.
//!
//! Two faults are *equivalent* when every test detecting one detects the
//! other. The classic gate-local rules are applied:
//!
//! - AND/NAND: any input stuck-at-0 ≡ output stuck-at-(0 ⊕ inversion),
//! - OR/NOR: any input stuck-at-1 ≡ output stuck-at-(1 ⊕ inversion),
//! - NOT/BUF: input stuck-at-v ≡ output stuck-at-(v ⊕ inversion),
//!
//! where the "input fault" is the branch fault of the pin when the source net
//! has fan-out, and the source net's stem fault otherwise. XOR/XNOR gates
//! contribute no structural equivalences.

use std::collections::HashMap;

use moa_logic::GateKind;

use crate::{Circuit, Fault, GateId};

/// The result of [`collapse_faults`]: equivalence classes over the input
/// fault list and one representative per class.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    representatives: Vec<Fault>,
    classes: Vec<Vec<Fault>>,
    class_index: HashMap<Fault, usize>,
}

impl CollapsedFaults {
    /// One representative fault per equivalence class, in a deterministic
    /// order (the smallest member of each class, classes ordered by their
    /// representative).
    pub fn representatives(&self) -> &[Fault] {
        &self.representatives
    }

    /// Number of equivalence classes (the collapsed fault count).
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// `true` if the input fault list was empty.
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// All members of the class containing `fault`, if `fault` was in the
    /// input list.
    pub fn class_of(&self, fault: Fault) -> Option<&[Fault]> {
        self.class_index
            .get(&fault)
            .map(|&i| self.classes[i].as_slice())
    }

    /// The representative of `fault`'s class.
    pub fn representative_of(&self, fault: Fault) -> Option<Fault> {
        self.class_index.get(&fault).map(|&i| self.classes[i][0])
    }

    /// The position of `fault`'s class, which is also the position of its
    /// representative in [`representatives`](Self::representatives).
    pub fn class_index(&self, fault: Fault) -> Option<usize> {
        self.class_index.get(&fault).copied()
    }
}

/// Collapses `faults` into structural equivalence classes for `circuit`.
///
/// Faults in `faults` that are equivalent by the gate-local rules above end up
/// in the same class; rules referencing faults missing from `faults` are
/// ignored (so collapsing a partial fault list is safe).
///
/// # Example
///
/// ```
/// use moa_netlist::{collapse_faults, full_fault_list, parse_bench};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")?;
/// let full = full_fault_list(&c);
/// let collapsed = collapse_faults(&c, &full);
/// // a/sa0 ≡ b/sa0 ≡ z/sa0 collapse into one class: 6 faults → 4 classes.
/// assert_eq!(full.len(), 6);
/// assert_eq!(collapsed.len(), 4);
/// # Ok::<(), moa_netlist::NetlistError>(())
/// ```
pub fn collapse_faults(circuit: &Circuit, faults: &[Fault]) -> CollapsedFaults {
    let index: HashMap<Fault, usize> = faults
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i))
        .collect();
    let mut dsu = Dsu::new(faults.len());

    let union = |dsu: &mut Dsu, a: Fault, b: Fault| {
        if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
            dsu.union(ia, ib);
        }
    };

    for (gi, gate) in circuit.gates().iter().enumerate() {
        let gid = GateId::new(gi);
        let out = gate.output();
        // The fault actually seen at a pin: the branch fault when the source
        // net fans out, the stem fault otherwise.
        let pin_fault = |pin: usize, stuck: bool| {
            let src = gate.inputs()[pin];
            if circuit.fanout_count(src) > 1 {
                Fault::gate_input(gid, pin, stuck)
            } else {
                Fault::stem(src, stuck)
            }
        };
        match gate.kind() {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let c = gate
                    .kind()
                    .controlling_value()
                    .expect("AND/OR family has a controlling value");
                let out_fault = Fault::stem(out, c ^ gate.kind().inverting());
                for pin in 0..gate.inputs().len() {
                    union(&mut dsu, pin_fault(pin, c), out_fault);
                }
            }
            GateKind::Not | GateKind::Buf => {
                for v in [false, true] {
                    union(
                        &mut dsu,
                        pin_fault(0, v),
                        Fault::stem(out, v ^ gate.kind().inverting()),
                    );
                }
            }
            GateKind::Xor | GateKind::Xnor => {}
        }
    }

    // Group by root, sort members, order classes by representative.
    let mut groups: HashMap<usize, Vec<Fault>> = HashMap::new();
    for (i, &f) in faults.iter().enumerate() {
        groups.entry(dsu.find(i)).or_default().push(f);
    }
    let mut classes: Vec<Vec<Fault>> = groups.into_values().collect();
    for class in &mut classes {
        class.sort_unstable();
    }
    classes.sort_unstable_by(|a, b| a[0].cmp(&b[0]));

    let representatives = classes.iter().map(|c| c[0]).collect();
    let mut class_index = HashMap::new();
    for (i, class) in classes.iter().enumerate() {
        for &f in class {
            class_index.insert(f, i);
        }
    }
    CollapsedFaults {
        representatives,
        classes,
        class_index,
    }
}

/// Small union-find.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{full_fault_list, CircuitBuilder};

    #[test]
    fn inverter_chain_collapses_fully() {
        let mut b = CircuitBuilder::new("chain");
        b.add_input("a").unwrap();
        b.add_gate(GateKind::Not, "w", &["a"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["w"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let full = full_fault_list(&c);
        // 3 nets × 2 = 6 faults, all equivalent pairwise through the chain:
        // a/sa0 ≡ w/sa1 ≡ z/sa0 and a/sa1 ≡ w/sa0 ≡ z/sa1 → 2 classes.
        let collapsed = collapse_faults(&c, &full);
        assert_eq!(collapsed.len(), 2);
        let a0 = Fault::stem(c.find_net("a").unwrap(), false);
        let z0 = Fault::stem(c.find_net("z").unwrap(), false);
        assert_eq!(
            collapsed.representative_of(a0),
            collapsed.representative_of(z0)
        );
    }

    #[test]
    fn xor_does_not_collapse() {
        let mut b = CircuitBuilder::new("x");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate(GateKind::Xor, "z", &["a", "b"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let full = full_fault_list(&c);
        let collapsed = collapse_faults(&c, &full);
        assert_eq!(collapsed.len(), full.len());
    }

    #[test]
    fn branch_faults_collapse_into_gate_not_stem() {
        let mut b = CircuitBuilder::new("f");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate(GateKind::And, "u", &["a", "b"]).unwrap();
        b.add_gate(GateKind::Or, "v", &["a", "b"]).unwrap();
        b.add_output("u");
        b.add_output("v");
        let c = b.finish().unwrap();
        let full = full_fault_list(&c);
        let collapsed = collapse_faults(&c, &full);
        // a's branch into the AND (pin 0) s-a-0 ≡ u s-a-0, but a's *stem*
        // s-a-0 is NOT equivalent to u s-a-0 (it also affects v).
        let branch = Fault::gate_input(GateId::new(0), 0, false);
        let u0 = Fault::stem(c.find_net("u").unwrap(), false);
        let a0 = Fault::stem(c.find_net("a").unwrap(), false);
        assert_eq!(
            collapsed.representative_of(branch),
            collapsed.representative_of(u0)
        );
        assert_ne!(
            collapsed.representative_of(a0),
            collapsed.representative_of(u0)
        );
    }

    #[test]
    fn partial_list_keeps_missing_partners_out() {
        // Only z's two faults are listed: their equivalence partners on the
        // AND inputs are absent, so each stays its own representative.
        let mut b = CircuitBuilder::new("partial");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate(GateKind::And, "z", &["a", "b"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let z = c.find_net("z").unwrap();
        let partial = [Fault::stem(z, false), Fault::stem(z, true)];
        let collapsed = collapse_faults(&c, &partial);
        assert_eq!(collapsed.len(), 2);
        for f in partial {
            assert_eq!(collapsed.representative_of(f), Some(f));
            assert_eq!(collapsed.class_of(f), Some(&[f][..]));
            let index = collapsed.class_index(f).unwrap();
            assert_eq!(collapsed.representatives()[index], f);
        }
        let a0 = Fault::stem(c.find_net("a").unwrap(), false);
        assert_eq!(collapsed.representative_of(a0), None, "unlisted faults have no class");
        assert_eq!(collapsed.class_index(a0), None);
    }

    #[test]
    fn classes_partition_the_input() {
        let mut b = CircuitBuilder::new("p");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate(GateKind::Nand, "u", &["a", "b"]).unwrap();
        b.add_gate(GateKind::Nor, "z", &["u", "b"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let full = full_fault_list(&c);
        let collapsed = collapse_faults(&c, &full);
        let total: usize = full
            .iter()
            .map(|&f| collapsed.class_of(f).unwrap().len())
            .sum::<usize>();
        // Every fault is in exactly one class; summing class sizes over all
        // faults counts each class size² — instead check membership directly.
        assert!(total >= full.len());
        let mut seen = std::collections::HashSet::new();
        for &f in &full {
            let rep = collapsed.representative_of(f).unwrap();
            seen.insert(rep);
            assert!(collapsed.class_of(f).unwrap().contains(&f));
        }
        assert_eq!(seen.len(), collapsed.len());
        assert!(!collapsed.is_empty());
    }
}
