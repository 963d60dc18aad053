//! Lazily-built, shareable cone-of-influence caches.
//!
//! Backward chaining asserts values on flip-flop data nets and resimulation
//! re-evaluates frames after changing flip-flop outputs; both only ever
//! touch the structural cone of the nets involved. A [`ConeCache`] memoizes
//! those per-flip-flop regions once per circuit so every fault — and every
//! campaign worker thread — reuses them instead of re-walking the netlist.

use std::sync::OnceLock;

use moa_analyze::ImplicationDb;
use moa_netlist::{frame_fanout_cone, Circuit, Driver, GateId, NetId};

use crate::imply::ImplyRegion;

/// Per-circuit cache of the cone-restricted gate lists used by the
/// implication engine and the differential resimulators.
///
/// All entries are built on first use ([`OnceLock`]), so the cache is cheap
/// to create and safe to share across campaign worker threads by reference.
#[derive(Debug)]
pub struct ConeCache<'a> {
    circuit: &'a Circuit,
    /// Implication region for asserting on flip-flop `i`'s data net.
    imply_regions: Vec<OnceLock<ImplyRegion>>,
    /// Gates in the within-frame fan-out cone of flip-flop `i`'s output, in
    /// topological order — the gates whose value can change when present
    /// state variable `y_i` changes.
    state_fanout: Vec<OnceLock<Vec<GateId>>>,
    /// Maps a net to the flip-flop whose data input it drives, if any.
    d_net_to_ff: Vec<Option<usize>>,
    /// Statically learned implications (`MoaOptions::static_learning`).
    learned: OnceLock<ImplicationDb>,
}

impl<'a> ConeCache<'a> {
    /// An empty cache for `circuit`; regions are built on first use.
    pub fn new(circuit: &'a Circuit) -> Self {
        let n = circuit.num_flip_flops();
        let mut d_net_to_ff = vec![None; circuit.num_nets()];
        for (i, ff) in circuit.flip_flops().iter().enumerate() {
            d_net_to_ff[ff.d().index()] = Some(i);
        }
        ConeCache {
            circuit,
            imply_regions: (0..n).map(|_| OnceLock::new()).collect(),
            state_fanout: (0..n).map(|_| OnceLock::new()).collect(),
            d_net_to_ff,
            learned: OnceLock::new(),
        }
    }

    /// The circuit the cache was built for.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// The implication region for assertions on flip-flop `ff_index`'s data
    /// net (the backward-chaining step `Y_i = α`).
    pub fn imply_region(&self, ff_index: usize) -> &ImplyRegion {
        self.imply_regions[ff_index].get_or_init(|| {
            let d = self.circuit.flip_flops()[ff_index].d();
            ImplyRegion::for_nets(self.circuit, &[d])
        })
    }

    /// The cached region when every assignment targets the same single
    /// flip-flop data net; `None` when the assignments need a fresh
    /// multi-net region (build one with [`ImplyRegion::for_nets`]).
    pub fn region_for(&self, assignments: &[(NetId, moa_logic::V3)]) -> Option<&ImplyRegion> {
        match assignments {
            [(net, _)] => self.d_net_to_ff[net.index()].map(|ff| self.imply_region(ff)),
            _ => None,
        }
    }

    /// Topologically-ordered gates whose output lies in the within-frame
    /// fan-out cone of flip-flop `ff_index`'s output net — exactly the gates
    /// that can change value when `y_i` does.
    pub fn state_fanout(&self, ff_index: usize) -> &[GateId] {
        self.state_fanout[ff_index].get_or_init(|| {
            let q = self.circuit.flip_flops()[ff_index].q();
            let mut in_cone = vec![false; self.circuit.num_nets()];
            for n in frame_fanout_cone(self.circuit, &[q]) {
                in_cone[n.index()] = true;
            }
            self.circuit
                .topo_order()
                .iter()
                .copied()
                .filter(|&gid| in_cone[self.circuit.gate(gid).output().index()])
                .collect()
        })
    }

    /// The flip-flop whose data input `net` drives, if any.
    pub fn ff_of_d_net(&self, net: NetId) -> Option<usize> {
        self.d_net_to_ff[net.index()]
    }

    /// The statically learned implication database, built (once per circuit)
    /// on first use and shared across campaign worker threads. Only
    /// consulted when `MoaOptions::static_learning` is enabled.
    pub fn learned_db(&self) -> &ImplicationDb {
        self.learned
            .get_or_init(|| ImplicationDb::build(self.circuit))
    }
}

/// Marks (in `marked`, a per-gate flag vector) the gates of
/// `cache.state_fanout(i)` for every flip-flop index yielded by `ffs`, and
/// returns the marked gates in topological order via `order`. Buffers are
/// caller-owned so frame loops can reuse them.
pub(crate) fn union_state_fanout(
    cache: &ConeCache<'_>,
    ffs: impl Iterator<Item = usize>,
    marked: &mut Vec<bool>,
    order: &mut Vec<GateId>,
) {
    let circuit = cache.circuit();
    marked.clear();
    marked.resize(circuit.num_gates(), false);
    order.clear();
    for ff in ffs {
        for &gid in cache.state_fanout(ff) {
            marked[gid.index()] = true;
        }
    }
    // topo_order is a permutation of all gates; filtering it preserves
    // topological order for the union.
    order.extend(
        circuit
            .topo_order()
            .iter()
            .copied()
            .filter(|&gid| marked[gid.index()]),
    );
}

/// `true` if `net` is driven by a gate (as opposed to a primary input or a
/// flip-flop output) — used by resimulators to decide what may be overlaid.
#[allow(dead_code)]
pub(crate) fn gate_driven(circuit: &Circuit, net: NetId) -> bool {
    matches!(circuit.driver(net), Driver::Gate(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::GateKind;
    use moa_netlist::CircuitBuilder;

    fn c1() -> Circuit {
        let mut b = CircuitBuilder::new("cones");
        b.add_input("a").unwrap();
        b.add_flip_flop("q0", "d0").unwrap();
        b.add_flip_flop("q1", "d1").unwrap();
        b.add_gate(GateKind::And, "w", &["a", "q0"]).unwrap();
        b.add_gate(GateKind::Or, "d0", &["w", "q1"]).unwrap();
        b.add_gate(GateKind::Not, "d1", &["q1"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["w"]).unwrap();
        b.add_output("z");
        b.finish().unwrap()
    }

    #[test]
    fn state_fanout_is_topological_and_bounded() {
        let c = c1();
        let cache = ConeCache::new(&c);
        // q1 feeds d0 (via OR) and d1 (via NOT) but never w or z.
        let names: Vec<&str> = cache
            .state_fanout(1)
            .iter()
            .map(|&g| c.net_name(c.gate(g).output()))
            .collect();
        assert!(names.contains(&"d0"));
        assert!(names.contains(&"d1"));
        assert!(!names.contains(&"w"));
        assert!(!names.contains(&"z"));
        // q0 reaches w, z and d0 but not d1.
        let names0: Vec<&str> = cache
            .state_fanout(0)
            .iter()
            .map(|&g| c.net_name(c.gate(g).output()))
            .collect();
        assert!(names0.contains(&"w"));
        assert!(!names0.contains(&"d1"));
    }

    #[test]
    fn region_for_resolves_single_d_net_assignments() {
        let c = c1();
        let cache = ConeCache::new(&c);
        let d0 = c.find_net("d0").unwrap();
        let w = c.find_net("w").unwrap();
        assert!(cache.region_for(&[(d0, moa_logic::V3::One)]).is_some());
        assert!(cache.region_for(&[(w, moa_logic::V3::One)]).is_none());
        assert!(cache
            .region_for(&[(d0, moa_logic::V3::One), (d0, moa_logic::V3::One)])
            .is_none());
        assert_eq!(cache.ff_of_d_net(d0), Some(0));
        assert_eq!(cache.ff_of_d_net(w), None);
    }

    #[test]
    fn union_state_fanout_merges_in_topo_order() {
        let c = c1();
        let cache = ConeCache::new(&c);
        let mut marked = Vec::new();
        let mut order = Vec::new();
        union_state_fanout(&cache, [0usize, 1].into_iter(), &mut marked, &mut order);
        // Union of both cones covers every gate; order must match topo order.
        let topo: Vec<GateId> = c
            .topo_order()
            .iter()
            .copied()
            .filter(|&g| marked[g.index()])
            .collect();
        assert_eq!(order, topo);
        assert_eq!(order.len(), c.num_gates());
        // Reuse with a smaller set shrinks the list.
        union_state_fanout(&cache, std::iter::once(1usize), &mut marked, &mut order);
        assert!(order.len() < c.num_gates());
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let c = c1();
        let cache = ConeCache::new(&c);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    assert!(cache.imply_region(0).num_gates() > 0);
                    assert!(!cache.state_fanout(1).is_empty());
                });
            }
        });
    }
}
