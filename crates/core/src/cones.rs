//! Lazily-built, shareable cone-of-influence caches.
//!
//! Backward chaining asserts values on flip-flop data nets and only ever
//! touches the structural cone of the nets involved. A [`ConeCache`]
//! memoizes those per-flip-flop regions once per circuit so every fault —
//! and every campaign worker thread — reuses them instead of re-walking the
//! netlist.

use std::sync::OnceLock;

use moa_analyze::ImplicationDb;
use moa_netlist::{Circuit, NetId};

use crate::imply::ImplyRegion;

/// Per-circuit cache of the cone-restricted implication regions used by the
/// implication engine, plus the statically learned implications.
///
/// All entries are built on first use ([`OnceLock`]), so the cache is cheap
/// to create and safe to share across campaign worker threads by reference.
#[derive(Debug)]
pub struct ConeCache<'a> {
    circuit: &'a Circuit,
    /// Implication region for asserting on flip-flop `i`'s data net.
    imply_regions: Vec<OnceLock<ImplyRegion>>,
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
            d_net_to_ff,
            learned: OnceLock::new(),
        }
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
    fn cache_is_shareable_across_threads() {
        let c = c1();
        let cache = ConeCache::new(&c);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    assert!(cache.imply_region(0).num_gates() > 0);
                    assert!(cache.imply_region(1).num_gates() > 0);
                });
            }
        });
    }
}
