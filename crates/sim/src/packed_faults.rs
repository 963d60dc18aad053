//! Parallel-fault screening: one *distinct* fault per bit lane.
//!
//! Each bit lane of a dual-rail word ([`PackedV3`]) carries a *different*
//! faulty machine under the *same* input sequence and the same all-`X`
//! initial state, so one pass over the sequence conventionally screens a
//! whole word of faults at the cost of roughly one scalar simulation. The
//! campaign uses it as a pre-pass that detects and drops faults in batches
//! before the expensive per-fault MOA procedure runs.
//! The same pass also decides the paper's necessary condition (C) for every
//! fault it leaves undetected ([`ScreenOutcome::condition_c`]), so the
//! campaign drops the (C) failures too and builds a per-fault scalar trace
//! only for the faults that go on to backward implications.
//!
//! The kernel is generic over the [`Word`] carrying the lanes: `u64` packs
//! 64 faults per word (the original configuration, kept verbatim behind
//! [`screen_faults`] and [`SCREEN_LANES`]), `[u64; 2]` packs 128 and
//! `[u64; 4]` packs 256. A wider word amortizes the per-gate bookkeeping of
//! a kernel pass — topological iteration, mask lookups, output scanning —
//! over more faults, and its block operations auto-vectorize. On top of the
//! lane axis, [`screen_faults_wide`] adds a thread axis: pending faults are
//! chunked into word-sized batches, the batches are partitioned across
//! worker threads (each with its own scratch buffers), and the per-batch
//! results are merged positionally. Because every lane's verdict depends
//! only on its own fault (lanes never interact, and batch membership is a
//! pure function of fault-list order and lane width), the merged verdicts
//! are bit-identical for every lane width and thread count — the tests
//! assert this against the scalar simulation fault by fault.
//!
//! Fault injection is expressed as per-lane masks. For a net whose lane-`k`
//! fault pins it to 1 (`f1` mask bit) or 0 (`f0` mask bit), every write of a
//! dual-rail value `v` to that net is filtered through
//!
//! ```text
//! m = f1 | f0
//! v.ones  = (v.ones  & !m) | f1
//! v.zeros = (v.zeros & !m) | f0
//! ```
//!
//! which leaves all healthy lanes untouched. Because every dual-rail gate
//! operation is lane-wise (lane columns never interact), lane `k` of the
//! packed run is exactly the scalar three-valued simulation of fault `k`'s
//! machine — the verdicts are bit-identical to [`conventional_detection`] on
//! a scalar [`simulate`](crate::simulate) trace, which the tests assert
//! fault by fault.
//!
//! [`conventional_detection`]: crate::conventional_detection

use moa_logic::{GateKind, V3};
use moa_netlist::{Circuit, Fault, FaultSite};

use crate::conventional::Detection;
use crate::packed3::{PackedV3, PackedV3Values};
use crate::sequence::TestSequence;
use crate::trace::SimTrace;
use crate::word::Word;

/// The number of faults screened per `u64` packed word — the width of the
/// default [`screen_faults`] kernel. Wider kernels screen
/// [`ScreenLanes::lanes`] faults per word.
pub const SCREEN_LANES: usize = 64;

/// The lane widths the screening kernel instantiates at.
///
/// Only these three widths exist: each is a monomorphized kernel over one
/// machine-word shape (`u64`, `[u64; 2]`, `[u64; 4]`). The width is an
/// execution knob, never a semantic one — verdicts are bit-identical across
/// all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScreenLanes {
    /// 64 faults per word (`u64`) — the original kernel.
    #[default]
    L64,
    /// 128 faults per word (`[u64; 2]`).
    L128,
    /// 256 faults per word (`[u64; 4]`).
    L256,
}

impl ScreenLanes {
    /// Every instantiated width, narrowest first.
    pub const ALL: [ScreenLanes; 3] = [ScreenLanes::L64, ScreenLanes::L128, ScreenLanes::L256];

    /// The number of faults per word.
    pub const fn lanes(self) -> usize {
        match self {
            ScreenLanes::L64 => 64,
            ScreenLanes::L128 => 128,
            ScreenLanes::L256 => 256,
        }
    }

    /// The width screening `lanes` faults per word, if instantiated.
    pub const fn from_lanes(lanes: usize) -> Option<ScreenLanes> {
        match lanes {
            64 => Some(ScreenLanes::L64),
            128 => Some(ScreenLanes::L128),
            256 => Some(ScreenLanes::L256),
            _ => None,
        }
    }
}

impl std::fmt::Display for ScreenLanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.lanes())
    }
}

/// Per-lane dual-rail stuck masks: lane `k` of `ones` pins slot `k` to 1,
/// lane `k` of `zeros` pins it to 0.
#[derive(Debug, Clone, Copy, Default)]
struct StuckMask<W: Word> {
    ones: W,
    zeros: W,
}

impl<W: Word> StuckMask<W> {
    #[inline]
    fn add(&mut self, slot: usize, stuck: bool) {
        if stuck {
            self.ones.set_lane(slot);
        } else {
            self.zeros.set_lane(slot);
        }
    }

    /// Filters a written value through the stuck lanes.
    #[inline]
    fn apply(self, v: PackedV3<W>) -> PackedV3<W> {
        let m = self.ones.or(self.zeros);
        PackedV3 {
            ones: v.ones.and_not(m).or(self.ones),
            zeros: v.zeros.and_not(m).or(self.zeros),
        }
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.ones.or(self.zeros).is_zero()
    }
}

/// A branch (gate-input) fault's per-lane mask, applied to the pin's *view*
/// of its net without disturbing the net itself.
#[derive(Debug, Clone, Copy)]
struct BranchMask<W: Word> {
    gate: usize,
    pin: usize,
    mask: StuckMask<W>,
}

/// Up to `W::LANES` distinct faults compiled into per-lane injection masks
/// over one circuit. The default word keeps the original 64-fault shape.
#[derive(Debug, Clone)]
pub struct FaultBatch<W: Word = u64> {
    /// Number of occupied slots.
    width: usize,
    /// Per-net stem masks, applied after every write to the net.
    stem: Vec<StuckMask<W>>,
    /// Nets with a nonempty stem mask (fast guard: at most `W::LANES` nets
    /// are faulted per batch, so almost every write skips the mask loads).
    stem_active: Vec<bool>,
    /// Gates with at least one branch-faulted input pin (fast guard).
    has_branch: Vec<bool>,
    /// Sparse branch-fault masks.
    branches: Vec<BranchMask<W>>,
    /// Per-flip-flop input masks, applied when the next state is read.
    ff_input: Vec<StuckMask<W>>,
}

impl<W: Word> FaultBatch<W> {
    /// Compiles `faults` (at most `W::LANES`) into lane masks; fault `k`
    /// occupies bit lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if more than `W::LANES` faults are given or a fault references
    /// a net/gate/flip-flop outside `circuit`.
    pub fn new(circuit: &Circuit, faults: &[Fault]) -> Self {
        assert!(
            faults.len() <= W::LANES,
            "at most {} faults per batch (got {})",
            W::LANES,
            faults.len()
        );
        let mut batch = FaultBatch {
            width: faults.len(),
            stem: vec![StuckMask::default(); circuit.num_nets()],
            stem_active: vec![false; circuit.num_nets()],
            has_branch: vec![false; circuit.num_gates()],
            branches: Vec::new(),
            ff_input: vec![StuckMask::default(); circuit.num_flip_flops()],
        };
        for (slot, fault) in faults.iter().enumerate() {
            match fault.site {
                FaultSite::Net(net) => {
                    batch.stem[net.index()].add(slot, fault.stuck);
                    batch.stem_active[net.index()] = true;
                }
                FaultSite::GateInput { gate, pin } => {
                    assert!(
                        pin < circuit.gate(gate).inputs().len(),
                        "branch fault pin out of range"
                    );
                    batch.has_branch[gate.index()] = true;
                    let existing = batch
                        .branches
                        .iter_mut()
                        .find(|b| b.gate == gate.index() && b.pin == pin);
                    if let Some(b) = existing { b.mask.add(slot, fault.stuck) } else {
                        let mut mask = StuckMask::default();
                        mask.add(slot, fault.stuck);
                        batch.branches.push(BranchMask {
                            gate: gate.index(),
                            pin,
                            mask,
                        });
                    }
                }
                FaultSite::FlipFlopInput(ff) => {
                    batch.ff_input[ff.index()].add(slot, fault.stuck);
                }
            }
        }
        batch
    }

    /// Number of faults in the batch.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mask with one bit per occupied slot.
    pub fn valid_mask(&self) -> W {
        W::low_mask(self.width)
    }

    /// The branch mask for a pin, if any (slow path behind `has_branch`).
    #[inline]
    fn branch_mask(&self, gate: usize, pin: usize) -> Option<StuckMask<W>> {
        self.branches
            .iter()
            .find(|b| b.gate == gate && b.pin == pin)
            .map(|b| b.mask)
    }

    /// Applies the stem mask of `net` to a freshly computed value —
    /// a one-byte guard load on the (overwhelmingly common) unfaulted nets.
    #[inline]
    fn stem_filter(&self, net: usize, v: PackedV3<W>) -> PackedV3<W> {
        if self.stem_active[net] {
            self.stem[net].apply(v)
        } else {
            v
        }
    }

    /// Evaluates one time frame with every lane's own fault injected, into a
    /// caller-owned scratch frame (reset here — callers only provide the
    /// allocation).
    ///
    /// Mirrors [`compute_frame`](crate::compute_frame): primary inputs are
    /// broadcast from `pattern`, present state comes from `present_state` per
    /// lane, and every net write passes through that net's stem mask.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` or `present_state` have the wrong length.
    pub fn run_frame_into(
        &self,
        circuit: &Circuit,
        pattern: &[V3],
        present_state: &[PackedV3<W>],
        values: &mut PackedV3Values<W>,
    ) {
        assert_eq!(pattern.len(), circuit.num_inputs(), "pattern length");
        assert_eq!(
            present_state.len(),
            circuit.num_flip_flops(),
            "present-state length"
        );

        values.reset(circuit);
        for (i, &net) in circuit.inputs().iter().enumerate() {
            values.set(
                net,
                self.stem_filter(net.index(), PackedV3::broadcast(pattern[i])),
            );
        }
        for (i, ff) in circuit.flip_flops().iter().enumerate() {
            values.set(ff.q(), self.stem_filter(ff.q().index(), present_state[i]));
        }

        for &gid in circuit.topo_order() {
            let gate = circuit.gate(gid);
            let branched = self.has_branch[gid.index()];
            let pin = |pin_index: usize| -> PackedV3<W> {
                let v = values.get(gate.inputs()[pin_index]);
                if branched {
                    if let Some(mask) = self.branch_mask(gid.index(), pin_index) {
                        return mask.apply(v);
                    }
                }
                v
            };
            let n = gate.inputs().len();
            let mut out = pin(0);
            match gate.kind() {
                GateKind::And | GateKind::Nand => {
                    for i in 1..n {
                        out = out & pin(i);
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    for i in 1..n {
                        out = out | pin(i);
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    for i in 1..n {
                        out = out ^ pin(i);
                    }
                }
                GateKind::Not | GateKind::Buf => {}
            }
            if gate.kind().inverting() {
                out = !out;
            }
            values.set(
                gate.output(),
                self.stem_filter(gate.output().index(), out),
            );
        }
    }

    /// Evaluates one time frame, allocating a fresh frame of values.
    pub fn run_frame(
        &self,
        circuit: &Circuit,
        pattern: &[V3],
        present_state: &[PackedV3<W>],
    ) -> PackedV3Values<W> {
        let mut values = PackedV3Values::new(circuit);
        self.run_frame_into(circuit, pattern, present_state, &mut values);
        values
    }

    /// Reads the packed next state, applying flip-flop-input masks.
    pub fn next_state_into(
        &self,
        circuit: &Circuit,
        values: &PackedV3Values<W>,
        state: &mut [PackedV3<W>],
    ) {
        for (i, ff) in circuit.flip_flops().iter().enumerate() {
            let v = values.get(ff.d());
            state[i] = if self.ff_input[i].is_empty() {
                v
            } else {
                self.ff_input[i].apply(v)
            };
        }
    }
}

/// The result of screening a fault list against one test sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenOutcome {
    /// Per fault (in input order), the earliest conventional detection —
    /// bit-identical to `conventional_detection(good, &simulate(..))`.
    pub detections: Vec<Option<Detection>>,
    /// Per fault (in input order), whether the paper's necessary condition
    /// (C) holds for a fault the screen leaves undetected: some time unit
    /// `u` has `N_sv(u) > 0` and `N_out(u) > 0` on its scalar faulty trace.
    /// Every lane starts from the all-`X` state, so `N_sv(0)` is the
    /// flip-flop count, and `N_out` is a suffix sum, so `N_out(u) > 0`
    /// implies `N_out(0) > 0`. (C) therefore holds exactly when the circuit
    /// has a flip-flop and some output, at some frame, is specified in the
    /// good machine and `X` in the faulty one — which the kernel tracks
    /// with one word operation per good-specified output per frame.
    /// Always `false` for a detected fault: its detection decides it.
    pub condition_c: Vec<bool>,
    /// Packed gate-word evaluations spent: one per gate per frame per
    /// *word pass*, regardless of lane width (see
    /// `moa_core::PerfCounters::gate_evals` for the convention). A wider
    /// word does the same screening in fewer passes and therefore reports
    /// proportionally fewer evaluations for the same fault list.
    pub gate_evaluations: u64,
}

impl ScreenOutcome {
    fn with_capacity(faults: usize) -> Self {
        ScreenOutcome {
            detections: Vec::with_capacity(faults),
            condition_c: Vec::with_capacity(faults),
            gate_evaluations: 0,
        }
    }

    /// Appends `other`'s faults after this outcome's.
    fn append(&mut self, other: ScreenOutcome) {
        self.detections.extend(other.detections);
        self.condition_c.extend(other.condition_c);
        self.gate_evaluations += other.gate_evaluations;
    }
}

/// Screens one word-sized chunk of faults from the all-`X` initial state,
/// appending its verdicts to `outcome` and reusing the caller's scratch
/// buffers across frames.
fn screen_chunk<W: Word>(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    chunk: &[Fault],
    state: &mut Vec<PackedV3<W>>,
    values: &mut PackedV3Values<W>,
    outcome: &mut ScreenOutcome,
) {
    let batch = FaultBatch::<W>::new(circuit, chunk);
    let valid = batch.valid_mask();
    let first = outcome.detections.len();
    outcome.detections.resize(first + chunk.len(), None);
    let detections = &mut outcome.detections[first..];
    let mut resolved = W::ZERO;
    // Lanes that have shown a recoverable output: specified in the good
    // machine, `X` in the faulty one.
    let mut recoverable = W::ZERO;
    state.clear();
    state.resize(circuit.num_flip_flops(), PackedV3::ALL_X);
    for u in 0..seq.len() {
        if resolved == valid {
            break;
        }
        batch.run_frame_into(circuit, seq.pattern(u), state, values);
        outcome.gate_evaluations += circuit.num_gates() as u64;
        // Scan outputs in ascending order so each lane records the same
        // earliest (time, output) conflict as the scalar path.
        for (o, &net) in circuit.outputs().iter().enumerate() {
            let Some(expected) = good.outputs[u][o].to_bool() else {
                continue;
            };
            let out = values.get(net);
            let mismatch = if expected { out.zeros } else { out.ones };
            let newly = mismatch.and(valid).and_not(resolved);
            resolved = resolved.or(newly);
            newly.for_each_set_lane(|slot| {
                detections[slot] = Some(Detection { time: u, output: o });
            });
            recoverable = recoverable.or(out.ones.or(out.zeros).not());
        }
        batch.next_state_into(circuit, values, state);
    }
    // The chunk stops early only once every lane is detected, so an
    // undetected lane has seen every frame and its bit is exact.
    let passes = if circuit.num_flip_flops() > 0 {
        recoverable.and_not(resolved)
    } else {
        W::ZERO
    };
    outcome
        .condition_c
        .extend((0..chunk.len()).map(|slot| passes.test_lane(slot)));
}

/// Conventionally screens `faults` a word at a time from the all-`X` initial
/// state, returning each fault's earliest conventional [`Detection`] and its
/// condition-(C) bit — generic driver shared by every lane width.
fn screen_faults_generic<W: Word>(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    threads: usize,
) -> ScreenOutcome {
    assert_eq!(good.outputs.len(), seq.len(), "good trace length");
    let chunks: Vec<&[Fault]> = faults.chunks(W::LANES).collect();
    // Spawning a scoped worker costs more than screening a word-sized batch
    // on a small circuit, so never hand a worker fewer than two chunks —
    // short fault lists stay on the calling thread. Verdicts are unaffected:
    // the partition never changes what any chunk computes.
    let threads = threads.max(1).min((chunks.len() / 2).max(1));
    let mut outcome = ScreenOutcome::with_capacity(faults.len());
    if threads <= 1 {
        let mut state = Vec::new();
        let mut values = PackedV3Values::<W>::new(circuit);
        for chunk in chunks {
            screen_chunk(
                circuit,
                seq,
                good,
                chunk,
                &mut state,
                &mut values,
                &mut outcome,
            );
        }
        return outcome;
    }

    // Thread axis: contiguous ranges of chunks per worker, each worker
    // reusing its own scratch across its chunks. Chunk membership is a pure
    // function of fault order and lane width — the partition never affects
    // what any chunk computes — and the results are merged back positionally
    // (chunk-major, then lane order), so the outcome is bit-identical to the
    // single-threaded pass for every thread count.
    let per_worker = chunks.len().div_ceil(threads);
    let parts: Vec<ScreenOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .chunks(per_worker)
            .map(|mine| {
                scope.spawn(move || {
                    let mut state = Vec::new();
                    let mut values = PackedV3Values::<W>::new(circuit);
                    let mut part = ScreenOutcome::with_capacity(mine.len() * W::LANES);
                    for chunk in mine {
                        screen_chunk(
                            circuit,
                            seq,
                            good,
                            chunk,
                            &mut state,
                            &mut values,
                            &mut part,
                        );
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("screening worker panicked"))
            .collect()
    });
    for part in parts {
        outcome.append(part);
    }
    outcome
}

/// Conventionally screens `faults` 64 at a time from the all-`X` initial
/// state, returning each fault's earliest conventional [`Detection`] and
/// its condition-(C) bit — the original single-threaded `u64` kernel.
///
/// `good` must be the fault-free trace of `seq` (`simulate(circuit, seq,
/// None)`). A batch stops early once every slot has resolved; verdicts are
/// unaffected because a detection records only the *earliest* conflict.
///
/// # Panics
///
/// Panics if `good` does not have one output frame per pattern of `seq`.
pub fn screen_faults(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
) -> ScreenOutcome {
    screen_faults_generic::<u64>(circuit, seq, good, faults, 1)
}

/// Conventionally screens `faults` with the kernel instantiated at `lanes`
/// faults per word, partitioning the word-sized batches across `threads`
/// worker threads (`0` or `1` runs on the calling thread; the count is
/// capped at the number of batches).
///
/// The detections and condition-(C) bits are bit-identical to
/// [`screen_faults`]' — and therefore to the scalar conventional simulation
/// — for every `(lanes, threads)` pair; only the wall time and the per-pass
/// gate-evaluation charge differ. See the module docs for why.
///
/// # Panics
///
/// Panics if `good` does not have one output frame per pattern of `seq`.
pub fn screen_faults_wide(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    faults: &[Fault],
    lanes: ScreenLanes,
    threads: usize,
) -> ScreenOutcome {
    match lanes {
        ScreenLanes::L64 => screen_faults_generic::<u64>(circuit, seq, good, faults, threads),
        ScreenLanes::L128 => {
            screen_faults_generic::<[u64; 2]>(circuit, seq, good, faults, threads)
        }
        ScreenLanes::L256 => {
            screen_faults_generic::<[u64; 4]>(circuit, seq, good, faults, threads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::conventional_detection;
    use crate::trace::simulate;
    use moa_netlist::{full_fault_list, CircuitBuilder};

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

    /// The paper's condition (C) on a scalar faulty trace, spelled out: some
    /// time unit `u` has `N_sv(u) > 0` and `N_out(u) > 0`, where `N_out(u)`
    /// counts the outputs at or after `u` that are specified in the good
    /// machine and `X` in the faulty one.
    fn scalar_condition_c(good: &SimTrace, faulty: &SimTrace) -> bool {
        let recoverable = |t: usize| {
            good.outputs[t]
                .iter()
                .zip(&faulty.outputs[t])
                .any(|(g, f)| g.is_specified() && !f.is_specified())
        };
        (0..=good.len())
            .any(|u| faulty.num_unspecified_state_vars(u) > 0 && (u..good.len()).any(recoverable))
    }

    fn assert_screen_matches_scalar(circuit: &Circuit, seq: &TestSequence) {
        let good = simulate(circuit, seq, None);
        let faults = full_fault_list(circuit);
        let outcome = screen_faults(circuit, seq, &good, &faults);
        assert_eq!(outcome.detections.len(), faults.len());
        assert_eq!(outcome.condition_c.len(), faults.len());
        for ((fault, packed), &holds) in faults
            .iter()
            .zip(&outcome.detections)
            .zip(&outcome.condition_c)
        {
            let faulty = simulate(circuit, seq, Some(fault));
            let scalar = conventional_detection(&good, &faulty);
            assert_eq!(
                *packed,
                scalar,
                "{} under {:?}",
                fault.describe(circuit),
                seq
            );
            let expected = scalar.is_none() && scalar_condition_c(&good, &faulty);
            assert_eq!(
                holds,
                expected,
                "condition (C) of {} under {:?}",
                fault.describe(circuit),
                seq
            );
        }
    }

    /// Every stem, branch, and flip-flop-input fault of the test circuit
    /// screens to exactly the scalar conventional verdict.
    #[test]
    fn screen_matches_scalar_for_every_fault() {
        let c = c1();
        let seq = TestSequence::from_words(&["10", "01", "11", "00", "1X", "X1"]).unwrap();
        assert_screen_matches_scalar(&c, &seq);
    }

    /// More faults than one word: the chunked driver covers every slot.
    #[test]
    fn chunking_covers_more_than_64_faults() {
        let c = c1();
        let seq = TestSequence::from_words(&["10", "01", "11"]).unwrap();
        let good = simulate(&c, &seq, None);
        // 5x the fault list: 70 faults, two chunks, duplicates must agree.
        let base = full_fault_list(&c);
        let mut faults = Vec::new();
        for _ in 0..5 {
            faults.extend(base.iter().copied());
        }
        let outcome = screen_faults(&c, &seq, &good, &faults);
        assert!(faults.len() > SCREEN_LANES);
        assert_eq!(outcome.detections.len(), faults.len());
        for i in base.len()..faults.len() {
            assert_eq!(outcome.detections[i], outcome.detections[i % base.len()]);
        }
    }

    /// An empty fault list is a no-op.
    #[test]
    fn empty_batch() {
        let c = c1();
        let seq = TestSequence::from_words(&["10"]).unwrap();
        let good = simulate(&c, &seq, None);
        let outcome = screen_faults(&c, &seq, &good, &[]);
        assert!(outcome.detections.is_empty());
        assert_eq!(outcome.gate_evaluations, 0);
    }

    /// Early exit (all slots resolved) never changes a verdict.
    #[test]
    fn early_exit_preserves_verdicts() {
        let c = c1();
        let long = TestSequence::from_words(&["10"; 40]).unwrap();
        assert_screen_matches_scalar(&c, &long);
    }

    /// Without flip-flops `N_sv` is zero everywhere, so (C) never holds —
    /// even for a fault whose output is specified in the good machine and
    /// `X` in the faulty one.
    #[test]
    fn condition_c_never_holds_without_flip_flops() {
        let mut b = CircuitBuilder::new("comb");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate(GateKind::Or, "z", &["a", "b"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["1X", "X1", "0X", "11"]).unwrap();
        let good = simulate(&c, &seq, None);
        let faults = full_fault_list(&c);
        let outcome = screen_faults(&c, &seq, &good, &faults);
        assert!(outcome.condition_c.iter().all(|&holds| !holds));
        let a_stuck_at_0 = Fault::stem(c.find_net("a").unwrap(), false);
        let faulty = simulate(&c, &seq, Some(&a_stuck_at_0));
        assert!(
            good.outputs[0][0].is_specified() && !faulty.outputs[0][0].is_specified(),
            "a recoverable output exists, yet (C) fails"
        );
        assert_screen_matches_scalar(&c, &seq);
    }

    /// A fault whose only recoverable output is in the last frame passes
    /// (C): the kernel scans the outputs of every frame, the last included.
    #[test]
    fn condition_c_sees_a_recoverable_output_in_the_last_frame() {
        // r = 0 resets q; with r stuck-at-1 the faulty q toggles from X and
        // stays X. z = AND(q, a) masks q until `a` rises in the last frame.
        let mut b = CircuitBuilder::new("late");
        b.add_input("r").unwrap();
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Not, "nq", &["q"]).unwrap();
        b.add_gate(GateKind::And, "d", &["r", "nq"]).unwrap();
        b.add_gate(GateKind::And, "z", &["q", "a"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["00", "00", "00", "01"]).unwrap();
        let good = simulate(&c, &seq, None);
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        let faulty = simulate(&c, &seq, Some(&fault));
        let recoverable: Vec<usize> = (0..seq.len())
            .filter(|&u| good.outputs[u][0].is_specified() && !faulty.outputs[u][0].is_specified())
            .collect();
        assert_eq!(recoverable, [seq.len() - 1]);

        let outcome = screen_faults(&c, &seq, &good, &[fault]);
        assert_eq!(outcome.detections, [None]);
        assert_eq!(outcome.condition_c, [true]);
        assert_screen_matches_scalar(&c, &seq);
    }

    /// Two faults on the same net with opposite polarities stay independent.
    #[test]
    fn opposite_polarities_share_a_net() {
        let c = c1();
        let net = c.find_net("w").unwrap();
        let seq = TestSequence::from_words(&["11", "11", "00"]).unwrap();
        let good = simulate(&c, &seq, None);
        let faults = [Fault::stem(net, true), Fault::stem(net, false)];
        let outcome = screen_faults(&c, &seq, &good, &faults);
        for (fault, packed) in faults.iter().zip(&outcome.detections) {
            let faulty = simulate(&c, &seq, Some(fault));
            assert_eq!(*packed, conventional_detection(&good, &faulty));
        }
    }

    /// Every wide instantiation, at several thread counts, reports verdicts
    /// bit-identical to the 64-lane single-threaded kernel — on a fault list
    /// large enough (5x duplication) to occupy upper lanes of every width.
    #[test]
    fn wide_kernels_match_the_64_lane_kernel() {
        let c = c1();
        let seq = TestSequence::from_words(&["10", "01", "11", "00", "1X", "X1"]).unwrap();
        let good = simulate(&c, &seq, None);
        let base = full_fault_list(&c);
        let mut faults = Vec::new();
        for _ in 0..20 {
            faults.extend(base.iter().copied());
        }
        assert!(faults.len() > 256, "need all lanes of the widest word");
        let reference = screen_faults(&c, &seq, &good, &faults);
        for lanes in ScreenLanes::ALL {
            for threads in [1, 2, 3, 8] {
                let wide = screen_faults_wide(&c, &seq, &good, &faults, lanes, threads);
                assert_eq!(
                    wide.detections, reference.detections,
                    "lanes={lanes} threads={threads}"
                );
                assert_eq!(
                    wide.condition_c, reference.condition_c,
                    "lanes={lanes} threads={threads}"
                );
            }
        }
    }

    /// Gate-eval accounting is lane-invariant per word pass: a fault list
    /// fitting one word of every width runs the same frames and charges the
    /// same evaluations at 64, 128 and 256 lanes; a list needing four 64-lane
    /// words never charges the 256-lane kernel more than the 64-lane one.
    #[test]
    fn gate_evals_charge_one_per_word_pass_regardless_of_lane_width() {
        let c = c1();
        let seq = TestSequence::from_words(&["10", "01", "11", "00"]).unwrap();
        let good = simulate(&c, &seq, None);
        let base = full_fault_list(&c);
        let small: Vec<Fault> = base.iter().copied().take(14).collect();
        let narrow = screen_faults_wide(&c, &seq, &good, &small, ScreenLanes::L64, 1);
        for lanes in [ScreenLanes::L128, ScreenLanes::L256] {
            let wide = screen_faults_wide(&c, &seq, &good, &small, lanes, 1);
            assert_eq!(
                wide.gate_evaluations, narrow.gate_evaluations,
                "one word pass must cost the same at {lanes} lanes"
            );
        }
        let mut big = Vec::new();
        for _ in 0..20 {
            big.extend(base.iter().copied());
        }
        let narrow = screen_faults_wide(&c, &seq, &good, &big, ScreenLanes::L64, 1);
        let wide = screen_faults_wide(&c, &seq, &good, &big, ScreenLanes::L256, 1);
        assert!(
            wide.gate_evaluations <= narrow.gate_evaluations,
            "wider words take fewer passes: {} vs {}",
            wide.gate_evaluations,
            narrow.gate_evaluations
        );
    }

    /// The thread axis never changes the evaluation count — work moves
    /// between workers, it is not duplicated or dropped.
    #[test]
    fn gate_evals_are_thread_invariant() {
        let c = c1();
        let seq = TestSequence::from_words(&["10", "01", "11"]).unwrap();
        let good = simulate(&c, &seq, None);
        let base = full_fault_list(&c);
        let mut faults = Vec::new();
        for _ in 0..20 {
            faults.extend(base.iter().copied());
        }
        let one = screen_faults_wide(&c, &seq, &good, &faults, ScreenLanes::L64, 1);
        for threads in [2, 4, 16] {
            let many = screen_faults_wide(&c, &seq, &good, &faults, ScreenLanes::L64, threads);
            assert_eq!(many, one);
        }
    }

    /// `ScreenLanes` round-trips through its numeric width and rejects
    /// anything that is not an instantiated kernel.
    #[test]
    fn screen_lanes_round_trip() {
        for lanes in ScreenLanes::ALL {
            assert_eq!(ScreenLanes::from_lanes(lanes.lanes()), Some(lanes));
        }
        for n in [0, 1, 32, 63, 65, 127, 192, 512] {
            assert_eq!(ScreenLanes::from_lanes(n), None, "{n}");
        }
        assert_eq!(ScreenLanes::default(), ScreenLanes::L64);
        assert_eq!(ScreenLanes::L256.to_string(), "256");
    }
}
