//! Canonical request hashing for campaign deduplication.
//!
//! The `moa serve` daemon ([`crate::serve`]) keys its result cache by a
//! *canonical hash* of a campaign request — the triple (circuit, fault
//! list, options) plus the test sequence. Two requests with the same hash
//! would run the same simulation and produce bit-identical verdicts, so the
//! second submission can be answered from the cache with zero gate
//! evaluations. To make the cache hit whenever that is *semantically* true,
//! the hash is computed over a canonical serialization:
//!
//! - the circuit is rendered structurally — inputs and outputs in
//!   declaration order (their positions are semantic: pattern bits map to
//!   inputs by position), but gates and flip-flops sorted by the *name* of
//!   the net they drive, with every net referenced by name. Reordering the
//!   lines of a `.bench` file, which renumbers every internal net id,
//!   leaves the hash unchanged; the circuit's display name is excluded;
//! - faults are rendered by site name and stuck value, in list order
//!   (verdicts are reported positionally, so order is semantic);
//! - of the options, only the *verdict-relevant* fields are hashed:
//!   execution strategy knobs that are proven verdict-identical by the
//!   parity test suite (thread count, differential vs full-frame
//!   conventional simulation, the screen's lane width and thread count) are
//!   excluded, so
//!   a cached result can be reused across execution strategies. Defaulted
//!   and explicitly-spelled-out options serialize identically because
//!   hashing happens after resolution.
//!
//! [`verdict_digest`] is the companion on the *result* side: a canonical
//! hash over a campaign's per-fault statuses, printed by the CLI and used
//! by the recovery tests to prove bit-identical results across crash/resume
//! cycles without shipping whole result payloads around.

use std::fmt;

use moa_netlist::{Circuit, Fault, FaultSite};
use moa_sim::TestSequence;

use crate::campaign::{CampaignOptions, CampaignResult};
use crate::MoaOptions;

/// A 128-bit canonical hash (FNV-1a over the canonical serialization).
///
/// Rendered and parsed as 32 lowercase hex digits. 128 bits keeps the
/// collision probability negligible at any realistic cache size, so the
/// daemon treats hash equality as request equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonHash(pub u128);

impl CanonHash {
    /// Parses the 32-hex-digit rendering produced by [`fmt::Display`].
    pub fn parse(text: &str) -> Option<CanonHash> {
        if text.len() != 32 {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(CanonHash)
    }
}

impl fmt::Display for CanonHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental FNV-1a/128 hasher over the canonical byte stream.
///
/// FNV-1a is not collision-resistant against adversaries, but the spool is
/// a local cache fed by the operator's own submissions; what matters here
/// is determinism across processes and platforms, which the fixed-width
/// little-endian serialization below guarantees.
struct Fnv128 {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Fnv128 {
    fn new() -> Self {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Length-prefixed write: without the prefix, `("ab", "c")` and
    /// `("a", "bc")` would collide structurally.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_bool(&mut self, v: bool) {
        self.write(&[u8::from(v)]);
    }

    fn finish(self) -> CanonHash {
        CanonHash(self.state)
    }
}

/// The canonical structural rendering of a circuit, as hashed by
/// [`request_hash`]: one line per element, nets by name, gates and
/// flip-flops sorted by driven-net name. Exposed so tests (and humans
/// debugging a surprising cache miss) can diff two renderings directly.
pub fn canonical_circuit_text(circuit: &Circuit) -> String {
    let mut text = String::new();
    for &net in circuit.inputs() {
        text.push_str("input ");
        text.push_str(circuit.net_name(net));
        text.push('\n');
    }
    for &net in circuit.outputs() {
        text.push_str("output ");
        text.push_str(circuit.net_name(net));
        text.push('\n');
    }
    let mut ffs: Vec<(&str, &str)> = circuit
        .flip_flops()
        .iter()
        .map(|ff| (circuit.net_name(ff.q()), circuit.net_name(ff.d())))
        .collect();
    ffs.sort_unstable();
    for (q, d) in ffs {
        text.push_str("dff ");
        text.push_str(q);
        text.push(' ');
        text.push_str(d);
        text.push('\n');
    }
    // Every net has exactly one driver, so the driven-net name is a unique,
    // id-independent sort key for gates.
    let mut gates: Vec<String> = circuit
        .gates()
        .iter()
        .map(|gate| {
            let mut line = format!("gate {:?} {}", gate.kind(), circuit.net_name(gate.output()));
            for &input in gate.inputs() {
                line.push(' ');
                line.push_str(circuit.net_name(input));
            }
            line.push('\n');
            line
        })
        .collect();
    gates.sort_unstable();
    for line in gates {
        text.push_str(&line);
    }
    text
}

/// The canonical, id-independent rendering of one fault: site by net/pin
/// name plus the stuck value.
pub fn canonical_fault_text(circuit: &Circuit, fault: &Fault) -> String {
    let stuck = u8::from(fault.stuck);
    match fault.site {
        FaultSite::Net(net) => format!("stem {} sa{stuck}", circuit.net_name(net)),
        FaultSite::GateInput { gate, pin } => format!(
            "gate-in {} pin{} sa{stuck}",
            circuit.net_name(circuit.gate(gate).output()),
            pin
        ),
        FaultSite::FlipFlopInput(ff) => format!(
            "ff-in {} sa{stuck}",
            circuit.net_name(circuit.flip_flop(ff).q())
        ),
    }
}

/// Hashes the verdict-relevant slice of the options. Execution-strategy
/// fields (threads, the screen's lane width / thread count, differential)
/// are deliberately absent: the parity test suite locks them
/// verdict-identical, so requests differing only in strategy share a cache
/// entry. Every field is written tagged, fixed-width, in a fixed order — a
/// request with defaulted fields hashes identically to one spelling the same
/// values out, because both hash the resolved struct. Values are hashed raw,
/// so [`JobSpec::new`](crate::spool::JobSpec::new) refuses the zeros the
/// engine would run as one (`n_states`, `backward_time_units`).
fn hash_options(h: &mut Fnv128, options: &CampaignOptions) {
    let MoaOptions {
        n_states,
        backward_implications,
        implication_rounds,
        max_implication_runs,
        check_condition_c,
        backward_time_units,
        include_final_time_unit,
        static_learning,
        max_frontier_states,
        degrade,
    } = &options.moa;
    h.write_str("options-v1");
    h.write_u64(*n_states as u64);
    h.write_bool(*backward_implications);
    h.write_u64(*implication_rounds as u64);
    h.write_u64(*max_implication_runs as u64);
    h.write_bool(*check_condition_c);
    h.write_u64(*backward_time_units as u64);
    h.write_bool(*include_final_time_unit);
    h.write_bool(*static_learning);
    match max_frontier_states {
        None => h.write_u64(0),
        Some(states) => {
            h.write_u64(1);
            h.write_u64(*states as u64);
        }
    }
    h.write_bool(*degrade);
    // The retired `degrade_adaptive` slot, always `false`. Keeping it keeps
    // every request hash, and with it every spool job directory, equal to
    // what it was before the option was removed.
    h.write_bool(false);
    h.write_bool(options.prune_untestable);
    match options.budget.deadline {
        None => h.write_u64(0),
        Some(deadline) => {
            h.write_u64(1);
            h.write_u64(deadline.as_millis() as u64);
        }
    }
    match options.budget.max_work {
        None => h.write_u64(0),
        Some(limit) => {
            h.write_u64(1);
            h.write_u64(limit);
        }
    }
    match &options.audit {
        None => h.write_u64(0),
        Some(audit) => {
            h.write_u64(1);
            h.write_u64(audit.sample_rate.max(1) as u64);
        }
    }
}

/// The canonical hash of one campaign request: circuit structure, test
/// sequence, fault list (in order) and the verdict-relevant options.
///
/// Equal hashes mean the requests would produce bit-identical
/// [`CampaignResult`] verdicts; unequal hashes mean some semantic component
/// differs. Invariance properties (locked by `tests/canon.rs`):
///
/// - reordering `.bench` gate lines (which renumbers net ids) does not
///   change the hash;
/// - the circuit's display name does not change the hash;
/// - defaulted vs explicitly-specified options hash identically;
/// - thread count and the other verdict-neutral execution knobs do not
///   change the hash;
/// - reordering the *fault list* does change it (verdicts are positional).
pub fn request_hash(
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[Fault],
    options: &CampaignOptions,
) -> CanonHash {
    let mut h = Fnv128::new();
    h.write_str("moa-request-v1");
    h.write_str(&canonical_circuit_text(circuit));
    h.write_str(&seq.to_text());
    h.write_u64(faults.len() as u64);
    for fault in faults {
        h.write_str(&canonical_fault_text(circuit, fault));
    }
    hash_options(&mut h, options);
    h.finish()
}

/// The canonical hash of a campaign's verdicts: circuit name, fault count
/// and the binary encoding of every per-fault status, in order. Two
/// campaign results have equal digests exactly when they are equal under
/// [`CampaignResult`]'s verdict equality (which already excludes wall-clock
/// instrumentation), so a digest comparison across processes proves
/// bit-identical recovery.
pub fn verdict_digest(result: &CampaignResult) -> CanonHash {
    let mut h = Fnv128::new();
    h.write_str("moa-verdicts-v1");
    h.write_str(&result.circuit);
    h.write_u64(result.total_faults as u64);
    let mut buf = Vec::new();
    for status in &result.statuses {
        buf.clear();
        crate::checkpoint::encode_status(&mut buf, status);
        h.write_u64(buf.len() as u64);
        h.write(&buf);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use moa_netlist::{full_fault_list, parse_bench};

    fn toggle() -> Circuit {
        parse_bench(
            "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
        )
        .expect("valid bench")
    }

    fn seq() -> TestSequence {
        TestSequence::from_words(&["0", "0", "0"]).expect("valid sequence")
    }

    #[test]
    fn hash_is_deterministic_and_hex_round_trips() {
        let c = toggle();
        let faults = full_fault_list(&c);
        let opts = CampaignOptions::new();
        let a = request_hash(&c, &seq(), &faults, &opts);
        let b = request_hash(&c, &seq(), &faults, &opts);
        assert_eq!(a, b);
        let hex = a.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(CanonHash::parse(&hex), Some(a));
        assert_eq!(CanonHash::parse("xyz"), None);
        assert_eq!(CanonHash::parse(&hex[..31]), None);
    }

    #[test]
    fn gate_line_reordering_does_not_change_the_hash() {
        let a = toggle();
        let b = parse_bench(
            "INPUT(r)\nOUTPUT(z)\nz = BUFF(q)\nd = AND(r, nq)\nnq = NOT(q)\nq = DFF(d)\n",
        )
        .expect("valid bench");
        assert_eq!(canonical_circuit_text(&a), canonical_circuit_text(&b));
        let fa = full_fault_list(&a);
        // The fault lists enumerate sites in different id orders; compare
        // under a canonical fault ordering to isolate the circuit hash.
        let mut fa_text: Vec<String> =
            fa.iter().map(|f| canonical_fault_text(&a, f)).collect();
        let mut fb_text: Vec<String> = full_fault_list(&b)
            .iter()
            .map(|f| canonical_fault_text(&b, f))
            .collect();
        fa_text.sort_unstable();
        fb_text.sort_unstable();
        assert_eq!(fa_text, fb_text);
    }

    #[test]
    fn semantic_fields_move_the_hash_and_neutral_fields_do_not() {
        let c = toggle();
        let faults = full_fault_list(&c);
        let base = request_hash(&c, &seq(), &faults, &CampaignOptions::new());

        let mut neutral = CampaignOptions::new();
        neutral.threads = 7;
        neutral.differential = true;
        neutral.screen_lanes = crate::ScreenLanes::L256;
        neutral.screen_threads = 4;
        assert_eq!(base, request_hash(&c, &seq(), &faults, &neutral));

        let mut semantic = CampaignOptions::new();
        semantic.moa.n_states = 32;
        assert_ne!(base, request_hash(&c, &seq(), &faults, &semantic));

        let reordered: Vec<Fault> = faults.iter().rev().copied().collect();
        assert_ne!(base, request_hash(&c, &seq(), &reordered, &CampaignOptions::new()));

        let longer = TestSequence::from_words(&["0", "0", "0", "0"]).expect("valid");
        assert_ne!(base, request_hash(&c, &longer, &faults, &CampaignOptions::new()));
    }

    #[test]
    fn verdict_digest_matches_result_equality() {
        let c = toggle();
        let faults = full_fault_list(&c);
        let a = run_campaign(&c, &seq(), &faults, &CampaignOptions::new());
        let b = run_campaign(&c, &seq(), &faults, &CampaignOptions::new());
        assert_eq!(a, b);
        assert_eq!(verdict_digest(&a), verdict_digest(&b));
        let fewer = run_campaign(&c, &seq(), &faults[..faults.len() - 1], &CampaignOptions::new());
        assert_ne!(verdict_digest(&a), verdict_digest(&fewer));
    }
}
