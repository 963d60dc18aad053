//! Property tests for canonical request hashing (`moa_core::canon`).
//!
//! The `moa serve` dedupe cache treats hash equality as request equality,
//! so these properties are load-bearing for correctness, not just hygiene:
//!
//! - the hash is a pure function of the request (deterministic, and the
//!   hex rendering round-trips);
//! - *presentation* changes never move it: reordering `.bench` assignment
//!   lines (which renumbers every internal net id), renaming the circuit's
//!   display name, or spelling out defaulted options explicitly;
//! - *execution-strategy* knobs proven verdict-neutral by the parity suite
//!   (threads, differential, screening) never move it either — a cached
//!   verdict is reusable across them;
//! - *semantic* changes always move it: option values the verdicts depend
//!   on, the test sequence, and the fault list order (verdicts are
//!   positional).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moa_circuits::synth::{generate, SynthSpec};
use moa_core::{request_hash, CampaignOptions, CanonHash};
use moa_netlist::{full_fault_list, parse_bench, write_bench, Circuit, Fault};
use moa_tpg::random_sequence;

/// A small random sequential circuit. Kept tiny: the properties are about
/// the serialization, not the simulator, and proptest multiplies cases.
fn circuit(seed: u64) -> Circuit {
    let spec = SynthSpec::new("prop", 3, 2, 2, 12, seed);
    generate(&spec)
}

/// Rewrites the `.bench` text with its assignment lines permuted (comment
/// and INPUT/OUTPUT lines keep their places: declaration order is
/// semantic — pattern bits map to inputs by position).
fn permute_assignments(bench: &str, seed: u64) -> String {
    let mut head = Vec::new();
    let mut body = Vec::new();
    for line in bench.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with("INPUT") || t.starts_with("OUTPUT")
        {
            head.push(line);
        } else {
            body.push(line);
        }
    }
    // Fisher-Yates (the vendored `rand` stub has no `shuffle`).
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..body.len()).rev() {
        let j = rng.random_range(0..i + 1);
        body.swap(i, j);
    }
    let mut out = String::new();
    for line in head.into_iter().chain(body) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Stem faults on the primary inputs, by declaration position — a fault
/// list that can be built identically on two circuits that differ only in
/// net numbering.
fn input_stem_faults(c: &Circuit) -> Vec<Fault> {
    c.inputs()
        .iter()
        .flat_map(|&net| [Fault::stem(net, false), Fault::stem(net, true)])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hash_is_deterministic_and_round_trips(seed in 0u64..1000, len in 1usize..6) {
        let c = circuit(seed);
        let seq = random_sequence(&c, len, seed);
        let faults = full_fault_list(&c);
        let opts = CampaignOptions::new();
        let a = request_hash(&c, &seq, &faults, &opts);
        let b = request_hash(&c, &seq, &faults, &opts);
        prop_assert_eq!(a, b);
        let hex = a.to_string();
        prop_assert_eq!(hex.len(), 32);
        prop_assert_eq!(CanonHash::parse(&hex), Some(a));
    }

    #[test]
    fn bench_line_reordering_and_renaming_do_not_move_the_hash(
        seed in 0u64..1000,
        shuffle_seed in 0u64..1000,
    ) {
        let c = circuit(seed);
        let bench = write_bench(&c);
        let permuted = permute_assignments(&bench, shuffle_seed)
            .replace("# prop", "# renamed");
        let c2 = parse_bench(&permuted).expect("permuted bench parses");
        let seq = random_sequence(&c, 4, seed);
        let opts = CampaignOptions::new();
        // Same faults by *position*, so only the circuit serialization is
        // under test (full_fault_list order follows net ids, which the
        // permutation renumbers).
        let a = request_hash(&c, &seq, &input_stem_faults(&c), &opts);
        let b = request_hash(&c2, &seq, &input_stem_faults(&c2), &opts);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn verdict_neutral_knobs_never_move_the_hash(
        seed in 0u64..1000,
        threads in 1usize..9,
        differential in any::<bool>(),
    ) {
        let c = circuit(seed);
        let seq = random_sequence(&c, 4, seed);
        let faults = full_fault_list(&c);
        let base = request_hash(&c, &seq, &faults, &CampaignOptions::new());
        let mut tweaked = CampaignOptions::new();
        tweaked.threads = threads;
        tweaked.differential = differential;
        prop_assert_eq!(base, request_hash(&c, &seq, &faults, &tweaked));
    }

    #[test]
    fn defaulted_and_spelled_out_options_hash_identically(seed in 0u64..1000) {
        let c = circuit(seed);
        let seq = random_sequence(&c, 4, seed);
        let faults = full_fault_list(&c);
        let defaulted = CampaignOptions::new();
        let mut explicit = CampaignOptions::new();
        // Spell out the defaults through the builder API; hashing happens
        // after resolution, so the two must collide.
        explicit.moa = explicit
            .moa
            .with_n_states(defaulted.moa.n_states)
            .with_backward_time_units(defaulted.moa.backward_time_units)
            .with_implication_rounds(defaulted.moa.implication_rounds)
            .with_max_implication_runs(defaulted.moa.max_implication_runs);
        prop_assert_eq!(
            request_hash(&c, &seq, &faults, &defaulted),
            request_hash(&c, &seq, &faults, &explicit)
        );
    }

    #[test]
    fn semantic_perturbations_always_move_the_hash(
        seed in 0u64..1000,
        which in 0usize..5,
    ) {
        let c = circuit(seed);
        let seq = random_sequence(&c, 4, seed);
        let faults = full_fault_list(&c);
        let base = request_hash(&c, &seq, &faults, &CampaignOptions::new());
        let perturbed = match which {
            0 => {
                let mut o = CampaignOptions::new();
                o.moa.n_states += 1;
                request_hash(&c, &seq, &faults, &o)
            }
            1 => {
                let mut o = CampaignOptions::new();
                o.moa.backward_implications = !o.moa.backward_implications;
                request_hash(&c, &seq, &faults, &o)
            }
            2 => {
                let mut o = CampaignOptions::new();
                o.prune_untestable = !o.prune_untestable;
                request_hash(&c, &seq, &faults, &o)
            }
            3 => {
                let longer = random_sequence(&c, 5, seed);
                request_hash(&c, &longer, &faults, &CampaignOptions::new())
            }
            _ => {
                // Verdicts are positional, so fault order is semantic.
                let reversed: Vec<Fault> = faults.iter().rev().copied().collect();
                request_hash(&c, &seq, &reversed, &CampaignOptions::new())
            }
        };
        prop_assert_ne!(base, perturbed);
    }
}
