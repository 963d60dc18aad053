//! Property-based tests over randomly generated circuits (proptest).

use proptest::prelude::*;

use moa_repro::circuits::synth::{generate, SynthSpec};
use moa_repro::core::imply::{FrameContext, ImplyOutcome};
use moa_repro::core::{
    audit_certificate, exact_moa_check, simulate_fault_certified, BudgetMeter, ClaimKind,
    ExactOutcome, MoaOptions,
};
use moa_repro::logic::V3;
use moa_repro::netlist::{
    collapse_faults, full_fault_list, observable_nets, parse_bench, structurally_equal,
    write_bench, Circuit, Fault,
};
use moa_repro::sim::{
    compute_frame, conventional_detection, packed_next_state, run_packed_frame, simulate,
    simulate_differential, GoodFrames, PackedV3, TestSequence, Word,
};
use moa_repro::tpg::random_sequence;

fn arb_spec() -> impl Strategy<Value = SynthSpec> {
    (1usize..5, 1usize..4, 1usize..7, 10usize..60, any::<u64>()).prop_map(
        |(inputs, outputs, ffs, extra_gates, seed)| {
            SynthSpec::new(
                "prop",
                inputs,
                outputs,
                ffs,
                ffs + outputs + extra_gates,
                seed,
            )
        },
    )
}

fn arb_pattern(circuit: &Circuit) -> Vec<V3> {
    // Deterministic pattern derived from the circuit size: properties below
    // draw randomness through the spec seed instead.
    (0..circuit.num_inputs())
        .map(|i| V3::from_bool(i % 2 == 0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The synthetic generator leaves almost no dangling logic: unused gate
    /// outputs and unread inputs are absorbed into the dedicated state and
    /// observation gates, so the only unobservable nets are isolated
    /// flip-flop islands (state bits feeding only each other), which mirror
    /// the never-initialized portions of real sequential benchmarks.
    #[test]
    fn generated_circuits_are_mostly_observable(spec in arb_spec()) {
        let c = generate(&spec);
        let observable = observable_nets(&c).len();
        // Worst case: every flip-flop is an island (q + its dedicated gate).
        let island_bound = 2 * c.num_flip_flops();
        prop_assert!(
            observable + island_bound >= c.num_nets(),
            "{observable}/{} observable with {} flip-flops",
            c.num_nets(),
            c.num_flip_flops()
        );
    }

    /// The `.bench` writer/parser round-trips every generated circuit.
    #[test]
    fn bench_format_round_trips(spec in arb_spec()) {
        let c = generate(&spec);
        let text = write_bench(&c);
        let c2 = parse_bench(&text).expect("writer output parses");
        prop_assert!(structurally_equal(&c, &c2));
    }

    /// Fault collapsing partitions the full fault list and representatives
    /// are members of their own classes.
    #[test]
    fn collapsing_partitions_faults(spec in arb_spec()) {
        let c = generate(&spec);
        let full = full_fault_list(&c);
        let collapsed = collapse_faults(&c, &full);
        prop_assert!(collapsed.len() <= full.len());
        prop_assert!(!collapsed.is_empty());
        for &f in &full {
            let rep = collapsed.representative_of(f).expect("fault in a class");
            prop_assert!(collapsed.class_of(f).unwrap().contains(&f));
            prop_assert_eq!(collapsed.representative_of(rep), Some(rep));
        }
    }

    /// Implication-engine soundness against exhaustive enumeration: if
    /// asserting `Y_i = α` conflicts, no binary completion of the present
    /// state produces `Y_i = α`; if it yields refined values, every
    /// completion that produces `Y_i = α` agrees with every refined net.
    #[test]
    fn imply_is_sound_against_enumeration(
        spec in arb_spec(),
        ff_choice in any::<u32>(),
        alpha in any::<bool>(),
        rounds in 1usize..3,
    ) {
        let c = generate(&spec);
        let k = c.num_flip_flops();
        prop_assume!(k <= 6);
        let pattern = arb_pattern(&c);
        let state = vec![V3::X; k];
        let ctx = FrameContext::new(&c, &pattern, &state, None);
        let i = (ff_choice as usize) % k;
        let d_net = c.flip_flops()[i].d();
        let outcome = ctx.imply(&[(d_net, V3::from_bool(alpha))], rounds);

        // Enumerate all binary completions of the present state with the
        // 64-way packed simulator.
        let packed_pattern: Vec<bool> =
            pattern.iter().map(|v| v.to_bool().expect("binary")).collect();
        let total = 1u64 << k;
        prop_assume!(total <= 64);
        let packed_state: Vec<u64> = (0..k)
            .map(|bit| {
                let mut w = 0u64;
                for s in 0..total {
                    if s >> bit & 1 == 1 { w |= 1 << s; }
                }
                w
            })
            .collect();
        let frame = run_packed_frame(&c, &packed_pattern, &packed_state, None);
        let next = packed_next_state(&c, &frame, None);
        let valid = if total == 64 { u64::MAX } else { (1u64 << total) - 1 };
        let matching = if alpha { next[i] & valid } else { !next[i] & valid };

        match outcome {
            ImplyOutcome::Conflict => {
                prop_assert_eq!(matching, 0, "conflict must mean no completion matches");
            }
            ImplyOutcome::Values(v) => {
                // For every completion slot where Y_i = alpha, each net value
                // refined by the engine must hold.
                for net in c.net_ids() {
                    let Some(expect) = v[net].to_bool() else { continue };
                    let word = frame[net];
                    let agree = if expect { word } else { !word };
                    prop_assert_eq!(
                        matching & !agree, 0,
                        "net {} refined to {} but some matching completion disagrees",
                        c.net_name(net), v[net]
                    );
                }
            }
        }
    }

    /// Single-observation-time detection implies restricted-MOA detection:
    /// if the three-valued faulty response conflicts with the good response,
    /// every binary initial state of the faulty machine must conflict too.
    #[test]
    fn conventional_detection_implies_exact_detection(
        spec in arb_spec(),
        fault_choice in any::<u32>(),
        stuck in any::<bool>(),
        seq_seed in any::<u64>(),
    ) {
        let c = generate(&spec);
        prop_assume!(c.num_flip_flops() <= 8);
        let seq = {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seq_seed);
            TestSequence::random(c.num_inputs(), 12, &mut rng)
        };
        let net = moa_repro::netlist::NetId::new((fault_choice as usize) % c.num_nets());
        let fault = Fault::stem(net, stuck);
        let good = simulate(&c, &seq, None);
        let faulty = simulate(&c, &seq, Some(&fault));
        prop_assume!(conventional_detection(&good, &faulty).is_some());
        let exact = exact_moa_check(&c, &seq, &good, &fault, 16).expect("enumerable");
        prop_assert_eq!(exact, ExactOutcome::Detected);
    }

    /// Differential (event-driven, delta-from-good) fault simulation equals
    /// full fault simulation for every stem fault of a random circuit.
    #[test]
    fn differential_simulation_equals_full(spec in arb_spec(), seq_seed in any::<u64>()) {
        let c = generate(&spec);
        let seq = {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seq_seed);
            TestSequence::random(c.num_inputs(), 10, &mut rng)
        };
        let good = GoodFrames::compute(&c, &seq);
        for net in c.net_ids().step_by(3) {
            for stuck in [false, true] {
                let fault = Fault::stem(net, stuck);
                let reference = simulate(&c, &seq, Some(&fault));
                let differential = simulate_differential(&c, &seq, &good, &fault);
                prop_assert_eq!(&reference, &differential, "{}", fault.describe(&c));
            }
        }
    }

    /// The dual-rail gate algebra the screen composes its frames from agrees
    /// with the scalar three-valued operators slot by slot: AND, OR, XOR and
    /// NOT over random mixed-ternary operands, at 64 and 256 lanes.
    #[test]
    fn packed3_agrees_with_scalar(
        a_trits in proptest::collection::vec(0u8..3, 256),
        b_trits in proptest::collection::vec(0u8..3, 256),
    ) {
        fn check<W: Word>(a_trits: &[u8], b_trits: &[u8]) {
            let vals = [V3::Zero, V3::One, V3::X];
            let mut a: PackedV3<W> = PackedV3::ALL_X;
            let mut b: PackedV3<W> = PackedV3::ALL_X;
            let lanes = W::LANES as u32;
            for slot in 0..lanes {
                a.set(slot, vals[a_trits[slot as usize] as usize]);
                b.set(slot, vals[b_trits[slot as usize] as usize]);
            }
            for slot in 0..lanes {
                let (x, y) = (a.get(slot), b.get(slot));
                prop_assert_eq!(x, vals[a_trits[slot as usize] as usize], "set/get slot {}", slot);
                prop_assert_eq!((a & b).get(slot), x & y, "and slot {}", slot);
                prop_assert_eq!((a | b).get(slot), x | y, "or slot {}", slot);
                prop_assert_eq!((a ^ b).get(slot), x ^ y, "xor slot {}", slot);
                prop_assert_eq!((!a).get(slot), !x, "not slot {}", slot);
            }
        }
        check::<u64>(&a_trits, &b_trits);
        check::<[u64; 4]>(&a_trits, &b_trits);
    }

    /// A detection certificate that lies about an observation is always
    /// refuted: flipping the claimed output value of any observation claim of
    /// a confirmed certificate must turn the audit verdict into `Refuted`.
    /// (The forged claim asserts the faulty machine matches the good value —
    /// no detection — so replay can never corroborate it.)
    #[test]
    fn perturbed_observation_value_always_fails_audit(spec in arb_spec(), seq_seed in any::<u64>()) {
        let c = generate(&spec);
        let seq = random_sequence(&c, 8, seq_seed);
        let good = simulate(&c, &seq, None);
        let faults = collapse_faults(&c, &full_fault_list(&c)).representatives().to_vec();
        for fault in faults.iter().take(8) {
            let (result, certificate) = simulate_fault_certified(
                &c, &seq, &good, fault, &MoaOptions::default(), None,
                &mut BudgetMeter::unlimited(),
            );
            prop_assert_eq!(result.status.is_detected(), certificate.is_some());
            let Some(certificate) = certificate else { continue };
            if !audit_certificate(&c, &seq, &good, fault, &certificate).is_confirmed() {
                continue;
            }
            for (i, claim) in certificate.claims.iter().enumerate() {
                let ClaimKind::Observation { time, output, value } = claim.kind else {
                    continue;
                };
                let mut forged = certificate.clone();
                forged.claims[i].kind = ClaimKind::Observation { time, output, value: !value };
                let verdict = audit_certificate(&c, &seq, &good, fault, &forged);
                prop_assert!(
                    verdict.is_refuted(),
                    "flipping claim {i} of {fault:?} must refute: {verdict:?}"
                );
            }
        }
    }

    /// Three-valued frame evaluation is sound: any binary completion of the
    /// present state agrees with every specified value of the X-state frame.
    #[test]
    fn three_valued_frame_is_sound(spec in arb_spec(), state_bits in any::<u64>()) {
        let c = generate(&spec);
        let k = c.num_flip_flops();
        let pattern = arb_pattern(&c);
        let x_frame = compute_frame(&c, &pattern, &vec![V3::X; k], None);
        let state: Vec<V3> = (0..k).map(|i| V3::from_bool(state_bits >> i & 1 == 1)).collect();
        let concrete = compute_frame(&c, &pattern, &state, None);
        for net in c.net_ids() {
            if x_frame[net].is_specified() {
                prop_assert_eq!(x_frame[net], concrete[net], "net {}", c.net_name(net));
            }
        }
    }
}
