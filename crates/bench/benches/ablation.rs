//! Ablation benches for the design knobs DESIGN.md calls out:
//!
//! - backward implications on/off (proposed vs the reference-\[4] baseline) on
//!   a whole mini-campaign,
//! - the `N_STATES` sequence limit (2 … 256),
//! - the implication-run budget,
//! - including time unit `L` in the collection sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use moa_bench::{run_with_options, suite_faults};
use moa_circuits::synth::{generate, SynthSpec};
use moa_core::MoaOptions;
use moa_tpg::random_sequence;

fn bench_campaign_ablations(c: &mut Criterion) {
    let circuit = generate(&SynthSpec::new("mini", 8, 4, 8, 90, 13));
    let seq = random_sequence(&circuit, 48, 21);
    let faults = suite_faults(&circuit);

    let mut group = c.benchmark_group("campaign_ablation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("proposed", |b| {
        b.iter(|| {
            black_box(run_with_options(
                &circuit,
                &seq,
                &faults,
                MoaOptions::default(),
            ))
        });
    });
    group.bench_function("baseline_no_backward", |b| {
        b.iter(|| {
            black_box(run_with_options(
                &circuit,
                &seq,
                &faults,
                MoaOptions::baseline(),
            ))
        });
    });

    for n_states in [2usize, 8, 64, 256] {
        group.bench_function(format!("n_states_{n_states}"), |b| {
            b.iter(|| {
                black_box(run_with_options(
                    &circuit,
                    &seq,
                    &faults,
                    MoaOptions::default().with_n_states(n_states),
                ))
            });
        });
    }

    for budget in [128usize, 1024, 4096] {
        group.bench_function(format!("implication_budget_{budget}"), |b| {
            b.iter(|| {
                black_box(run_with_options(
                    &circuit,
                    &seq,
                    &faults,
                    MoaOptions::default().with_max_implication_runs(budget),
                ))
            });
        });
    }

    group.bench_function("include_final_time_unit", |b| {
        let opts = MoaOptions {
            include_final_time_unit: true,
            ..Default::default()
        };
        b.iter(|| black_box(run_with_options(&circuit, &seq, &faults, opts.clone())));
    });

    for depth in [1usize, 2, 3] {
        group.bench_function(format!("backward_time_units_{depth}"), |b| {
            b.iter(|| {
                black_box(run_with_options(
                    &circuit,
                    &seq,
                    &faults,
                    MoaOptions::default().with_backward_time_units(depth),
                ))
            });
        });
    }

    group.bench_function("fixed_point_rounds_4", |b| {
        b.iter(|| {
            black_box(run_with_options(
                &circuit,
                &seq,
                &faults,
                MoaOptions::default().with_implication_rounds(4),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_campaign_ablations);
criterion_main!(benches);
