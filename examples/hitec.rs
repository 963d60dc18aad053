//! The paper's closing experiment (Section 4): fault simulation of a
//! **deterministic** test sequence on s5378.
//!
//! The paper uses the HITEC-generated sequence and reports 14 additional
//! faults for the proposed method vs 12 for the procedure of \[4]. HITEC is a
//! closed historic ATPG; the stand-in is `moa_tpg::greedy` — a deterministic
//! coverage-directed generator producing a short compacted sequence (see
//! DESIGN.md §5) — run on the s5378 synthetic stand-in. The shape to compare:
//! on the same deterministic sequence, the proposed procedure detects at
//! least as many extra faults as the baseline.
//!
//! ```text
//! cargo run --release --example hitec           # s5378, about 100 s
//! cargo run --release --example hitec -- s298   # any suite circuit
//! ```

use std::time::Instant;

use moa_repro::circuits::suite::entry;
use moa_repro::core::{run_campaign, CampaignOptions};
use moa_repro::netlist::{collapse_faults, full_fault_list};
use moa_repro::tpg::compact::{compact_sequence, CompactOptions};
use moa_repro::tpg::greedy::{generate_sequence, GreedyOptions};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "s5378".to_owned());
    let e = entry(&name).unwrap_or_else(|| {
        eprintln!("unknown suite circuit `{name}`");
        std::process::exit(1);
    });
    let circuit = e.build();
    // The collapsed fault list: the paper's tables count faults that way.
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();

    eprintln!("generating a deterministic sequence for {name} (HITEC stand-in)…");
    let start = Instant::now();
    let generated = generate_sequence(
        &circuit,
        &faults,
        &GreedyOptions {
            max_length: e.sequence_length,
            seed: e.spec.seed ^ 0x4849_5445, // "HITE"
            ..Default::default()
        },
    );
    let (seq, _) = compact_sequence(
        &circuit,
        &generated.sequence,
        &faults,
        &CompactOptions {
            remove_single_patterns: false, // tail truncation only at this size
        },
    );
    eprintln!(
        "sequence: {} patterns, conventional coverage {:.1}% ({:?})",
        seq.len(),
        100.0 * generated.coverage(),
        start.elapsed()
    );

    let baseline = run_campaign(&circuit, &seq, &faults, &CampaignOptions::baseline());
    let proposed = run_campaign(&circuit, &seq, &faults, &CampaignOptions::new());
    println!(
        "deterministic sequence on {name}: total {}  conventional {}",
        faults.len(),
        proposed.conventional
    );
    println!(
        "  procedure of [4]   : {} detected (+{} beyond conventional)",
        baseline.detected_total(),
        baseline.extra
    );
    println!(
        "  proposed (backward): {} detected (+{} beyond conventional)",
        proposed.detected_total(),
        proposed.extra
    );
    println!("paper (HITEC on the real s5378): proposed +14 vs [4] +12 additional faults");
    println!(
        "shape {}: proposed extra ({}) >= baseline extra ({})",
        if proposed.extra >= baseline.extra {
            "HOLDS"
        } else {
            "VIOLATED"
        },
        proposed.extra,
        baseline.extra
    );
}
