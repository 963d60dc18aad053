//! **moa-repro** — a from-scratch Rust reproduction of
//!
//! > I. Pomeranz and S. M. Reddy, *"Fault Simulation under the Multiple
//! > Observation Time Approach using Backward Implications"*, DAC 1997.
//!
//! This umbrella crate re-exports the workspace:
//!
//! - [`logic`] — three-valued values, gate evaluation, backward justification,
//! - [`netlist`] — sequential gate-level circuits, `.bench` format, stuck-at
//!   faults and collapsing,
//! - [`sim`] — three-valued time-frame simulation and conventional
//!   (single-observation-time) fault simulation,
//! - [`circuits`] — the embedded `s27`, teaching circuits and the synthetic
//!   benchmark suite,
//! - [`tpg`] — random and coverage-directed (HITEC stand-in) test sequences,
//! - [`core`] — the paper's procedure: backward implications, state
//!   expansion, resimulation, campaigns, and the exact restricted-MOA
//!   ground-truth checker.
//!
//! See the `examples/` directory for runnable walkthroughs (`quickstart`,
//! `s27_walkthrough` and `conflict_demo` for the paper's Figures 1–4,
//! `expansion_table`, `campaign_report`, `test_generation`) and the paper's
//! deterministic-sequence experiment (`hitec`). The `moa suite` command of
//! the `moa-cli` crate prints the paper's Tables 2 and 3.
//!
//! # Example
//!
//! ```
//! use moa_repro::core::{simulate_fault, MoaOptions};
//! use moa_repro::netlist::Fault;
//! use moa_repro::circuits::teaching::resettable_toggle;
//! use moa_repro::sim::{simulate, TestSequence};
//!
//! let c = resettable_toggle();
//! let seq = TestSequence::from_words(&["0", "0", "0"])?;
//! let good = simulate(&c, &seq, None);
//! let fault = Fault::stem(c.find_net("r").unwrap(), true);
//! let result = simulate_fault(&c, &seq, &good, &fault, &MoaOptions::default());
//! assert!(result.status.is_extra_detected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use moa_circuits as circuits;
pub use moa_core as core;
pub use moa_logic as logic;
pub use moa_netlist as netlist;
pub use moa_sim as sim;
pub use moa_tpg as tpg;
