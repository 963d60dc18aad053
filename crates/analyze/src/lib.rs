//! Static netlist analysis: structural lints, learned implications and
//! untestability proofs.
//!
//! This crate looks at a [`moa_netlist::Circuit`] *before* any simulation
//! runs and extracts four kinds of knowledge:
//!
//! - **Structural lints** ([`passes`]): a [`Pass`] framework emitting located
//!   [`Diagnostic`]s — combinational cycles, undriven and floating nets,
//!   unobservable logic, statically constant nets, duplicate gates and
//!   redundant buffer chains. Surfaced to users as `moa analyze`.
//! - **Learned implications** ([`learn`]): a SOCRATES-style static learner
//!   producing an [`ImplicationDb`] of pairwise implications (direct,
//!   transitively closed, plus contrapositive/indirect ones) that
//!   `moa_core::imply` fires during backward implication passes when
//!   `MoaOptions::static_learning` is enabled.
//! - **Untestability proofs** ([`untestable`]): an [`UntestableScreen`]
//!   marking stuck-at faults that no test can ever detect — unobservable
//!   fault sites and constant lines stuck at their constant — so fault
//!   campaigns can skip them with zero simulation work.
//! - **Testability estimates** ([`scoap`]): SCOAP-style controllability and
//!   observability measures ([`Testability`]), reported by `moa analyze` as
//!   per-fault detection-cost statistics.
//!
//! Fault collapsing is structural and lives in `moa_netlist`
//! (`collapse_faults`, `dominance_relations`).
//!
//! # Example
//!
//! ```
//! use moa_analyze::{analyze_circuit, ImplicationDb};
//! use moa_netlist::parse_bench;
//!
//! let c = parse_bench("INPUT(a)\nOUTPUT(z)\nna = NOT(a)\nx = AND(a, na)\nz = BUF(x)\n")?;
//! let report = analyze_circuit(&c);
//! // x = AND(a, NOT(a)) is statically constant 0.
//! assert!(report
//!     .diagnostics
//!     .iter()
//!     .any(|d| d.pass == "constant-net" && d.message.contains("`x`")));
//! let db = ImplicationDb::build(&c);
//! assert_eq!(db.constant(c.find_net("x").unwrap()), Some(false));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod diagnostic;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod learn;
pub mod passes;
pub mod scoap;
pub mod untestable;

pub use diagnostic::{AnalysisReport, Diagnostic, Severity};
pub use learn::ImplicationDb;
pub use passes::{analyze_circuit, default_passes, run_passes, AnalysisContext, Pass};
pub use scoap::Testability;
pub use untestable::{UntestableProof, UntestableScreen};
