//! Three-valued time-frame simulation of synchronous sequential circuits.
//!
//! This crate provides the simulation substrate of the multiple-observation-
//! time fault simulator:
//!
//! - [`NetValues`] — one three-valued value per net of a time frame,
//! - [`compute_frame`] / [`frame_next_state`] / [`frame_outputs`] — single
//!   time-frame evaluation with optional stuck-at fault injection,
//! - [`TestSequence`] — input sequences (including seeded random generation),
//! - [`SimTrace`], [`simulate`] — good- or faulty-machine simulation of a whole
//!   sequence from the all-`X` initial state (or any given state),
//! - [`conventional_detection`] — single-observation-time detection,
//! - [`PackedValues`] and the `packed_*` helpers — 64-way bit-parallel
//!   *binary* simulation used by the exact restricted-MOA checker,
//! - [`screen_faults`] / [`FaultBatch`] — 64-way *parallel-fault* screening
//!   (one distinct fault per bit slot) used by the campaign's conventional
//!   pre-pass,
//! - [`Word`] / [`ScreenLanes`] / [`screen_faults_wide`] — the machine-word
//!   abstraction that instantiates the same kernels at 64, 128 or 256 lanes
//!   per word, and the widened multi-threaded screening driver built on it.
//!
//! # Example
//!
//! ```
//! use moa_netlist::parse_bench;
//! use moa_sim::{simulate, TestSequence};
//!
//! let c = parse_bench("INPUT(a)\nOUTPUT(z)\nq = DFF(d)\nd = NOT(q)\nz = AND(a, q)\n")?;
//! let seq = TestSequence::from_words(&["1", "1"])?;
//! let trace = simulate(&c, &seq, None);
//! // The flip-flop never initializes: everything stays unknown.
//! assert!(trace.outputs[0].iter().all(|v| !v.is_specified()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod conventional;
mod differential;
mod event;
mod frame;
mod packed;
mod packed3;
mod packed_faults;
mod sequence;
mod sequence_io;
mod trace;
mod vcd;
mod word;

pub use conventional::{conventional_detection, run_conventional, Detection};
pub use differential::{simulate_differential, simulate_differential_counted, GoodFrames};
pub use event::EventSim;
pub use frame::{compute_frame, frame_next_state, frame_outputs, NetValues};
pub use packed::{packed_next_state, packed_outputs, run_packed_frame, PackedValues};
pub use packed3::{Packed3, PackedV3, PackedV3Values};
pub use packed_faults::{
    screen_faults, screen_faults_wide, FaultBatch, ScreenLanes, ScreenOutcome, SCREEN_LANES,
};
pub use sequence::{ParseSequenceError, TestSequence};
pub use trace::{simulate, simulate_from, SimTrace};
pub use vcd::vcd_dump;
pub use word::Word;
