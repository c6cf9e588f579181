//! Finite-state-machine (STG) modeling and synthesis for the Cute-Lock suite.
//!
//! Cute-Lock-Beh is defined at the RTL level, on the State Transition Graph
//! of a sequential design. This crate provides that behavioral substrate:
//!
//! * `Cube` — input conditions as ternary cubes (`1-0-`);
//! * [`Stg`] — Mealy-machine state transition graphs with deterministic,
//!   complete transition relations;
//! * [`synth`] — synthesis of an STG to a gate-level
//!   [`Netlist`](cutelock_netlist::Netlist) (binary state encoding, one-hot
//!   state decode, cube match logic);
//! * [`detector`] — the classic sequence-detector family used in the paper's
//!   running example (Figs. 1–2: a `1001` Mealy detector);
//! * [`random`] — seeded random FSM generation, the basis of the
//!   Synthezza-equivalent benchmark suite.
//!
//! # Example
//!
//! ```
//! use cutelock_fsm::detector::sequence_detector;
//! use cutelock_fsm::synth::synthesize;
//! use cutelock_sim::{Logic, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stg = sequence_detector("1001");
//! let synthesized = synthesize(&stg)?;
//! let mut sim = Simulator::new(&synthesized.netlist)?;
//! sim.reset();
//! let outs: Vec<Logic> = [true, false, false, true]
//!     .iter()
//!     .map(|&bit| sim.cycle_with(&[Logic::from_bool(bit)])[0])
//!     .collect();
//! let detected = [Logic::Zero, Logic::Zero, Logic::Zero, Logic::One];
//! assert_eq!(outs, detected); // detects 1001
//! # Ok(())
//! # }
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cube;
pub mod detector;
pub mod random;
#[cfg(test)]
mod sim;
mod stg;
pub mod synth;

pub(crate) use cube::Cube;
pub use stg::{FsmError, StateId, Stg, Transition};
