//! Gate-level netlist intermediate representation for the Cute-Lock suite.
//!
//! This crate provides the sequential-circuit substrate every other crate in
//! the workspace builds on:
//!
//! * [`Netlist`] — a named, single-driver gate-level IR with primary inputs,
//!   primary outputs, D flip-flops and combinational gates ([`GateKind`]).
//! * [`mod@bench`] — a parser and writer for the ISCAS/ITC **`.bench`** format,
//!   the interchange format used by logic-locking tooling (ABC, NEOS, FALL).
//! * [`verilog`] — a structural Verilog writer.
//! * [`topo`] — topological ordering, levelization and cycle detection.
//! * [`cone`] — fan-in/fan-out cone extraction.
//! * [`mod@simplify`] — structural hashing, constant propagation and
//!   cone-of-influence trimming in front of every CNF encoding.
//! * [`unroll`] — the scan-chain "combinational view" every SAT instance is
//!   built from; attacks and equivalence proofs unroll a sequential
//!   circuit by encoding one view per time frame.
//!
//! # Example
//!
//! ```
//! use cutelock_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), cutelock_netlist::NetlistError> {
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a")?;
//! let b = nl.add_input("b")?;
//! let q = nl.add_net("q")?;
//! let d = nl.add_gate(GateKind::Xor, "d", &[a, q])?;
//! nl.add_dff("ff0", d, q)?;
//! let y = nl.add_gate(GateKind::And, "y", &[d, b])?;
//! nl.mark_output(y)?;
//! nl.validate()?;
//! assert_eq!(nl.gate_count(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cone;
mod error;
mod kind;
mod netlist;
pub mod simplify;
pub(crate) mod stats;
pub mod topo;
#[cfg(test)]
mod transform;
pub mod unroll;
pub mod verilog;

pub use error::NetlistError;
pub use kind::GateKind;
pub use netlist::{Dff, Driver, Gate, Net, NetId, Netlist};
pub use simplify::{simplify, SimplifyConfig, SimplifyStats};
pub use stats::NetlistStats;

/// Prefix that marks a primary input as a key input.
///
/// Logic-locking tools (NEOS, RANE, FALL) all identify key bits by this
/// conventional name prefix in `.bench` files, so we follow suit: any input
/// whose name starts with `keyinput` is treated as part of the key port.
pub(crate) const KEY_INPUT_PREFIX: &str = "keyinput";
