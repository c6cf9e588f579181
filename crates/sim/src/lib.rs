//! Cycle-accurate logic simulation for the Cute-Lock suite.
//!
//! Provides the oracle substrate used throughout the workspace. One
//! two-valued gate kernel, 64 lanes wide, sits behind both two-valued
//! front ends:
//!
//! * [`ParallelSim`] — 64 independent stimulus lanes per pass, for random
//!   simulation (switching activity, the locked-vs-original miter);
//! * [`NetlistOracle`] — the working-chip oracle that attacks query: the
//!   same kernel, read from lane 0, behind the [`SequentialOracle`] trait.
//!
//! Beside them:
//!
//! * [`Logic`] — three-valued (`0`/`1`/`X`) signal values;
//! * [`Simulator`] — event-free, levelized cycle simulator over a
//!   [`Netlist`](cutelock_netlist::Netlist) with three-valued semantics:
//!   the X-aware reference the kernel is tested against;
//! * [`pool`] — a dependency-free scoped work-stealing thread pool;
//! * [`activity`] — switching-activity estimation feeding the power model;
//! * [`trace`] — waveform capture used by the validation tables.
//!
//! # Example
//!
//! ```
//! use cutelock_netlist::bench;
//! use cutelock_sim::{Logic, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = bench::parse(
//!     "cnt",
//!     "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
//! )?;
//! let mut sim = Simulator::new(&nl)?;
//! sim.reset();
//! assert_eq!(sim.cycle_with(&[Logic::One]), vec![Logic::Zero]); // q starts at 0
//! assert_eq!(sim.cycle_with(&[Logic::One]), vec![Logic::One]); // q toggled
//! # Ok(())
//! # }
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
mod logic;
pub(crate) mod oracle;
mod parallel;
pub mod pool;
mod simulator;
pub mod trace;

pub use logic::Logic;
pub use oracle::{NetlistOracle, SequentialOracle};
pub use parallel::ParallelSim;
pub use pool::Pool;
pub use simulator::Simulator;
