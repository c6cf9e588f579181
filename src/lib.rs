//! # Cute-Lock
//!
//! A comprehensive Rust reproduction of **"Cute-Lock: Behavioral and
//! Structural Multi-Key Logic Locking Using Time Base Keys"** (Lopez &
//! Rezaei, DATE 2025) — time-based multi-key logic locking for sequential
//! circuits, together with every substrate the paper's evaluation depends
//! on: a gate-level netlist IR with `.bench` I/O, a cycle-accurate
//! simulator, a CDCL SAT solver, an FSM synthesis flow, benchmark
//! generators, the full oracle-guided / removal / dataflow attack suite,
//! and a 45nm-style overhead model.
//!
//! This crate is an umbrella: it re-exports the workspace crates and offers
//! a [`prelude`] for quick starts.
//!
//! ## Quick start
//!
//! ```
//! use cute_lock::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Lock the ISCAS'89 s27 with the paper's Table II schedule.
//! let original = cute_lock::circuits::s27::s27();
//! let schedule = KeySchedule::new(vec![
//!     KeyValue::from_u64(1, 2),
//!     KeyValue::from_u64(3, 2),
//!     KeyValue::from_u64(2, 2),
//!     KeyValue::from_u64(0, 2),
//! ]);
//! let locked = CuteLockStr::new(CuteLockStrConfig {
//!     keys: 4,
//!     key_bits: 2,
//!     locked_ffs: 1,
//!     seed: 1,
//!     schedule: Some(schedule),
//!     ..Default::default()
//! })
//! .lock(&original)?;
//!
//! // Correct key sequence: equivalent. Oracle-guided attack: dead end.
//! assert!(locked.verify_equivalence(300, 7)?);
//! let report = run_attack(&locked, &AttackSpec::new(AttackStrategy::Int));
//! assert!(report.outcome.defense_held());
//! # Ok(())
//! # }
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cutelock_attacks as attacks;
pub use cutelock_circuits as circuits;
pub use cutelock_core as locking;
pub use cutelock_fsm as fsm;
pub use cutelock_jobs as jobs;
pub use cutelock_netlist as netlist;
pub use cutelock_sat as sat;
pub use cutelock_sim as sim;
pub use cutelock_store as store;
pub use cutelock_synth as synth;

/// The most common imports in one place.
pub mod prelude {
    pub use cutelock_attacks::dana::{dana_attack_with_budget, nmi, score_against_ground_truth};
    pub use cutelock_attacks::fall::fall_attack_with;
    pub use cutelock_attacks::{
        run_attack, AttackBudget, AttackOutcome, AttackReport, AttackSpec, AttackStrategy,
        Portfolio,
    };
    pub use cutelock_circuits::{iscas89, itc99, synthezza, BenchmarkCircuit};
    pub use cutelock_core::baselines::{DkLock, SledLock, TtLock, XorLock};
    pub use cutelock_core::beh::{CuteLockBeh, CuteLockBehConfig, WrongfulPolicy};
    pub use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig, MuxTreeStyle};
    pub use cutelock_core::{KeySchedule, KeyValue, LockError, LockedCircuit, LockedOracle};
    pub use cutelock_fsm::detector::sequence_detector;
    pub use cutelock_fsm::{StateId, Stg};
    pub use cutelock_netlist::{bench, GateKind, Netlist, NetlistStats};
    pub use cutelock_sim::activity::switching_activity;
    pub use cutelock_sim::{Logic, NetlistOracle, ParallelSim, Pool, SequentialOracle, Simulator};
    pub use cutelock_synth::{analyze, CellLibrary, OverheadComparison};
}
