//! A from-scratch CDCL SAT solver and circuit-to-CNF encoder.
//!
//! Every oracle-guided attack in the Cute-Lock suite (SAT, BMC, KC2,
//! RANE-style) reduces to satisfiability queries. The paper relied on the
//! solvers embedded in NEOS and RANE; this crate provides the equivalent
//! substrate:
//!
//! * [`Solver`] — conflict-driven clause learning with two-watched literals,
//!   VSIDS branching, phase saving, Luby restarts, learnt-clause database
//!   reduction, **incremental solving under assumptions**, and
//!   activation-literal **scopes** ([`Solver::push_scope`] /
//!   [`Solver::pop_scope`]) for retractable clause groups — the mechanism
//!   that lets every BMC/DIP attack loop reuse one live solver across
//!   bounds instead of re-encoding from scratch;
//! * `encode` — the unified miter/encoding engine: [`CircuitEncoder`]
//!   owns netlist→CNF lowering and glue constraints, [`MiterBuilder`] wires
//!   shared-input miter copies and appends time frames incrementally —
//!   the one layer every attack and equivalence proof builds its SAT
//!   instances through;
//! * [`equiv`] — the one equivalence miter: two circuits' frames in one
//!   encoder, behind the simplify self-check and the designer-side
//!   certifier;
//! * [`tseitin`] — Tseitin encoding of combinational
//!   [`Netlist`](cutelock_netlist::Netlist)s plus gate-level helpers for
//!   building miters directly in CNF (the primitive layer under
//!   `encode`);
//! * `config` — portfolio diversification: [`SolverConfig`] perturbs
//!   variable ordering, polarities, and restart cadence per portfolio
//!   entrant, and [`Solver::set_stop`] gives racing callers a cooperative
//!   cancellation flag polled inside the search loop;
//! * `share` — deterministic clause sharing between portfolio entrants:
//!   [`ShareCap`]-gated learnt-clause exports ([`Solver::export_learnts`])
//!   merged into one canonical batch ([`merge_exports`]) and re-imported
//!   into every sibling ([`Solver::import_clauses`]) at each epoch
//!   barrier.
//!
//! The full pipeline walkthrough — including where every SAT instance in
//! the workspace comes from — lives in `docs/ARCHITECTURE.md` at the
//! repository root; the thread-count-independence rules this crate's
//! portfolio hooks must uphold are codified in `docs/DETERMINISM.md`.
//!
//! # Example
//!
//! ```
//! use cutelock_sat::{Lit, SatResult, Solver};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause(&[Lit::negative(a)]);
//! assert_eq!(solver.solve(), SatResult::Sat);
//! assert_eq!(solver.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod config;
pub(crate) mod encode;
pub mod equiv;
mod lit;
pub(crate) mod share;
mod solver;
pub mod tseitin;

pub use config::{PolarityMode, SolverConfig};
pub use encode::{Binding, CircuitEncoder, Frame, MiterBuilder, PortVals};
pub use lit::{Lit, Var};
pub use share::{merge_exports, ShareCap, SharedClause};
pub use solver::{SatResult, Solver, SolverStats};
