//! Attacks on logic locking: the evaluation substrate of the Cute-Lock paper.
//!
//! The paper tests its locks against the NEOS attack suite (`bbo`, `int`,
//! KC2 modes), RANE, FALL and DANA — all external tools. This crate
//! re-implements the published algorithms on the workspace's own SAT solver
//! and simulators:
//!
//! * `sat_attack` — the combinational oracle-guided SAT attack
//!   (Subramanyan et al.), applied through the full-scan view;
//! * `bmc` — sequential unrolling attacks: `BBO` and `INT`, both running
//!   on one persistent incremental solver (frames appended per bound, the
//!   per-bound miter constraint in a retractable solver scope);
//! * `kc2` — key-condition crunching: incremental BMC plus key-bit
//!   fixation, after Shamsi et al.;
//! * `rane` — RANE-style formal attack modeling the initial state as a
//!   secret;
//! * [`fall`] — FALL-style functional analysis (comparator detection +
//!   candidate extraction + SAT verification), oracle-less;
//! * [`dana`] — DANA-style dataflow register clustering, scored with
//!   [`dana::nmi`] against ground-truth register words;
//! * [`portfolio`] — deterministic portfolio racing: every oracle-guided
//!   attack accepts a [`Portfolio`] that races diversified solver clones
//!   per DIP/BMC query across [`Pool`](cutelock_sim::pool::Pool) threads
//!   (bit-identical for any thread count).
//!
//! Every attack that ends in a verdict — the oracle-less FALL included —
//! is driven through **one door**: build an [`AttackSpec`] (strategy +
//! budget + portfolio) and call [`run_attack`] — the request type the CLI
//! subcommands, the table bins, and the `cutelock serve` job daemon
//! share. Only two functions sit beside it, each because it returns more
//! than an [`AttackReport`]: [`fall::fall_attack_with`] (FALL's confirmed
//! key list) and [`dana::dana_attack_with_budget`] (register clustering,
//! which has no oracle and no verdict).
//!
//! The full pipeline walkthrough lives in `docs/ARCHITECTURE.md` at the
//! repository root; the determinism rules the portfolio layer upholds are
//! codified in `docs/DETERMINISM.md`.
//!
//! Every oracle-guided attack reports an [`AttackOutcome`] matching the
//! paper's table legend: key found (green), wrong key (`x..x`), `CNS`
//! ("condition not solvable"), `FAIL`, or timeout (`N/A`). Every attack —
//! including the oracle-less [`fall`] and [`dana`] — enforces
//! [`AttackBudget::timeout`] as a hard wall-clock deadline.
//!
//! None of these modules touch CNF directly: every miter — the scan-access
//! two-copy model, the frame-appending BMC chains, FALL's confirmation
//! check, and the certifier's unrolled equivalence instances — is built
//! through the unified encoding engine in
//! `cutelock_sat::encode`
//! ([`CircuitEncoder`](cutelock_sat::CircuitEncoder) /
//! [`MiterBuilder`](cutelock_sat::MiterBuilder)).
//!
//! The seven oracle-guided strategies share one DIP loop, written once in
//! the private `dip` module: hunt for a discriminating input, learn it as
//! oracle constraints, check that some constant key is still consistent
//! (`CNS` when none is), and finally extract and verify a key. Each attack
//! module holds only its miter — how its copies are encoded and how one
//! discriminating input becomes constraints — and the order of its hunts:
//! the scan model's two key copies (SAT, AppSAT with its settle step,
//! Double-DIP with a third copy for its first hunt) and the unrolled
//! frame chains (BBO/INT, KC2's key-bit fixation, RANE's secret initial
//! state).
//!
//! # Example
//!
//! The oracle-less FALL attack breaks TTLock but finds nothing on
//! Cute-Lock (the paper's Table V contrast):
//!
//! ```
//! use cutelock_attacks::{run_attack, AttackOutcome, AttackSpec, AttackStrategy};
//! use cutelock_circuits::s27::s27;
//! use cutelock_core::baselines::TtLock;
//!
//! # fn main() -> Result<(), cutelock_core::LockError> {
//! let locked = TtLock::new(4, 3).lock(&s27())?;
//! let report = run_attack(&locked, &AttackSpec::new(AttackStrategy::Fall));
//! assert!(matches!(report.outcome, AttackOutcome::KeyFound(_)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod appsat;
pub(crate) mod bmc;
pub mod certify;
pub mod dana;
mod dip;
pub mod fall;
pub(crate) mod kc2;
mod outcome;
pub mod portfolio;
pub(crate) mod rane;
pub(crate) mod record;
pub(crate) mod sat_attack;
mod scan;
pub(crate) mod spec;

pub use outcome::{AttackBudget, AttackOutcome, AttackReport, RunStats};
pub use portfolio::Portfolio;
pub use record::{write_records, RunRecord};
pub use spec::{run_attack, simplify_locked, AttackSpec, AttackStrategy};
