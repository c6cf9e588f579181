//! Job scheduling and the `cutelock serve` daemon.
//!
//! This crate turns the attack pipeline into a long-lived service without
//! changing a line of attack code: every job is an
//! [`AttackSpec`](cutelock_attacks::AttackSpec)-shaped request driven
//! through the same [`run_attack`](cutelock_attacks::run_attack) door the
//! CLI subcommands and the table bins use.
//!
//! Three layers, strictly ordered:
//!
//! * `queue` — the **pure scheduler core**: FIFO admission with an
//!   express/batch fairness lane (cheap `verify` jobs are never starved
//!   behind hour-long attacks), per-job stop flags wired into the SAT
//!   solvers' cooperative-cancellation slots (a `CANCEL` on a running
//!   attack unwinds within one portfolio epoch), job lifecycle states
//!   (queued → running → done/cancelled/failed), and an in-memory result
//!   cache keyed by content fingerprint. No sockets, no stdio — it is
//!   unit-tested entirely in-process.
//! * `request` — the `SUBMIT` grammar: one line of text into a lane,
//!   a cache key, and a work closure (attacks, equivalence verification,
//!   and pigeonhole SAT instances as deterministic long-running test
//!   jobs).
//! * `server` / `client` — the thin TCP framing shim: a
//!   `std::net::TcpListener` line protocol (`SUBMIT` / `STATUS` /
//!   `RESULT` / `CANCEL` / `SHUTDOWN`; no async runtime, the build
//!   environment is offline) and the matching blocking client.
//!
//! Determinism contract (see `docs/DETERMINISM.md`): given the same
//! `SUBMIT` line, a job's *result* is a pure function of its spec — which
//! is what makes the result cache sound. Cross-job *completion order*
//! under concurrency is explicitly not deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod client;
pub(crate) mod queue;
pub(crate) mod request;
pub(crate) mod server;

pub use client::Client;
pub use request::{parse_submit, Limits};
pub use server::{ServeConfig, Server};
