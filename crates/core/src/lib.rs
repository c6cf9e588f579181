//! Cute-Lock: time-based multi-key logic locking (the paper's contribution).
//!
//! This crate implements the **Cute-Lock family** of DATE 2025 — sequential
//! logic locking in which a free-running counter determines *which* key
//! value must be present at the key port in each clock cycle:
//!
//! * [`beh::CuteLockBeh`] — the RTL-level behavioral variant: the locked
//!   design takes a *wrongful state transition* whenever the key applied in
//!   a cycle differs from the scheduled key for the current counter time;
//! * [`str_lock::CuteLockStr`] — the netlist-level structural variant: a MUX
//!   tree in front of selected flip-flops re-routes each one to *repurposed
//!   hardware* (the next-state cone of a different flip-flop) under wrong
//!   keys, adding almost no new logic — the property that defeats removal
//!   and dataflow attacks.
//!
//! Baseline schemes required by the paper's evaluation are provided in
//! [`baselines`]: random XOR locking (RLL/EPIC), TTLock and DK-Lock, plus a
//! SLED-style dynamic-key scheme as an extension.
//!
//! Every random-simulation check runs on one 64-lane miter, the locked
//! circuit beside the original with 64 stimulus lanes per cycle:
//! [`LockedCircuit::verify_equivalence`] feeds it the correct schedule,
//! and [`LockedCircuit::wide_corruption_rate`] and
//! [`LockedCircuit::wide_key_matches`] a constant key. The workspace's
//! scoped work-stealing thread [`Pool`] is re-exported here from
//! [`cutelock_sim::pool`].
//!
//! Every front end names a scheme the same way, through [`lock_named`],
//! and reads its flags through one grammar, [`args::Flags`].
//!
//! # Example
//!
//! ```
//! use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
//! use cutelock_circuits::s27::s27;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let original = s27();
//! let locked = CuteLockStr::new(CuteLockStrConfig {
//!     keys: 4,
//!     key_bits: 2,
//!     locked_ffs: 1,
//!     seed: 1,
//!     ..Default::default()
//! })
//! .lock(&original)?;
//! // With the correct key sequence the locked circuit matches the original.
//! assert!(locked.verify_equivalence(200, 7)?);
//! # Ok(())
//! # }
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod baselines;
pub mod beh;
pub mod clock;
mod counter;
pub mod fingerprint;
mod key;
mod locked;
pub mod str_lock;

pub(crate) use counter::insert_mod_counter;
pub use cutelock_sim::pool::{self, Pool};
pub use key::{KeySchedule, KeyValue};
pub use locked::{LockError, LockedCircuit, LockedOracle};

/// Locks `netlist` with the scheme a front end names: `str`
/// (Cute-Lock-Str under `config`), or the baseline `xor`, `ttlock`,
/// `dklock` or `sled` at `config.key_bits` and `config.seed`. An unknown
/// scheme, or the lock's own error, comes back as a message.
pub fn lock_named(
    scheme: &str,
    netlist: &cutelock_netlist::Netlist,
    config: str_lock::CuteLockStrConfig,
) -> Result<LockedCircuit, String> {
    let (ki, seed) = (config.key_bits, config.seed);
    match scheme {
        "str" => str_lock::CuteLockStr::new(config).lock(netlist),
        "xor" => baselines::XorLock::new(ki, seed).lock(netlist),
        "ttlock" => baselines::TtLock::new(ki, seed).lock(netlist),
        "dklock" => baselines::DkLock::new(ki, ki, seed).lock(netlist),
        "sled" => baselines::SledLock::new(ki, seed).lock(netlist),
        other => return Err(format!("unknown scheme `{other}`")),
    }
    .map_err(|e| e.to_string())
}
