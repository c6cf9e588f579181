//! Library backing the `cutelock` command-line front end.
//!
//! The binary in `src/main.rs` is a thin wrapper over this crate:
//! [`args`] parses `--flag value` / boolean-flag argument lists with no
//! third-party dependency, rejecting any flag a subcommand does not read, and [`commands`] implements the subcommands
//! (`bench`, `stats`, `lock`, `attack`, `verify`, `overhead`, `convert`) on top of
//! the workspace crates. Splitting the logic into a library keeps every
//! piece unit-testable and lets [`commands::dispatch`] be driven directly
//! from integration tests.
//!
//! # Example
//!
//! ```
//! use cutelock_cli::args::Args;
//!
//! # fn main() -> Result<(), String> {
//! let argv: Vec<String> = ["--mode", "sat", "--quick"]
//!     .iter()
//!     .map(ToString::to_string)
//!     .collect();
//! let args = Args::parse(&argv, &["mode", "timeout"], &["quick"])?;
//! assert_eq!(args.req("mode")?, "sat");
//! assert!(args.has("quick"));
//! assert_eq!(args.num("timeout", 60u64)?, 60);
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
pub mod commands;
