//! Library backing the `cutelock` command-line front end.
//!
//! The binary in `src/main.rs` is a thin wrapper over this crate:
//! [`commands`] implements the subcommands (`bench`, `stats`, `lock`,
//! `attack`, `verify`, `overhead`, `convert`, `report`, `serve`,
//! `client`) on top of the workspace crates. Each subcommand reads its
//! flags through `cutelock_core::args::Flags`, the one grammar the table
//! bins and the daemon read too: a flag the subcommand does not read, or
//! a flag given twice, is an error, and `--portfolio` must lie in
//! `1..=64`. Splitting the logic into a library keeps every piece
//! unit-testable and lets [`commands::dispatch`] be driven directly from
//! integration tests.
//!
//! # Example
//!
//! ```
//! use cutelock_cli::commands::dispatch;
//!
//! let argv = |words: &[&str]| words.iter().map(ToString::to_string).collect::<Vec<_>>();
//! // No subcommand prints the help text.
//! assert!(dispatch(&argv(&[])).is_ok());
//! // A flag the subcommand does not read fails fast.
//! let err = dispatch(&argv(&["stats", "--in", "x.bench", "--nope", "1"])).unwrap_err();
//! assert_eq!(err, "unknown flag --nope");
//! // So does a flag given twice.
//! let err = dispatch(&argv(&["stats", "--in", "a.bench", "--in", "b.bench"])).unwrap_err();
//! assert_eq!(err, "--in given twice");
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
