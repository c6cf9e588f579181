//! The run database: an append-only, columnar store for attack and bench
//! results.
//!
//! Every producer in the workspace — `cutelock attack --store`, the
//! `table3`/`table4`/`table5` bins, and the criterion shim — used to print
//! its numbers and forget them. This crate gives those numbers a durable,
//! diffable home:
//!
//! * **columnar tables** ([`table`]) — typed columns
//!   ([`ColumnType::U64`]/[`F64`](ColumnType::F64)/[`Bool`](ColumnType::Bool)/
//!   [`Str`](ColumnType::Str)) stored in fixed-size chunks of
//!   [`CHUNK_ROWS`](table::CHUNK_ROWS) rows;
//! * **dictionary interning** (`dict`) — circuit/scheme/strategy names are
//!   stored once and referenced by `u32` codes assigned in first-seen order,
//!   so the same run sequence always produces the same codes;
//! * **an append-only on-disk format** ([`mod@format`]) — a streaming
//!   [`Writer`](format::Writer) emits dictionary-delta and chunk frames
//!   behind a fixed header; [`read_table`](format::read_table) replays them
//!   sequentially (no mmap, no seeking) into an in-memory [`Table`];
//! * **a query/aggregation layer** ([`query`], [`agg`]) — equality filters,
//!   group-by with **deterministic group ordering**, and
//!   count/min/max/median/percentile summaries. The criterion shim's
//!   `Measurement` reuses [`agg`] verbatim, so one implementation of the
//!   median/Tukey-IQR math serves both benches and reports.
//!
//! Determinism contract: every column a producer writes is either derived
//! from deterministic search state (verdicts, iteration/conflict counts,
//! virtual-clock elapsed) or documented as wall-clock and excluded from
//! byte-level comparisons — see `docs/DETERMINISM.md` Rule 9. Two identical
//! runs therefore produce **byte-identical** store files, which is what the
//! golden tests in `crates/cli/tests/` and `crates/bench/tests/` pin.
//!
//! # Example
//!
//! ```
//! use cutelock_store::format::{read_table, Writer};
//! use cutelock_store::{ColumnType, Schema, Value};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("runs.clk");
//!
//! let schema = Schema::new(&[("circuit", ColumnType::Str), ("conflicts", ColumnType::U64)]);
//! let mut w = Writer::open(&path, schema.clone()).unwrap();
//! w.push(&[Value::str("s27"), Value::U64(41)]).unwrap();
//! w.push(&[Value::str("b01"), Value::U64(97)]).unwrap();
//! w.finish().unwrap();
//!
//! let t = read_table(&path).unwrap();
//! assert_eq!(t.rows(), 2);
//! assert_eq!(t.value(1, 0), Value::str("b01"));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub(crate) mod column;
pub(crate) mod dict;
pub mod format;
pub mod query;
pub mod table;
pub mod trajectory;

pub use dict::Dictionary;
pub use table::{Schema, Table};

use std::cmp::Ordering;
use std::fmt;

/// The type of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Unsigned 64-bit integers (counts, seeds, nanoseconds).
    U64,
    /// 64-bit floats (scores, rates).
    F64,
    /// Booleans (flags like `decisive`).
    Bool,
    /// Dictionary-interned strings (circuit/scheme/strategy names).
    Str,
}

impl ColumnType {
    /// The on-disk tag byte for this type (see [`mod@format`]).
    pub(crate) fn tag(self) -> u8 {
        match self {
            ColumnType::U64 => 0,
            ColumnType::F64 => 1,
            ColumnType::Bool => 2,
            ColumnType::Str => 3,
        }
    }

    /// The inverse of [`ColumnType::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ColumnType::U64),
            1 => Some(ColumnType::F64),
            2 => Some(ColumnType::Bool),
            3 => Some(ColumnType::Str),
            _ => None,
        }
    }

    /// The lowercase name used in error messages and `report` output.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ColumnType::U64 => "u64",
            ColumnType::F64 => "f64",
            ColumnType::Bool => "bool",
            ColumnType::Str => "str",
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One cell value, as pushed by producers and returned by queries.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A [`ColumnType::U64`] cell.
    U64(u64),
    /// A [`ColumnType::F64`] cell.
    F64(f64),
    /// A [`ColumnType::Bool`] cell.
    Bool(bool),
    /// A [`ColumnType::Str`] cell (interned on push).
    Str(String),
}

impl Value {
    /// Convenience constructor for string cells.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// The column type this value belongs in.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::U64(_) => ColumnType::U64,
            Value::F64(_) => ColumnType::F64,
            Value::Bool(_) => ColumnType::Bool,
            Value::Str(_) => ColumnType::Str,
        }
    }

    /// A total order over values (floats via `total_cmp`, types by tag) —
    /// what gives group-by output its deterministic ordering.
    pub(crate) fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a.cmp(b),
            (Value::F64(a), Value::F64(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => a.column_type().tag().cmp(&b.column_type().tag()),
        }
    }

    /// This value as an aggregation metric, if numeric.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
        }
    }
}

/// Everything that can go wrong in the store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a store file, or a frame is truncated/malformed.
    Corrupt(String),
    /// A schema/arity/type mismatch between caller and table.
    Schema(String),
    /// A query referenced an unknown column or an unusable metric.
    Query(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Schema(m) => write!(f, "schema mismatch: {m}"),
            StoreError::Query(m) => write!(f, "bad query: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags_round_trip() {
        for t in [
            ColumnType::U64,
            ColumnType::F64,
            ColumnType::Bool,
            ColumnType::Str,
        ] {
            assert_eq!(ColumnType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(ColumnType::from_tag(9), None);
    }

    #[test]
    fn value_total_order_is_total() {
        let vals = [
            Value::U64(3),
            Value::F64(1.5),
            Value::F64(f64::NAN),
            Value::Bool(true),
            Value::str("b"),
        ];
        for a in &vals {
            assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals {
                assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse());
            }
        }
        assert_eq!(Value::U64(1).total_cmp(&Value::U64(2)), Ordering::Less);
        assert_eq!(Value::str("a").total_cmp(&Value::str("b")), Ordering::Less);
    }

    #[test]
    fn as_f64_covers_numerics_only() {
        assert_eq!(Value::U64(7).as_f64(), Some(7.0));
        assert_eq!(Value::F64(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Bool(true).as_f64(), None);
        assert_eq!(Value::str("x").as_f64(), None);
    }
}
