//! The run database: an append-only store of typed rows for attack and
//! bench results, kept as plain text with one line per row.
//!
//! Every producer in the workspace — `cutelock attack --store`, the
//! `table3`/`table4`/`table5` bins, and the criterion shim — used to print
//! its numbers and forget them. This crate gives those numbers a durable,
//! diffable home:
//!
//! * **tables** ([`table`]) — a [`Schema`] of typed columns
//!   ([`ColumnType::U64`]/[`F64`](ColumnType::F64)/[`Bool`](ColumnType::Bool)/
//!   [`Str`](ColumnType::Str)) plus its rows;
//! * **an append-only text format** ([`mod@format`]) — a header line, one
//!   tab-separated line per row, and an `\end` line closing each
//!   [`Writer`](format::Writer) session; [`read_table`](format::read_table)
//!   reads it back in one forward pass, keeping only finished sessions;
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
pub mod format;
pub mod query;
pub mod table;
pub mod trajectory;

pub use table::{Schema, Table};

use std::cmp::Ordering;
use std::fmt;

/// The type of one column. Declaration order is how group-by orders
/// values of different types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ColumnType {
    /// Unsigned 64-bit integers (counts, seeds, nanoseconds).
    U64,
    /// 64-bit floats (scores, rates).
    F64,
    /// Booleans (flags like `decisive`).
    Bool,
    /// Strings (circuit/scheme/strategy names).
    Str,
}

impl ColumnType {
    /// The lowercase name used in store headers, error messages and
    /// `report` output.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ColumnType::U64 => "u64",
            ColumnType::F64 => "f64",
            ColumnType::Bool => "bool",
            ColumnType::Str => "str",
        }
    }

    /// The inverse of [`ColumnType::name`].
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        [
            ColumnType::U64,
            ColumnType::F64,
            ColumnType::Bool,
            ColumnType::Str,
        ]
        .into_iter()
        .find(|t| t.name() == name)
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
    /// A [`ColumnType::Str`] cell.
    Str(String),
}

impl Value {
    /// Convenience constructor for string cells.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Parses a cell of type `ty` from its [`Display`](fmt::Display) text:
    /// the one cell parser behind the store reader and `cutelock report
    /// --where`. `None` when `text` is not a value of that type.
    pub fn parse(ty: ColumnType, text: &str) -> Option<Value> {
        Some(match ty {
            ColumnType::U64 => Value::U64(text.parse().ok()?),
            ColumnType::F64 => Value::F64(text.parse().ok()?),
            ColumnType::Bool => Value::Bool(text.parse().ok()?),
            ColumnType::Str => Value::str(text),
        })
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

    /// A total order over values (floats via `total_cmp`, mixed types by
    /// [`ColumnType`] order) —
    /// what gives group-by output its deterministic ordering.
    pub(crate) fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a.cmp(b),
            (Value::F64(a), Value::F64(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => a.column_type().cmp(&b.column_type()),
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
    /// The file is not a store file, or a whole line in it is malformed.
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
    fn parse_inverts_display_exactly() {
        let vals = [
            Value::U64(u64::MAX),
            Value::F64(0.1 + 0.2),
            Value::F64(-0.0),
            Value::F64(f64::MIN_POSITIVE / 3.0),
            Value::F64(1e300),
            Value::F64(f64::NEG_INFINITY),
            Value::Bool(false),
            Value::str(" s27 "),
        ];
        for v in vals {
            let back = Value::parse(v.column_type(), &v.to_string()).unwrap();
            assert_eq!(back.total_cmp(&v), Ordering::Equal, "{v}");
        }
        assert!(matches!(
            Value::parse(ColumnType::F64, &f64::NAN.to_string()),
            Some(Value::F64(x)) if x.is_nan()
        ));
        assert_eq!(Value::parse(ColumnType::U64, "-1"), None);
        assert_eq!(Value::parse(ColumnType::Bool, "1"), None);
    }

    #[test]
    fn as_f64_covers_numerics_only() {
        assert_eq!(Value::U64(7).as_f64(), Some(7.0));
        assert_eq!(Value::F64(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Bool(true).as_f64(), None);
        assert_eq!(Value::str("x").as_f64(), None);
    }
}
