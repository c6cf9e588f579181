//! Property tests for the store core: encode/decode round-trips,
//! session-split appends, and group-by permutation invariance.
//!
//! The proptest shim only offers integer-range and `vec` strategies, so all
//! typed cells are derived from `u64` draws: floats via a scaled
//! remainder, booleans via parity, strings from a small name pool.

use cutelock_store::format::{read_table, Writer};
use cutelock_store::query::group_by;
use cutelock_store::{ColumnType, Schema, Table, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(&[
        ("circuit", ColumnType::Str),
        ("conflicts", ColumnType::U64),
        ("rate", ColumnType::F64),
        ("decisive", ColumnType::Bool),
    ])
}

/// One row derived entirely from a `u64` draw. Floats are kept finite and
/// non-NaN so `PartialEq` row comparisons stay meaningful.
fn derive_row(x: u64) -> Vec<Value> {
    let name = format!("c{}", x % 11);
    let rate = (x % 10_000) as f64 / 7.0;
    vec![
        Value::str(name),
        Value::U64(x),
        Value::F64(rate),
        Value::Bool(x.count_ones() % 2 == 0),
    ]
}

fn tmp(name: &str, salt: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cutelock-store-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{salt}.clk"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever rows go through the writer come back, in order, with every
    /// cell intact.
    #[test]
    fn encode_decode_round_trips(xs in proptest::collection::vec(0u64..u64::MAX, 1..40),
                                 salt in 0u64..u64::MAX) {
        let path = tmp("roundtrip", salt);
        std::fs::remove_file(&path).ok();
        let rows: Vec<Vec<Value>> = xs.iter().map(|&x| derive_row(x)).collect();
        let mut w = Writer::open(&path, schema()).unwrap();
        for row in &rows {
            w.push(row).unwrap();
        }
        w.finish().unwrap();
        let t = read_table(&path).unwrap();
        prop_assert_eq!(t.rows(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(&t.row(i), row);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Appending in two sessions reads back equal to one uninterrupted
    /// session.
    #[test]
    fn chunk_boundary_append_equals_single_session(extra in 0u64..24, split in 0u64..24,
                                                   salt in 0u64..u64::MAX) {
        let total = 244 + extra;
        let split = split.min(total);
        let once = tmp("once", salt);
        let twice = tmp("twice", salt);
        std::fs::remove_file(&once).ok();
        std::fs::remove_file(&twice).ok();

        let mut w = Writer::open(&once, schema()).unwrap();
        for i in 0..total {
            w.push(&derive_row(i.wrapping_mul(0x9e37_79b9))).unwrap();
        }
        w.finish().unwrap();

        let mut w = Writer::open(&twice, schema()).unwrap();
        for i in 0..split {
            w.push(&derive_row(i.wrapping_mul(0x9e37_79b9))).unwrap();
        }
        w.finish().unwrap();
        let mut w = Writer::open(&twice, schema()).unwrap();
        for i in split..total {
            w.push(&derive_row(i.wrapping_mul(0x9e37_79b9))).unwrap();
        }
        w.finish().unwrap();

        let a = read_table(&once).unwrap();
        let b = read_table(&twice).unwrap();
        prop_assert_eq!(a.rows(), b.rows());
        for i in 0..a.rows() {
            prop_assert_eq!(a.row(i), b.row(i));
        }
        std::fs::remove_file(&once).ok();
        std::fs::remove_file(&twice).ok();
    }

    /// Group-by summaries do not depend on row order: any permutation of
    /// the input rows yields the identical sorted group list.
    #[test]
    fn group_by_is_permutation_invariant(xs in proptest::collection::vec(0u64..u64::MAX, 1..50),
                                         swaps in proptest::collection::vec(0usize..usize::MAX, 0..40)) {
        let rows: Vec<Vec<Value>> = xs.iter().map(|&x| derive_row(x)).collect();
        let mut shuffled = rows.clone();
        for (k, &s) in swaps.iter().enumerate() {
            let i = s % shuffled.len();
            let j = (s / 7 + k) % shuffled.len();
            shuffled.swap(i, j);
        }

        let mut t1 = Table::new(schema());
        let mut t2 = Table::new(schema());
        for r in &rows {
            t1.push(r).unwrap();
        }
        for r in &shuffled {
            t2.push(r).unwrap();
        }
        let g1 = group_by(&t1, &["circuit", "decisive"], "conflicts", &[], &[50.0, 90.0]).unwrap();
        let g2 = group_by(&t2, &["circuit", "decisive"], "conflicts", &[], &[50.0, 90.0]).unwrap();
        prop_assert_eq!(g1, g2);
    }
}
