//! Filters, group-by, and summaries over an in-memory [`Table`].
//!
//! Everything here is deterministic by construction: groups are keyed by
//! their [`Value`] sequences and emitted sorted under `Value::total_cmp`,
//! so the same table always yields the same report — regardless of row
//! order within groups, the permutation property the store's property
//! tests pin.

use crate::agg;
use crate::table::Table;
use crate::{StoreError, Value};

/// The summary of one group: its key values plus order statistics of the
/// chosen metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// The group's key cells, in `group_by` column order.
    pub key: Vec<Value>,
    /// Rows in the group.
    pub count: usize,
    /// Smallest metric value.
    pub min: f64,
    /// Largest metric value.
    pub max: f64,
    /// Median metric value (even lengths average the two middles).
    pub median: f64,
    /// Requested `(p, value)` nearest-rank percentiles.
    pub percentiles: Vec<(f64, f64)>,
}

/// The row indices of `table` matching every `(column, value)` equality
/// filter. An empty filter list matches every row.
pub(crate) fn filter_rows(
    table: &Table,
    filters: &[(&str, Value)],
) -> Result<Vec<usize>, StoreError> {
    let mut cols = Vec::with_capacity(filters.len());
    for (name, want) in filters {
        let idx = table
            .schema()
            .index_of(name)
            .ok_or_else(|| StoreError::Query(format!("unknown filter column '{name}'")))?;
        if table.schema().columns()[idx].1 != want.column_type() {
            return Err(StoreError::Query(format!(
                "filter on '{}' compares a {} column against a {} value",
                name,
                table.schema().columns()[idx].1,
                want.column_type()
            )));
        }
        cols.push((idx, want));
    }
    Ok((0..table.rows())
        .filter(|&r| cols.iter().all(|(c, want)| &table.value(r, *c) == *want))
        .collect())
}

/// Groups the filtered rows of `table` by the `group_by` columns and
/// summarizes `metric` (a numeric column) in each group.
///
/// Groups come back sorted by their key sequence under
/// `Value::total_cmp`; `u64` metrics are aggregated in integer domain
/// (exact medians) and only cast to `f64` at the edge.
pub fn group_by(
    table: &Table,
    group_by: &[&str],
    metric: &str,
    filters: &[(&str, Value)],
    percentiles: &[f64],
) -> Result<Vec<GroupSummary>, StoreError> {
    let metric_idx = table
        .schema()
        .index_of(metric)
        .ok_or_else(|| StoreError::Query(format!("unknown metric column '{metric}'")))?;
    let metric_ty = table.schema().columns()[metric_idx].1;
    if !matches!(metric_ty, crate::ColumnType::U64 | crate::ColumnType::F64) {
        return Err(StoreError::Query(format!(
            "metric '{metric}' is {metric_ty}; only u64/f64 columns aggregate"
        )));
    }
    let mut key_idx = Vec::with_capacity(group_by.len());
    for name in group_by {
        key_idx.push(
            table
                .schema()
                .index_of(name)
                .ok_or_else(|| StoreError::Query(format!("unknown group-by column '{name}'")))?,
        );
    }

    // Collect (key, metric) pairs, then sort by key for deterministic
    // grouping — no hash maps, no insertion-order dependence.
    let rows = filter_rows(table, filters)?;
    let mut pairs: Vec<(Vec<Value>, Value)> = rows
        .into_iter()
        .map(|r| {
            let key: Vec<Value> = key_idx.iter().map(|&c| table.value(r, c)).collect();
            (key, table.value(r, metric_idx))
        })
        .collect();
    pairs.sort_by(|a, b| cmp_keys(&a.0, &b.0));

    let mut out = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i + 1;
        while j < pairs.len() && cmp_keys(&pairs[i].0, &pairs[j].0).is_eq() {
            j += 1;
        }
        let metrics: Vec<&Value> = pairs[i..j].iter().map(|(_, m)| m).collect();
        out.push(summarize(pairs[i].0.clone(), &metrics, percentiles));
        i = j;
    }
    Ok(out)
}

fn cmp_keys(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if !ord.is_eq() {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn summarize(key: Vec<Value>, metrics: &[&Value], percentiles: &[f64]) -> GroupSummary {
    // u64 metrics stay in integer domain for exact medians.
    let all_u64 = metrics.iter().all(|m| matches!(m, Value::U64(_)));
    if all_u64 {
        let mut s: Vec<u64> = metrics
            .iter()
            .map(|m| match m {
                Value::U64(v) => *v,
                _ => unreachable!(),
            })
            .collect();
        s.sort_unstable();
        GroupSummary {
            key,
            count: s.len(),
            min: *s.first().expect("non-empty group") as f64,
            max: *s.last().expect("non-empty group") as f64,
            median: agg::median_u64(&s).expect("non-empty group") as f64,
            percentiles: percentiles
                .iter()
                .map(|&p| (p, agg::percentile_u64(&s, p).unwrap_or(0) as f64))
                .collect(),
        }
    } else {
        let mut s: Vec<f64> = metrics
            .iter()
            .map(|m| m.as_f64().expect("metric type checked"))
            .collect();
        s.sort_by(f64::total_cmp);
        GroupSummary {
            key,
            count: s.len(),
            min: *s.first().expect("non-empty group"),
            max: *s.last().expect("non-empty group"),
            median: agg::median_f64(&s).expect("non-empty group"),
            percentiles: percentiles
                .iter()
                .map(|&p| (p, agg::percentile_f64(&s, p).unwrap_or(0.0)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Schema;
    use crate::ColumnType;

    fn table() -> Table {
        let mut t = Table::new(Schema::new(&[
            ("circuit", ColumnType::Str),
            ("scheme", ColumnType::Str),
            ("conflicts", ColumnType::U64),
        ]));
        let rows = [
            ("s27", "beh", 10u64),
            ("s27", "beh", 30),
            ("s27", "str", 5),
            ("b01", "beh", 100),
            ("b01", "str", 7),
            ("s27", "beh", 20),
        ];
        for (c, s, n) in rows {
            t.push(&[Value::str(c), Value::str(s), Value::U64(n)])
                .unwrap();
        }
        t
    }

    #[test]
    fn filters_are_equality_and_composable() {
        let t = table();
        assert_eq!(filter_rows(&t, &[]).unwrap().len(), 6);
        let rows = filter_rows(
            &t,
            &[
                ("circuit", Value::str("s27")),
                ("scheme", Value::str("beh")),
            ],
        )
        .unwrap();
        assert_eq!(rows, vec![0, 1, 5]);
        assert!(filter_rows(&t, &[("nope", Value::U64(0))]).is_err());
        assert!(
            filter_rows(&t, &[("circuit", Value::U64(0))]).is_err(),
            "type-mismatched filter"
        );
    }

    #[test]
    fn group_by_sorts_groups_and_aggregates_exactly() {
        let t = table();
        let groups = group_by(&t, &["circuit", "scheme"], "conflicts", &[], &[90.0]).unwrap();
        let keys: Vec<String> = groups
            .iter()
            .map(|g| format!("{}/{}", g.key[0], g.key[1]))
            .collect();
        assert_eq!(keys, ["b01/beh", "b01/str", "s27/beh", "s27/str"]);
        let s27_beh = &groups[2];
        assert_eq!(s27_beh.count, 3);
        assert_eq!(s27_beh.min, 10.0);
        assert_eq!(s27_beh.max, 30.0);
        assert_eq!(s27_beh.median, 20.0);
        assert_eq!(s27_beh.percentiles, vec![(90.0, 30.0)]);
    }

    #[test]
    fn group_by_respects_filters_and_rejects_bad_metrics() {
        let t = table();
        let groups = group_by(
            &t,
            &["scheme"],
            "conflicts",
            &[("circuit", Value::str("b01"))],
            &[],
        )
        .unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].key, vec![Value::str("beh")]);
        assert_eq!(groups[0].median, 100.0);
        assert!(group_by(&t, &["scheme"], "circuit", &[], &[]).is_err());
        assert!(group_by(&t, &["scheme"], "nope", &[], &[]).is_err());
    }

    #[test]
    fn empty_group_by_is_one_global_group() {
        let t = table();
        let groups = group_by(&t, &[], "conflicts", &[], &[50.0]).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].count, 6);
        assert!(groups[0].key.is_empty());
    }
}
