//! The run record: one attack run flattened into a [`cutelock_store`] row.
//!
//! Every producer — `cutelock attack --store`, the table bins, custom
//! harnesses — goes through [`RunRecord`] so the column set stays in one
//! place and every store file in the workspace shares the same schema
//! ([`RunRecord::schema`]).
//!
//! Determinism contract (`docs/DETERMINISM.md` Rule 9): every column is a
//! function of the spec and the search, except `elapsed_ns`, which is only
//! recorded when the spec's budget runs on a **virtual clock** (where
//! "time" is itself deterministic); under a wall clock it is written as 0
//! so two identical runs always produce byte-identical store files.

use cutelock_core::clock::ClockHandle;
use cutelock_core::LockedCircuit;
use cutelock_store::format::Writer;
use cutelock_store::{ColumnType, Schema, StoreError, Value};

use crate::spec::AttackSpec;
use crate::AttackReport;

/// One attack run, flattened to the store's row shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Circuit name (e.g. `s27`).
    pub circuit: String,
    /// Locking scheme (e.g. `CuteLockStr`).
    pub scheme: String,
    /// Keys in the schedule.
    pub keys: u64,
    /// Bits per key.
    pub key_bits: u64,
    /// The lock's construction seed.
    pub seed: u64,
    /// Attack strategy name (e.g. `sat`, `int`, `fall`).
    pub strategy: String,
    /// The paper-legend verdict label (e.g. `CNS`, `Equal`, `N/A`).
    pub verdict: String,
    /// True when the verdict decides the cell (see `AttackSpec::is_decisive`).
    pub decisive: bool,
    /// DIP iterations performed.
    pub iterations: u64,
    /// Final unrolling bound reached.
    pub bound: u64,
    /// SAT conflicts (deterministic at any thread count).
    pub conflicts: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Learnt-clause garbage collections.
    pub gc_runs: u64,
    /// Learnt clauses freed by GC.
    pub gc_freed_clauses: u64,
    /// Clauses exported to the share ledger.
    pub shared_exported: u64,
    /// Clauses imported from the share ledger.
    pub shared_imported: u64,
    /// Duplicate shared clauses dropped.
    pub shared_dup_dropped: u64,
    /// Elapsed nanoseconds — **only** when the budget ran on a virtual
    /// clock; 0 under a wall clock (Rule 9).
    pub elapsed_ns: u64,
}

impl RunRecord {
    /// The store schema every run record writes under.
    pub(crate) fn schema() -> Schema {
        Schema::new(&[
            ("circuit", ColumnType::Str),
            ("scheme", ColumnType::Str),
            ("keys", ColumnType::U64),
            ("key_bits", ColumnType::U64),
            ("seed", ColumnType::U64),
            ("strategy", ColumnType::Str),
            ("verdict", ColumnType::Str),
            ("decisive", ColumnType::Bool),
            ("iterations", ColumnType::U64),
            ("bound", ColumnType::U64),
            ("conflicts", ColumnType::U64),
            ("propagations", ColumnType::U64),
            ("gc_runs", ColumnType::U64),
            ("gc_freed_clauses", ColumnType::U64),
            ("shared_exported", ColumnType::U64),
            ("shared_imported", ColumnType::U64),
            ("shared_dup_dropped", ColumnType::U64),
            ("elapsed_ns", ColumnType::U64),
        ])
    }

    /// Flattens one finished run. `circuit` is the netlist's name as the
    /// producer knows it; everything else comes off the spec, the locked
    /// circuit, and the report.
    pub fn from_run(
        circuit: &str,
        seed: u64,
        locked: &LockedCircuit,
        spec: &AttackSpec,
        report: &AttackReport,
    ) -> RunRecord {
        let (shared_exported, shared_imported, shared_dup_dropped) = spec.portfolio.share_stats();
        // Rule 9: wall-clock time is machine noise; only a virtual clock's
        // elapsed time is deterministic enough to persist.
        let elapsed_ns = if spec.budget.clock.same_clock(&ClockHandle::wall()) {
            0
        } else {
            u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX)
        };
        RunRecord {
            circuit: circuit.to_string(),
            scheme: locked.scheme.to_string(),
            keys: locked.schedule.num_keys() as u64,
            key_bits: locked.schedule.key_bits() as u64,
            seed,
            strategy: spec.strategy.name().to_string(),
            verdict: report.outcome.label().to_string(),
            decisive: AttackSpec::is_decisive(&report.outcome),
            iterations: report.iterations as u64,
            bound: report.bound as u64,
            conflicts: report.stats.conflicts,
            propagations: report.stats.propagations,
            gc_runs: report.stats.gc_runs,
            gc_freed_clauses: report.stats.gc_freed_clauses,
            shared_exported,
            shared_imported,
            shared_dup_dropped,
            elapsed_ns,
        }
    }

    /// This record as a store row, in [`RunRecord::schema`] column order.
    pub(crate) fn row(&self) -> Vec<Value> {
        vec![
            Value::str(self.circuit.clone()),
            Value::str(self.scheme.clone()),
            Value::U64(self.keys),
            Value::U64(self.key_bits),
            Value::U64(self.seed),
            Value::str(self.strategy.clone()),
            Value::str(self.verdict.clone()),
            Value::Bool(self.decisive),
            Value::U64(self.iterations),
            Value::U64(self.bound),
            Value::U64(self.conflicts),
            Value::U64(self.propagations),
            Value::U64(self.gc_runs),
            Value::U64(self.gc_freed_clauses),
            Value::U64(self.shared_exported),
            Value::U64(self.shared_imported),
            Value::U64(self.shared_dup_dropped),
            Value::U64(self.elapsed_ns),
        ]
    }
}

/// Appends `records` to the store at `path` (created with the run-record
/// schema if absent) — the one call every producer makes.
pub fn write_records(
    path: impl AsRef<std::path::Path>,
    records: &[RunRecord],
) -> Result<(), StoreError> {
    let mut w = Writer::open(path, RunRecord::schema())?;
    for r in records {
        w.push(&r.row())?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_store::format::read_table;

    fn record(n: u64) -> RunRecord {
        RunRecord {
            circuit: "s27".into(),
            scheme: "CuteLockStr".into(),
            keys: 4,
            key_bits: 2,
            seed: 0x5327,
            strategy: "sat".into(),
            verdict: "CNS".into(),
            decisive: true,
            iterations: n,
            bound: 1,
            conflicts: n * 10,
            propagations: n * 100,
            gc_runs: 0,
            gc_freed_clauses: 0,
            shared_exported: 0,
            shared_imported: 0,
            shared_dup_dropped: 0,
            elapsed_ns: 0,
        }
    }

    #[test]
    fn schema_and_row_stay_in_lockstep() {
        let r = record(3);
        assert_eq!(r.row().len(), RunRecord::schema().len());
        for (cell, (name, ty)) in r.row().iter().zip(RunRecord::schema().columns()) {
            assert_eq!(cell.column_type(), *ty, "column '{name}'");
        }
    }

    #[test]
    fn write_records_round_trips() {
        let dir = std::env::temp_dir().join(format!("cutelock-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.clk");
        std::fs::remove_file(&path).ok();
        write_records(&path, &[record(1), record(2)]).unwrap();
        write_records(&path, &[record(3)]).unwrap(); // append mode
        let t = read_table(&path).unwrap();
        assert_eq!(t.rows(), 3);
        let iters = t.schema().index_of("iterations").unwrap();
        assert_eq!(t.value(2, iters), Value::U64(3));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
