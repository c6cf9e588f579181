//! Regenerates **Table III** — Cute-Lock-Beh security against logic attacks.
//!
//! Each Synthezza FSM is locked with Cute-Lock-Beh using the paper's
//! per-circuit `(k, ki)` and attacked with the three NEOS modes
//! (BBO / INT / KC2). The paper's result — and the expected output here —
//! is that **no attack recovers a working key**: cells read `CNS`, a wrong
//! key (`x..x`), or time out.
//!
//! The BBO and INT columns run the *same* incremental frame-append
//! algorithm (see `cutelock_attacks::bmc`) and are expected to agree
//! cell-for-cell; NEOS's historical rebuild-per-bound BBO is not
//! reproduced.
//!
//! Whole-circuit jobs (lock + all three attacks) are fanned across
//! [`cutelock_sim::pool::Pool`] and merged in table order, so the printed
//! table is identical for any `--threads` count (byte-identical with
//! `--no-times`, which masks the wall-clock columns).
//!
//! `--single-key` reduces every schedule to one repeated key (paper §IV.A):
//! the attacks must then *succeed*, which validates the attack
//! implementations themselves.

use cutelock_attacks::{run_attack, AttackReport, AttackStrategy, RunRecord};
use cutelock_bench::params::{in_quick_set, TABLE3};
use cutelock_bench::{rule, Options};
use cutelock_circuits::synthezza;
use cutelock_core::beh::{CuteLockBeh, CuteLockBehConfig, WrongfulPolicy};
use cutelock_core::{KeySchedule, KeyValue};

/// The flags this bin reads.
const FLAGS: &[&str] = &[
    "quick",
    "single-key",
    "only",
    "timeout",
    "threads",
    "no-times",
    "portfolio",
    "share",
    "no-simplify",
    "store",
];

const USAGE: &str = "table3 [--quick] [--single-key] [--only NAME] [--timeout SECS] \
                     [--threads N] [--no-times] [--portfolio K] [--share] [--no-simplify] \
                     [--store FILE]\n\
                     Cute-Lock-Beh vs BBO/INT/KC2 on the Synthezza suite (paper Table III)";

/// One finished circuit row, computed by a pool worker.
struct Row {
    name: &'static str,
    k: usize,
    ki: usize,
    reports: [AttackReport; 3],
    /// One `--store` record per attack column, in column order.
    records: Vec<RunRecord>,
}

/// The three attack columns, in print order.
const COLUMNS: [AttackStrategy; 3] = [
    AttackStrategy::Bbo,
    AttackStrategy::Int,
    AttackStrategy::Kc2,
];

fn main() {
    let opt = Options::parse(std::env::args(), USAGE, FLAGS);
    println!(
        "Table III: Cute-Lock-Beh security against logic attacks{}",
        if opt.single_key {
            " [single-key reduction — attacks SHOULD succeed]"
        } else {
            ""
        }
    );
    println!(
        "{:<10} {:>3} {:>4}  {:<28} {:<28} {:<28}",
        "Circuit", "k", "ki", "BBO", "INT", "KC2"
    );
    rule(104);

    let selected: Vec<(&'static str, usize, usize)> = TABLE3
        .iter()
        .copied()
        .filter(|(name, _, _)| opt.selected(name) && (!opt.quick || in_quick_set(name)))
        .collect();

    // Two-level dispatch: every circuit job declares its `--portfolio K`
    // entrants as inner units, and `map_units` hands it a race width sized
    // so (outer circuits × inner entrants) never oversubscribes the pool.
    // The raced result is width-independent, so output stays
    // `--threads`-independent.
    let results: Vec<Result<Row, String>> =
        opt.pool()
            .map_units(&opt.units(selected.len()), |i, width| {
                let (name, k, ki) = selected[i];
                let Some(stg) = synthezza(name) else {
                    return Err(format!("{name}: missing profile"));
                };
                // Large keys on large machines stay affordable with the XOR-mask
                // wrongful policy (chosen automatically).
                let schedule = opt.single_key.then(|| {
                    KeySchedule::constant(
                        KeyValue::from_u64(0x5a5a_5a5a & ((1u64 << ki.min(63)) - 1), ki),
                        k,
                    )
                });
                let locked = CuteLockBeh::new(CuteLockBehConfig {
                    keys: k,
                    key_bits: ki,
                    wrongful: WrongfulPolicy::Auto,
                    seed: 0x7ab1e3,
                    schedule,
                })
                .lock(&stg)
                .map_err(|e| format!("{name}: lock failed: {e}"))?;
                let mut records = Vec::with_capacity(COLUMNS.len());
                let reports = COLUMNS.map(|s| {
                    let spec = opt.spec_with(s, width);
                    let report = run_attack(&locked, &spec);
                    records.push(RunRecord::from_run(name, 0x7ab1e3, &locked, &spec, &report));
                    report
                });
                Ok(Row {
                    name,
                    k,
                    ki,
                    reports,
                    records,
                })
            });

    let mut resisted = 0usize;
    let mut recovered = 0usize;
    let mut ran = 0usize;
    for row in &results {
        let row = match row {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("{msg}");
                continue;
            }
        };
        for r in &row.reports {
            if r.outcome.defense_held() {
                resisted += 1;
            } else {
                recovered += 1;
            }
        }
        ran += 1;
        println!(
            "{:<10} {:>3} {:>4}  {:<28} {:<28} {:<28}",
            row.name,
            row.k,
            row.ki,
            opt.cell(&row.reports[0]),
            opt.cell(&row.reports[1]),
            opt.cell(&row.reports[2]),
        );
    }
    rule(104);
    // `--store`: persist every run in table order (row-major, column order
    // within a row), so the database is `--threads`-independent too.
    let records: Vec<RunRecord> = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .flat_map(|row| row.records.iter().cloned())
        .collect();
    opt.store_records(&records);
    if opt.single_key {
        println!(
            "single-key reduction: {recovered}/{} attack runs recovered the key across {ran} \
             circuits (paper §IV.A expects recovery)",
            recovered + resisted
        );
    } else {
        println!(
            "defense held in {resisted}/{} attack runs across {ran} circuits \
             (paper: all runs end in CNS / wrong key / timeout)",
            recovered + resisted
        );
        if recovered > 0 {
            std::process::exit(1);
        }
    }
}
