//! Regenerates **Table IV** — Cute-Lock-Str security against logic attacks.
//!
//! Each ISCAS'89 / ITC'99 netlist is locked with Cute-Lock-Str using the
//! paper's per-circuit `(k, ki)` and attacked with NEOS-style BBO / INT /
//! KC2 plus the RANE model (secret initial state). Expected: every cell is
//! `CNS`, a wrong key, or a timeout — never a verified key.
//!
//! The BBO and INT columns run the *same* incremental frame-append
//! algorithm (see `cutelock_attacks::bmc`) and are expected to agree
//! cell-for-cell; NEOS's historical rebuild-per-bound BBO is not
//! reproduced.
//!
//! Whole-circuit jobs (lock + all four attacks) are fanned across
//! [`cutelock_sim::pool::Pool`] and merged in table order, so the printed
//! table is identical for any `--threads` count (byte-identical with
//! `--no-times`).
//!
//! `--single-key` validates the attacks instead (paper §IV.A).

use cutelock_attacks::{run_attack, AttackReport, AttackStrategy, RunRecord};
use cutelock_bench::params::{in_quick_set, TABLE4_ISCAS, TABLE4_ITC};
use cutelock_bench::{rule, Options};
use cutelock_circuits::{iscas89, itc99};
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
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

const USAGE: &str = "table4 [--quick] [--single-key] [--only NAME] [--timeout SECS] \
                     [--threads N] [--no-times] [--portfolio K] [--share] [--no-simplify] \
                     [--store FILE]\n\
                     Cute-Lock-Str vs BBO/INT/KC2/RANE on ISCAS'89 + ITC'99 (paper Table IV)";

/// One finished circuit row, computed by a pool worker.
struct Row {
    name: &'static str,
    k: usize,
    ki: usize,
    reports: [AttackReport; 4],
    /// One `--store` record per attack column, in column order.
    records: Vec<RunRecord>,
}

/// The four attack columns, in print order.
const COLUMNS: [AttackStrategy; 4] = [
    AttackStrategy::Bbo,
    AttackStrategy::Int,
    AttackStrategy::Kc2,
    AttackStrategy::Rane,
];

fn main() {
    let opt = Options::parse(std::env::args(), USAGE, FLAGS);
    println!(
        "Table IV: Cute-Lock-Str security against logic attacks{}",
        if opt.single_key {
            " [single-key reduction — attacks SHOULD succeed]"
        } else {
            ""
        }
    );
    println!(
        "{:<8} {:>3} {:>4}  {:<24} {:<24} {:<24} {:<24}",
        "Circuit", "k", "ki", "BBO", "INT", "KC2", "RANE"
    );
    rule(120);

    let suites = [("ISCAS'89", TABLE4_ISCAS), ("ITC'99", TABLE4_ITC)];
    // Flatten both suites into one job list so small ITC circuits can fill
    // workers while a big ISCAS circuit is still running.
    let selected: Vec<(usize, &'static str, usize, usize)> = suites
        .iter()
        .enumerate()
        .flat_map(|(si, (_, rows))| rows.iter().map(move |&(name, k, ki)| (si, name, k, ki)))
        .filter(|(_, name, _, _)| opt.selected(name) && (!opt.quick || in_quick_set(name)))
        .collect();

    // Two-level dispatch: circuits × entrant slices on one pool (see
    // table3 for the width rationale).
    let results: Vec<Result<Row, String>> =
        opt.pool()
            .map_units(&opt.units(selected.len()), |i, width| {
                let (suite, name, k, ki) = selected[i];
                let circuit = if suite == 0 {
                    iscas89(name)
                } else {
                    itc99(name)
                }
                .map_err(|e| format!("{name}: {e}"))?;
                let schedule = opt.single_key.then(|| {
                    KeySchedule::constant(
                        KeyValue::from_u64(0x5a5a_5a5a & ((1u64 << ki.min(63)) - 1), ki),
                        k,
                    )
                });
                let locked = CuteLockStr::new(CuteLockStrConfig {
                    keys: k,
                    key_bits: ki,
                    locked_ffs: 1,
                    seed: 0x7ab1e4,
                    schedule,
                    ..Default::default()
                })
                .lock(&circuit.netlist)
                .map_err(|e| format!("{name}: lock failed: {e}"))?;
                let mut records = Vec::with_capacity(COLUMNS.len());
                let reports = COLUMNS.map(|s| {
                    let spec = opt.spec_with(s, width);
                    let report = run_attack(&locked, &spec);
                    records.push(RunRecord::from_run(name, 0x7ab1e4, &locked, &spec, &report));
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
    // Merge in suite order with unconditional section headers (matching the
    // serial output format); `selected[i]` carries the suite for Err rows.
    for (si, (suite_name, _)) in suites.iter().enumerate() {
        println!("-- {suite_name}");
        for (i, result) in results.iter().enumerate() {
            if selected[i].0 != si {
                continue;
            }
            let row = match result {
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
                "{:<8} {:>3} {:>4}  {:<24} {:<24} {:<24} {:<24}",
                row.name,
                row.k,
                row.ki,
                opt.cell(&row.reports[0]),
                opt.cell(&row.reports[1]),
                opt.cell(&row.reports[2]),
                opt.cell(&row.reports[3]),
            );
        }
    }
    rule(120);
    // `--store`: persist every run in *printed* order — suite-major, then
    // table order within the suite — so the database matches the table and
    // stays `--threads`-independent.
    let mut records: Vec<RunRecord> = Vec::new();
    for si in 0..suites.len() {
        for (i, result) in results.iter().enumerate() {
            if selected[i].0 == si {
                if let Ok(row) = result {
                    records.extend(row.records.iter().cloned());
                }
            }
        }
    }
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
