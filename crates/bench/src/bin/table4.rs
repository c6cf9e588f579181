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
//! The rows of both suites run through the shared driver
//! ([`Options::attack_rows`]) as one job list, so small ITC circuits can
//! fill workers while a big ISCAS circuit is still running. Rows merge in
//! table order, so the printed table is identical for any `--threads`
//! count (byte-identical with `--no-times`).
//!
//! `--single-key` validates the attacks instead (paper §IV.A).

use cutelock_attacks::AttackStrategy;
use cutelock_bench::params::{TABLE4_ISCAS, TABLE4_ITC};
use cutelock_bench::{rule, Options};
use cutelock_circuits::{iscas89, itc99};
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};

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

    let mut selected = [TABLE4_ISCAS, TABLE4_ITC].concat();
    selected.retain(|r| opt.selected(r.0));
    let is_iscas = |name: &str| TABLE4_ISCAS.iter().any(|r| r.0 == name);
    let rows = opt.attack_rows(&selected, &COLUMNS, 0x7ab1e4, |name, k, ki, schedule| {
        let circuit = if is_iscas(name) {
            iscas89(name)
        } else {
            itc99(name)
        }
        .map_err(|e| format!("{name}: {e}"))?;
        CuteLockStr::new(CuteLockStrConfig {
            keys: k,
            key_bits: ki,
            locked_ffs: 1,
            seed: 0x7ab1e4,
            schedule,
            ..Default::default()
        })
        .lock(&circuit.netlist)
        .map_err(|e| format!("{name}: lock failed: {e}"))
    });
    let iscas = selected.iter().filter(|r| is_iscas(r.0)).count();
    let (iscas_rows, itc_rows) = rows.split_at(iscas);
    for (suite, rows) in [("ISCAS'89", iscas_rows), ("ITC'99", itc_rows)] {
        println!("-- {suite}");
        for row in rows {
            match row {
                Ok(row) => println!(
                    "{:<8} {:>3} {:>4}  {:<24} {:<24} {:<24} {:<24}",
                    row.name,
                    row.k,
                    row.ki,
                    opt.cell(&row.reports[0]),
                    opt.cell(&row.reports[1]),
                    opt.cell(&row.reports[2]),
                    opt.cell(&row.reports[3]),
                ),
                Err(msg) => eprintln!("{msg}"),
            }
        }
    }
    rule(120);
    opt.finish_attack_table(&rows);
}
