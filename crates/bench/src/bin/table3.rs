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
//! The rows run through the shared driver
//! ([`Options::attack_rows`]): whole-circuit jobs (lock + all three
//! attacks) on one pool, merged in table order, so the printed table is
//! identical for any `--threads` count (byte-identical with `--no-times`,
//! which masks the wall-clock columns).
//!
//! `--single-key` reduces every schedule to one repeated key (paper §IV.A):
//! the attacks must then *succeed*, which validates the attack
//! implementations themselves.

use cutelock_attacks::AttackStrategy;
use cutelock_bench::params::TABLE3;
use cutelock_bench::{rule, Options};
use cutelock_circuits::synthezza;
use cutelock_core::beh::{CuteLockBeh, CuteLockBehConfig, WrongfulPolicy};

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

    let mut selected = TABLE3.to_vec();
    selected.retain(|r| opt.selected(r.0));
    let rows = opt.attack_rows(&selected, &COLUMNS, 0x7ab1e3, |name, k, ki, schedule| {
        let Some(stg) = synthezza(name) else {
            return Err(format!("{name}: missing profile"));
        };
        // Large keys on large machines stay affordable with the XOR-mask
        // wrongful policy (chosen automatically).
        CuteLockBeh::new(CuteLockBehConfig {
            keys: k,
            key_bits: ki,
            wrongful: WrongfulPolicy::Auto,
            seed: 0x7ab1e3,
            schedule,
        })
        .lock(&stg)
        .map_err(|e| format!("{name}: lock failed: {e}"))
    });
    for row in &rows {
        match row {
            Ok(row) => println!(
                "{:<10} {:>3} {:>4}  {:<28} {:<28} {:<28}",
                row.name,
                row.k,
                row.ki,
                opt.cell(&row.reports[0]),
                opt.cell(&row.reports[1]),
                opt.cell(&row.reports[2]),
            ),
            Err(msg) => eprintln!("{msg}"),
        }
    }
    rule(104);
    opt.finish_attack_table(&rows);
}
