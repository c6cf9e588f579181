//! Regenerates **Table V** — Cute-Lock-Str security against removal attacks.
//!
//! For each ITC'99 circuit, locked with Cute-Lock-Str (half of the
//! flip-flops, matching the paper's "locking more FFs raises removal
//! resistance" setting):
//!
//! * **DANA**: register clustering on the locked netlist, scored by NMI
//!   against the generator's ground-truth words. The paper reports the
//!   clean-circuit scores at 0.87–0.99 and the locked scores collapsing to
//!   an average ≈ 0.41 (range 0.00–0.99). This binary prints averages of
//!   0.58 clean / 0.50 locked with `--quick` and 0.65 / 0.57 on the full
//!   set; `ROADMAP.md` item 4 ("Table V does not reproduce") tracks the
//!   gap.
//! * **FALL**: candidates and keys found (the paper reports 0 / 0
//!   everywhere) plus CPU time.
//!
//! Whole-circuit jobs are fanned across [`cutelock_sim::pool::Pool`] and
//! merged in table order (`--threads`, `--no-times` as in table3/table4).
//!
//! `--baselines` adds the contrast run: FALL against TTLock-locked copies,
//! where it *does* find the key (81% success in FALL's own paper).

use cutelock_attacks::dana::{dana_attack_with_budget, score_against_ground_truth};
use cutelock_attacks::fall::{fall_attack_with, FallReport};
use cutelock_attacks::{AttackOutcome, AttackReport, AttackStrategy, Portfolio, RunRecord};
use cutelock_bench::params::TABLE5;
use cutelock_bench::{rule, Options};
use cutelock_circuits::itc99;
use cutelock_core::baselines::TtLock;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};

/// The flags this bin reads.
const FLAGS: &[&str] = &[
    "quick",
    "only",
    "timeout",
    "baselines",
    "threads",
    "no-times",
    "portfolio",
    "share",
    "store",
];

const USAGE: &str = "table5 [--quick] [--only NAME] [--baselines] [--timeout SECS] \
                     [--threads N] [--no-times] [--portfolio K] [--share] [--store FILE]\n\
                     DANA NMI + FALL on Cute-Lock-Str-locked ITC'99 (paper Table V)";

/// One finished circuit row, computed by a pool worker.
struct Row {
    name: &'static str,
    clean: f64,
    locked_score: f64,
    fall: FallReport,
    /// A DANA run (clean or locked) hit its deadline: the NMI scores come
    /// from a partial partition.
    dana_timed_out: bool,
    /// The FALL run as a `--store` record (DANA scores clusterings, not
    /// attack verdicts, so it has no row shape in the run schema).
    record: RunRecord,
}

fn main() {
    let opt = Options::parse(std::env::args(), USAGE, FLAGS);
    // FALL's budget and query-level portfolio come from the same
    // `AttackSpec` door the CLI and job daemon use; only the report type
    // differs (the table prints FALL's candidate/key counts, which the
    // generic `AttackReport` does not carry). DANA runs on the bare
    // netlist and stays outside the spec door entirely.
    let budget = opt.budget();
    println!("Table V: Cute-Lock-Str security against removal attacks");
    println!(
        "{:<8} {:>10} {:>10}  {:>10} {:>6} {:>12}",
        "Circuit", "NMI clean", "NMI locked", "Candidates", "Keys", "CPU time (s)"
    );
    rule(64);

    let selected: Vec<&'static str> = TABLE5.iter().copied().filter(|n| opt.selected(n)).collect();

    let pool = opt.pool();
    let results: Vec<Result<Row, String>> = pool.map(selected.len(), |i| {
        let name = selected[i];
        let circuit = itc99(name).map_err(|e| format!("{name}: {e}"))?;
        let truth = circuit.word_labels();
        let clean_dana = dana_attack_with_budget(&circuit.netlist, &budget);
        let clean = score_against_ground_truth(&clean_dana, &truth);

        // Lock half of the flip-flops (at least 2) — the paper's removal
        // experiments lock aggressively ("locking more FFs would provide
        // more resilience against dataflow and removal attacks", §III-C).
        let n_lock = (circuit.netlist.dff_count() / 2).max(2);
        let locked = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 5,
            locked_ffs: n_lock,
            seed: 0x7ab1e5,
            schedule: None,
            ..Default::default()
        })
        .lock(&circuit.netlist)
        .map_err(|e| format!("{name}: lock failed: {e}"))?;
        let dana = dana_attack_with_budget(&locked.netlist, &budget);
        let locked_score = score_against_ground_truth(&dana, &truth);
        // `--portfolio K` races FALL's SAT key-confirmation checks at the
        // width each circuit job gets.
        let spec = opt.spec_for(AttackStrategy::Fall, selected.len());
        let fall = fall_attack_with(&locked, &spec.budget, &spec.portfolio);
        let record =
            RunRecord::from_run(name, 0x7ab1e5, &locked, &spec, &AttackReport::from(&fall));
        Ok(Row {
            name,
            clean,
            locked_score,
            fall,
            dana_timed_out: clean_dana.timed_out || dana.timed_out,
            record,
        })
    });

    let mut clean_scores = Vec::new();
    let mut locked_scores = Vec::new();
    let mut total_keys_found = 0usize;
    for row in &results {
        let row = match row {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("{msg}");
                continue;
            }
        };
        clean_scores.push(row.clean);
        locked_scores.push(row.locked_score);
        total_keys_found += row.fall.keys_found;
        // A budget-truncated run must not masquerade as the paper's
        // resilient result: flag it in the row.
        let mut flags = String::new();
        if row.fall.outcome == AttackOutcome::Timeout {
            flags.push_str(" [FALL timed out]");
        }
        if row.dana_timed_out {
            flags.push_str(" [DANA timed out: partial NMI]");
        }
        println!(
            "{:<8} {:>10.2} {:>10.2}  {:>10} {:>6} {:>12}{flags}",
            row.name,
            row.clean,
            row.locked_score,
            row.fall.candidates,
            row.fall.keys_found,
            opt.secs(row.fall.elapsed),
        );
    }
    rule(64);
    // `--store`: one FALL record per circuit, in table order.
    let records: Vec<RunRecord> = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|row| row.record.clone())
        .collect();
    opt.store_records(&records);
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    println!(
        "average NMI: clean {:.2} (paper ~0.95), locked {:.2} (paper ~0.41); \
         FALL keys found: {total_keys_found} (paper: 0)",
        avg(&clean_scores),
        avg(&locked_scores),
    );

    if opt.baselines {
        println!();
        println!("Baseline contrast: FALL against TTLock (FALL's own prey; it reports 81%)");
        println!(
            "{:<8} {:>10} {:>6} {:>12}",
            "Circuit", "Candidates", "Keys", "CPU (s)"
        );
        rule(42);
        let base_names: Vec<&'static str> = TABLE5
            .iter()
            .copied()
            .take(if opt.quick { 4 } else { 10 })
            .collect();
        let base: Vec<Option<(&'static str, FallReport)>> = pool.map(base_names.len(), |i| {
            let name = base_names[i];
            let circuit = itc99(name).ok()?;
            let ki = circuit.netlist.input_count().clamp(2, 8);
            let tt = TtLock::new(ki, 7).lock(&circuit.netlist).ok()?;
            Some((name, fall_attack_with(&tt, &budget, &Portfolio::single())))
        });
        let mut tt_broken = 0usize;
        let mut tt_total = 0usize;
        for (name, fall) in base.into_iter().flatten() {
            tt_total += 1;
            if fall.keys_found > 0 {
                tt_broken += 1;
            }
            println!(
                "{:<8} {:>10} {:>6} {:>12}",
                name,
                fall.candidates,
                fall.keys_found,
                opt.secs(fall.elapsed)
            );
        }
        rule(42);
        println!(
            "FALL broke {tt_broken}/{tt_total} TTLock circuits — the attack works; \
             Cute-Lock-Str simply gives it nothing to find"
        );
    }

    if total_keys_found > 0 {
        eprintln!("FALL recovered keys from Cute-Lock-Str — defense failed");
        std::process::exit(1);
    }
}
