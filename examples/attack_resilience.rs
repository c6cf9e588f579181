//! The full attack gauntlet on one circuit — the paper's security story in
//! one run.
//!
//! Locks ITC'99 `b10` three ways (Cute-Lock-Str, the single-key reduction,
//! and the XOR-lock baseline) and runs every oracle-guided attack plus
//! FALL and DANA against each, printing a verdict matrix. Expected shape:
//! baselines fall, multi-key Cute-Lock survives everything.
//!
//! ```text
//! cargo run --release --example attack_resilience
//! ```

use std::time::Duration;

use cute_lock::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = itc99("b10")?;
    let original = &circuit.netlist;
    println!("target: b10 equivalent, {}", NetlistStats::of(original));

    let budget = AttackBudget {
        timeout: Duration::from_secs(30),
        max_bound: 6,
        max_iterations: 128,
        conflict_budget: Some(500_000),
        ..AttackBudget::default()
    };

    // Three locks to compare.
    let cute = CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 6,
        locked_ffs: 2,
        seed: 10,
        schedule: None,
        ..Default::default()
    })
    .lock(original)?;
    let single = CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 6,
        locked_ffs: 2,
        seed: 10,
        schedule: Some(KeySchedule::constant(KeyValue::from_u64(0b101010, 6), 4)),
        ..Default::default()
    })
    .lock(original)?;
    let xor = XorLock::new(6, 10).lock(original)?;

    println!(
        "\n{:<26} {:>14} {:>14} {:>14}",
        "attack", "Cute-Lock-Str", "single-key", "XOR-lock"
    );
    println!("{}", "-".repeat(72));
    let run = |name: &str, strategy: AttackStrategy| {
        let spec = AttackSpec::new(strategy).with_budget(budget.clone());
        let [ra, rb, rc] = [&cute, &single, &xor].map(|lc| run_attack(lc, &spec));
        println!(
            "{:<26} {:>14} {:>14} {:>14}",
            name,
            ra.outcome.label(),
            rb.outcome.label(),
            rc.outcome.label()
        );
        ra
    };

    let held = [
        run("SAT (scan access)", AttackStrategy::ScanSat),
        run("BMC / BBO", AttackStrategy::Bbo),
        run("BMC / INT", AttackStrategy::Int),
        run("KC2", AttackStrategy::Kc2),
        run("RANE (secret init)", AttackStrategy::Rane),
    ];
    for r in &held {
        assert!(
            r.outcome.defense_held(),
            "Cute-Lock must hold: {}",
            r.outcome
        );
    }

    // Removal/dataflow attacks on the multi-key lock.
    let fall = fall_attack_with(&cute, &AttackBudget::default(), &Portfolio::single());
    println!(
        "{:<26} {:>14}",
        "FALL (oracle-less)",
        format!("{}cand/{}key", fall.candidates, fall.keys_found)
    );
    assert_eq!(fall.keys_found, 0);

    let truth = circuit.word_labels();
    let dana = |nl: &Netlist| dana_attack_with_budget(nl, &AttackBudget::default());
    let clean_nmi = score_against_ground_truth(&dana(original), &truth);
    let locked_nmi = score_against_ground_truth(&dana(&cute.netlist), &truth);
    println!(
        "{:<26} {:>14}",
        "DANA (NMI locked/clean)",
        format!("{locked_nmi:.2}/{clean_nmi:.2}")
    );

    println!("\nCute-Lock-Str survived every attack; the reductions/baselines did not.");
    Ok(())
}
