//! Quickstart: lock a circuit, validate it, attack it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cute_lock::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load a benchmark circuit (the real ISCAS'89 s27).
    let original = cute_lock::circuits::s27::s27();
    println!("original s27: {}", NetlistStats::of(&original));

    // 2. Lock it with Cute-Lock-Str: 4 keys of 2 bits, scheduled by an
    //    inserted modulo-4 counter (the paper's Table II configuration).
    let schedule = KeySchedule::new(vec![
        KeyValue::from_u64(1, 2),
        KeyValue::from_u64(3, 2),
        KeyValue::from_u64(2, 2),
        KeyValue::from_u64(0, 2),
    ]);
    let locked = CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 2,
        locked_ffs: 1,
        seed: 1,
        schedule: Some(schedule),
        ..Default::default()
    })
    .lock(&original)?;
    println!("locked  s27: {}", NetlistStats::of(&locked.netlist));
    println!("key schedule: {}", locked.schedule);

    // 3. Validate: with the correct key sequence the locked circuit is
    //    cycle-for-cycle equivalent to the original ...
    assert!(locked.verify_equivalence(1000, 42)?);
    println!("equivalence under correct keys: OK (1000 cycles × 64 random lanes)");

    // ... and any constant key corrupts it.
    let wrong = KeyValue::from_u64(2, 2);
    let rate = locked.wide_corruption_rate(&wrong, 1000, 43)?;
    println!(
        "output corruption under constant wrong key: {:.1}%",
        rate * 100.0
    );

    // 4. Attack it with the incremental oracle-guided unrolling attack
    //    (NEOS "INT" mode). The constant-key model dead-ends.
    let report = run_attack(&locked, &AttackSpec::new(AttackStrategy::Int));
    println!(
        "INT attack: {} after {} DIP iterations (bound {})",
        report.outcome, report.iterations, report.bound
    );
    assert!(report.outcome.defense_held());

    // 5. Export the locked design for external tools.
    let bench_text = bench::write(&locked.netlist);
    println!(
        "locked netlist exports to {} lines of .bench",
        bench_text.lines().count()
    );
    Ok(())
}
