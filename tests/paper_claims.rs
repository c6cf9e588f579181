//! The paper's falsifiable claims, one test per claim.
//!
//! These tests are the executable summary of EXPERIMENTS.md: each asserts
//! the *shape* of a published result on the reproduction's substrate.

use std::time::Duration;

use cute_lock::prelude::*;

fn budget() -> AttackBudget {
    AttackBudget {
        timeout: Duration::from_secs(30),
        max_bound: 6,
        max_iterations: 64,
        conflict_budget: Some(500_000),
        ..AttackBudget::default()
    }
}

/// Runs `strategy` through the spec door under the test budget.
fn attack(strategy: AttackStrategy, locked: &LockedCircuit) -> AttackReport {
    run_attack(locked, &AttackSpec::new(strategy).with_budget(budget()))
}

/// Table I: Cute-Lock-Beh preserves behavior under the correct schedule and
/// corrupts it under wrong keys.
#[test]
fn claim_table1_beh_validation() {
    let stg = synthezza("bcomp").expect("bcomp exists");
    let locked = CuteLockBeh::new(CuteLockBehConfig {
        keys: 6,
        key_bits: 3,
        wrongful: WrongfulPolicy::Auto,
        seed: 1,
        schedule: None,
    })
    .lock(&stg)
    .expect("locks");
    assert!(locked.verify_equivalence(400, 11).expect("simulates"));
    let wrong = locked.schedule.key_at_time(0).flipped(0);
    assert!(
        locked
            .wide_corruption_rate(&wrong, 400, 12)
            .expect("simulates")
            > 0.0
    );
}

/// Table II: Cute-Lock-Str on s27 with keys 1,3,2,0 preserves G17 under the
/// correct sequence.
#[test]
fn claim_table2_str_validation() {
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
        seed: 2,
        schedule: Some(schedule),
        ..Default::default()
    })
    .lock(&cute_lock::circuits::s27::s27())
    .expect("locks");
    assert!(locked.verify_equivalence(1000, 13).expect("simulates"));
}

/// Tables III–IV: no oracle-guided attack recovers a working key from a
/// multi-key lock (behavioral or structural).
#[test]
fn claim_tables34_attacks_dead_end() {
    let beh = CuteLockBeh::new(CuteLockBehConfig {
        keys: 3,
        key_bits: 10,
        wrongful: WrongfulPolicy::Auto,
        seed: 3,
        schedule: None,
    })
    .lock(&synthezza("e10").expect("exists"))
    .expect("locks");
    let strv = CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 9,
        locked_ffs: 1,
        seed: 3,
        schedule: None,
        ..Default::default()
    })
    .lock(&iscas89("s349").expect("exists").netlist)
    .expect("locks");
    for locked in [&beh, &strv] {
        for report in [
            attack(AttackStrategy::Bbo, locked),
            attack(AttackStrategy::Int, locked),
            attack(AttackStrategy::Kc2, locked),
            attack(AttackStrategy::Rane, locked),
            attack(AttackStrategy::ScanSat, locked),
        ] {
            assert!(
                report.outcome.defense_held(),
                "{}: {}",
                locked.scheme,
                report.outcome
            );
        }
    }
}

/// §IV.A: the single-key reduction IS breakable — the attacks are real.
#[test]
fn claim_single_key_reduction_breaks() {
    let locked = CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 2,
        locked_ffs: 1,
        seed: 4,
        schedule: Some(KeySchedule::constant(KeyValue::from_u64(2, 2), 4)),
        ..Default::default()
    })
    .lock(&cute_lock::circuits::s27::s27())
    .expect("locks");
    let report = attack(AttackStrategy::Int, &locked);
    assert!(
        matches!(report.outcome, AttackOutcome::KeyFound(_)),
        "got {}",
        report.outcome
    );
}

/// Table V (FALL): zero candidates and zero keys on Cute-Lock-Str, while
/// the same attack breaks TTLock.
#[test]
fn claim_table5_fall() {
    let circuit = itc99("b08").expect("exists");
    let cute = CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 9,
        locked_ffs: 4,
        seed: 5,
        schedule: None,
        ..Default::default()
    })
    .lock(&circuit.netlist)
    .expect("locks");
    let fall = fall_attack_with(&cute, &AttackBudget::default(), &Portfolio::single());
    assert_eq!(fall.candidates, 0);
    assert_eq!(fall.keys_found, 0);

    let tt = TtLock::new(5, 5).lock(&circuit.netlist).expect("locks");
    let fall_tt = fall_attack_with(&tt, &AttackBudget::default(), &Portfolio::single());
    assert!(fall_tt.keys_found >= 1, "FALL must break TTLock");
}

/// Table V (DANA): locking with Cute-Lock-Str lowers the register-word NMI
/// relative to the clean circuit.
#[test]
fn claim_table5_dana_degradation() {
    let mut degraded = 0usize;
    let mut total = 0usize;
    for name in ["b04", "b08", "b12"] {
        let circuit = itc99(name).expect("exists");
        let truth = circuit.word_labels();
        let clean = score_against_ground_truth(
            &dana_attack_with_budget(&circuit.netlist, &AttackBudget::default()),
            &truth,
        );
        let locked = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 5,
            locked_ffs: (circuit.netlist.dff_count() / 4).max(2),
            seed: 6,
            schedule: None,
            ..Default::default()
        })
        .lock(&circuit.netlist)
        .expect("locks");
        let after = score_against_ground_truth(
            &dana_attack_with_budget(&locked.netlist, &AttackBudget::default()),
            &truth,
        );
        total += 1;
        if after < clean - 1e-9 {
            degraded += 1;
        }
    }
    assert!(
        degraded * 2 > total,
        "locking should degrade DANA on most circuits ({degraded}/{total})"
    );
}

/// Fig. 4: relative overhead shrinks as circuits grow.
#[test]
fn claim_fig4_overhead_shrinks_with_size() {
    let lib = CellLibrary::default();
    let mut areas = Vec::new();
    for name in ["b01", "b04", "b12"] {
        let circuit = itc99(name).expect("exists");
        let locked = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 3,
            locked_ffs: 2,
            seed: 7,
            schedule: None,
            ..Default::default()
        })
        .lock(&circuit.netlist)
        .expect("locks");
        let cmp = OverheadComparison::between(&circuit.netlist, &locked.netlist, &lib, 200, 2)
            .expect("analysis");
        areas.push(cmp.area_pct());
    }
    assert!(
        areas[0] > areas[1] && areas[1] > areas[2],
        "area overhead must fall with circuit size: {areas:?}"
    );
}

/// §III-C: locking one flip-flop suffices against oracle-guided attacks;
/// more locked FFs are for structural resistance, not a requirement.
#[test]
fn claim_one_ff_suffices() {
    let locked = CuteLockStr::new(CuteLockStrConfig {
        keys: 2,
        key_bits: 4,
        locked_ffs: 1,
        seed: 8,
        schedule: None,
        ..Default::default()
    })
    .lock(&itc99("b03").expect("exists").netlist)
    .expect("locks");
    let report = attack(AttackStrategy::Int, &locked);
    assert!(report.outcome.defense_held(), "got {}", report.outcome);
}
