//! Quick-mode attack smoke at ITC'99 scale: the full pipeline —
//! simplify, unroll, encode, bounded search — must produce a verdict on
//! a Cute-Lock-Str-locked >1k-gate seqgen circuit inside a quick-run
//! budget, with and without the simplification front end, and the two
//! paths must agree. Oracle-guided search on circuits this size is
//! SAT-hard by design (that is the lock's claim), so the smoke uses the
//! bounded INT attack: it terminates at bound exhaustion no matter how
//! hard the instance is, which keeps this test seconds-fast in debug
//! builds while still pushing a four-digit gate count through every
//! stage the CLI's `attack --quick` path uses.

use std::time::Duration;

use cutelock_attacks::{run_attack, AttackBudget, AttackSpec, AttackStrategy};
use cutelock_circuits::{seqgen, Profile};
use cutelock_core::clock::VirtualClock;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::LockedCircuit;

/// The >1k-gate target: a deterministic seqgen circuit locked with the
/// paper's structural scheme.
fn big_lock() -> LockedCircuit {
    let profile = Profile {
        name: "seqbig",
        inputs: 12,
        outputs: 8,
        dffs: 48,
        gates: 1050,
    };
    let circuit = seqgen::generate(&profile, 9).expect("generator is total");
    assert!(
        circuit.netlist.gate_count() > 1_000,
        "profile no longer ITC'99-scale: {} gates",
        circuit.netlist.gate_count()
    );
    CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 2,
        locked_ffs: 1,
        seed: 6,
        schedule: None,
        ..Default::default()
    })
    .lock(&circuit.netlist)
    .expect("locks")
}

/// A quick-run budget under a virtual clock: bounded conflicts, bounded
/// unroll depth, deterministic on any machine. The virtual deadline is
/// generous — bound exhaustion, not time, ends the search.
fn quick_budget() -> AttackBudget {
    AttackBudget {
        timeout: Duration::from_secs(3_600),
        max_bound: 2,
        max_iterations: 32,
        conflict_budget: Some(25_000),
        clock: VirtualClock::with_tick(1_000_000).handle(),
        stop: None,
    }
}

#[test]
fn quick_int_attack_smokes_a_locked_big_seqgen() {
    let lc = big_lock();
    let mut verdicts = Vec::new();
    for simplify in [true, false] {
        let spec = AttackSpec::new(AttackStrategy::Int)
            .with_budget(quick_budget())
            .with_simplify(simplify);
        let report = run_attack(&lc, &spec);
        assert!(
            !matches!(report.outcome, cutelock_attacks::AttackOutcome::Timeout),
            "quick smoke did not reach a verdict (simplify={simplify}): {:?}",
            report.outcome
        );
        verdicts.push(report.outcome.label());
    }
    assert_eq!(
        verdicts[0], verdicts[1],
        "simplification changed the quick-smoke verdict"
    );
}
