//! Cross-attack regression pins: every migrated attack must produce
//! **bit-identical** outcomes (verdict + recovered key) on the bundled s27
//! locks before and after the unified-encoder refactor.
//!
//! The expected strings below were captured from the pre-refactor tree
//! (PR 3 head, commit `ccf775c`) by running this test with
//! `GOLDEN_PRINT=1 cargo test -p cutelock_attacks --test golden_s27 -- --nocapture`.
//! They are *golden*: a mismatch means the encoding layer changed attack
//! behavior, not just attack plumbing — investigate, don't re-pin blindly.
//! The four `*/cute` wrong-key strings that differ from the raw path were
//! re-pinned once when [`AttackSpec::new`] made simplification the default.

use std::time::Duration;

use cutelock_attacks::fall::fall_attack_with;
use cutelock_attacks::portfolio::Portfolio;
use cutelock_attacks::RunStats;
use cutelock_attacks::{
    run_attack, AttackBudget, AttackOutcome, AttackReport, AttackSpec, AttackStrategy,
};
use cutelock_circuits::iscas89;
use cutelock_circuits::s27::s27;
use cutelock_core::baselines::{TtLock, XorLock};
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::LockedCircuit;
use cutelock_core::{KeySchedule, KeyValue};

fn budget() -> AttackBudget {
    AttackBudget {
        timeout: Duration::from_secs(60),
        max_bound: 6,
        max_iterations: 256,
        conflict_budget: Some(500_000),
        ..AttackBudget::default()
    }
}

/// The breakable baseline: a 4-bit XOR lock on s27.
fn xor_lock() -> LockedCircuit {
    XorLock::new(4, 3).lock(&s27()).expect("locks")
}

/// The resilient target: multi-key Cute-Lock-Str on s27.
fn cute_lock() -> LockedCircuit {
    let lc = CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 2,
        locked_ffs: 1,
        seed: 6,
        schedule: None,
        ..Default::default()
    })
    .lock(&s27())
    .expect("locks");
    assert!(!lc.schedule.is_constant(), "degenerate schedule");
    lc
}

/// Deterministic golden form of a report: verdict label plus the exact key
/// bits (timing excluded — it is the one legitimately nondeterministic
/// field).
fn golden(report: &AttackReport) -> String {
    match &report.outcome {
        AttackOutcome::KeyFound(k) => format!("Equal({k}) iters={}", report.iterations),
        AttackOutcome::WrongKey(k) => format!("x..x({k}) iters={}", report.iterations),
        other => format!("{} iters={}", other.label(), report.iterations),
    }
}

/// Runs `strategy` through the spec door under the golden budget, racing
/// each query across `portfolio`.
fn raced(strategy: AttackStrategy, lc: &LockedCircuit, portfolio: &Portfolio) -> AttackReport {
    let spec = AttackSpec::new(strategy)
        .with_budget(budget())
        .with_portfolio(portfolio.clone());
    run_attack(lc, &spec)
}

/// Runs `strategy` through the spec door under the golden budget with a
/// single solver per query.
fn attack(strategy: AttackStrategy, lc: &LockedCircuit) -> AttackReport {
    raced(strategy, lc, &Portfolio::single())
}

fn check(label: &str, expected: &str, actual: String) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {label}: {actual}");
        return;
    }
    assert_eq!(actual, expected, "golden mismatch for {label}");
}

#[test]
fn golden_scan_sat() {
    check(
        "sat/xor",
        "Equal(0010) iters=2",
        golden(&attack(AttackStrategy::ScanSat, &xor_lock())),
    );
    check(
        "sat/cute",
        "x..x(00) iters=1",
        golden(&attack(AttackStrategy::ScanSat, &cute_lock())),
    );
}

#[test]
fn golden_bbo() {
    check(
        "bbo/xor",
        "Equal(0010) iters=4",
        golden(&attack(AttackStrategy::Bbo, &xor_lock())),
    );
    check(
        "bbo/cute",
        "x..x(11) iters=1",
        golden(&attack(AttackStrategy::Bbo, &cute_lock())),
    );
}

#[test]
fn golden_int() {
    check(
        "int/xor",
        "Equal(0010) iters=4",
        golden(&attack(AttackStrategy::Int, &xor_lock())),
    );
    check(
        "int/cute",
        "x..x(11) iters=1",
        golden(&attack(AttackStrategy::Int, &cute_lock())),
    );
}

#[test]
fn golden_kc2() {
    check(
        "kc2/xor",
        "Equal(0010) iters=2",
        golden(&attack(AttackStrategy::Kc2, &xor_lock())),
    );
    check(
        "kc2/cute",
        "x..x(11) iters=1",
        golden(&attack(AttackStrategy::Kc2, &cute_lock())),
    );
}

#[test]
fn golden_rane() {
    check(
        "rane/xor",
        "Equal(0010) iters=5",
        golden(&attack(AttackStrategy::Rane, &xor_lock())),
    );
    check(
        "rane/cute",
        "x..x(00) iters=4",
        golden(&attack(AttackStrategy::Rane, &cute_lock())),
    );
}

#[test]
fn golden_appsat() {
    check(
        "appsat/xor",
        "Equal(0010) iters=2",
        golden(&attack(AttackStrategy::AppSat, &xor_lock())),
    );
    check(
        "appsat/cute",
        "x..x(00) iters=1",
        golden(&attack(AttackStrategy::AppSat, &cute_lock())),
    );
}

#[test]
fn golden_double_dip() {
    check(
        "ddip/xor",
        "Equal(0010) iters=2",
        golden(&attack(AttackStrategy::DoubleDip, &xor_lock())),
    );
    check(
        "ddip/cute",
        "x..x(00) iters=3",
        golden(&attack(AttackStrategy::DoubleDip, &cute_lock())),
    );
}

/// Portfolio determinism regression: `--portfolio 4` must produce
/// identical keys and iteration counts whether the race runs on 1, 2, or
/// 4 worker threads — the whole point of the epoch/lowest-index design.
/// Unlike the goldens above this pins run-against-run equality, not a
/// frozen string: the diversified winner may legitimately differ from the
/// single-solver trajectory, but never from itself across thread counts.
#[test]
fn golden_portfolio_thread_independence() {
    let locks: [(&str, &dyn Fn() -> LockedCircuit); 2] = [("xor", &xor_lock), ("cute", &cute_lock)];
    for (label, lock) in locks {
        let lc = lock();
        let mut reference: Option<(String, String, String)> = None;
        for threads in [1, 2, 4] {
            let p = Portfolio::new(4, threads);
            let got = (
                golden(&raced(AttackStrategy::ScanSat, &lc, &p)),
                golden(&raced(AttackStrategy::Int, &lc, &p)),
                golden(&raced(AttackStrategy::Kc2, &lc, &p)),
            );
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "portfolio race on {label} diverged at {threads} threads"
                ),
            }
        }
    }
}

/// Clause-sharing determinism (DETERMINISM.md Rule 7): with the exchange
/// on, the race must stay bit-identical across 1/2/4 worker threads — and
/// so must the ledger totals, because exchanges only happen in no-winner
/// epochs whose exports are a pure function of the epoch index. The small
/// `epoch_base` keeps the epoch slices below the query difficulty so the
/// exchange actually fires.
#[test]
fn golden_sharing_thread_independence() {
    // A harder lock than the other goldens: s27's queries solve inside any
    // entrant's first slice (a winner epoch never exchanges), so the
    // sharing pin locks a mid-size ISCAS'89 circuit whose queries survive
    // a few epoch barriers. The conflict cap keeps the race affordable —
    // a capped surrender is just as deterministic as a verdict.
    let lc = XorLock::new(12, 3)
        .lock(&iscas89("s510").expect("bundled").netlist)
        .expect("locks");
    let budget = AttackBudget {
        timeout: Duration::from_secs(60),
        max_bound: 6,
        max_iterations: 8,
        conflict_budget: Some(3_000),
        ..AttackBudget::default()
    };
    let mut reference: Option<(String, (u64, u64, u64))> = None;
    for threads in [1, 2, 4] {
        let p = Portfolio {
            epoch_base: 1,
            ..Portfolio::new(4, threads)
        }
        .with_share(true);
        let spec = AttackSpec::new(AttackStrategy::ScanSat)
            .with_budget(budget.clone())
            .with_portfolio(p);
        let got = (
            golden(&run_attack(&lc, &spec)),
            spec.portfolio.share_stats(),
        );
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "sharing race diverged at {threads} threads"),
        }
    }
    let (exported, imported, _) = reference.expect("three runs").1;
    assert!(exported > 0 && imported > 0, "exchange never fired");
}

/// `with_share(false)` — the default — must leave the race untouched:
/// same golden as the plain portfolio, and the ledger never fires.
#[test]
fn golden_sharing_off_is_transparent() {
    let lc = xor_lock();
    let off = Portfolio::new(4, 2).with_share(false);
    let plain = Portfolio::new(4, 2);
    assert_eq!(
        golden(&raced(AttackStrategy::ScanSat, &lc, &off)),
        golden(&raced(AttackStrategy::ScanSat, &lc, &plain)),
    );
    assert_eq!(off.share_stats(), (0, 0, 0));
}

/// Simplification-off bit-identity: a plain [`AttackSpec`] simplifies, so
/// this test alone pins the raw-netlist path, running one spec with
/// `with_simplify(false)` and demanding its exact frozen golden.
#[test]
fn golden_simplify_off_is_bit_identical() {
    let spec = AttackSpec::new(AttackStrategy::ScanSat)
        .with_budget(budget())
        .with_simplify(false);
    check(
        "simplify-off/sat/xor",
        "Equal(0010) iters=2",
        golden(&run_attack(&xor_lock(), &spec)),
    );
    check(
        "simplify-off/sat/cute",
        "x..x(11) iters=2",
        golden(&run_attack(&cute_lock(), &spec)),
    );
}

/// Simplification-on verdict identity: with the netlist simplifier in
/// front of the encoder, every deterministic oracle-guided strategy must
/// reach the same *verdict* as the raw path — the same exact key on the
/// breakable XOR lock (the key is unique) and the same outcome label on
/// the resilient Cute-Lock (the surviving wrong-key bits may legitimately
/// differ, as may iteration counts: simplification changes which DIPs the
/// solver happens to find first). FALL is exempt by design — its
/// structural comparator analysis reads the locked netlist as-built.
#[test]
fn golden_simplify_on_is_verdict_identical() {
    let strategies = [
        AttackStrategy::ScanSat,
        AttackStrategy::Bbo,
        AttackStrategy::Int,
        AttackStrategy::Kc2,
        AttackStrategy::Rane,
        AttackStrategy::AppSat,
        AttackStrategy::DoubleDip,
    ];
    for strategy in strategies {
        let spec = AttackSpec::new(strategy)
            .with_budget(budget())
            .with_simplify(true);
        let on_xor = run_attack(&xor_lock(), &spec);
        match &on_xor.outcome {
            AttackOutcome::KeyFound(k) => {
                assert_eq!(format!("{k}"), "0010", "simplify-on/{strategy}/xor key")
            }
            other => panic!("simplify-on/{strategy}/xor: expected KeyFound, got {other:?}"),
        }
        let off = run_attack(
            &cute_lock(),
            &AttackSpec::new(strategy)
                .with_budget(budget())
                .with_simplify(false),
        );
        let on = run_attack(&cute_lock(), &spec);
        assert_eq!(
            on.outcome.label(),
            off.outcome.label(),
            "simplify-on/{strategy}/cute verdict"
        );
    }
}

#[test]
fn golden_fall() {
    let tt = TtLock::new(4, 3).lock(&s27()).expect("locks");
    let r = fall_attack_with(&tt, &AttackBudget::default(), &Portfolio::single());
    let actual = format!(
        "candidates={} keys={} outcome={}",
        r.candidates, r.keys_found, r.outcome
    );
    check(
        "fall/ttlock",
        "candidates=1 keys=1 outcome=Equal(1010)",
        actual,
    );
    let r = fall_attack_with(&cute_lock(), &AttackBudget::default(), &Portfolio::single());
    let actual = format!(
        "candidates={} keys={} outcome={}",
        r.candidates, r.keys_found, r.outcome
    );
    check("fall/cute", "candidates=0 keys=0 outcome=FAIL", actual);
}

/// The exits every oracle-guided strategy takes before it judges a key,
/// frozen per strategy: a netlist with no key inputs (`FAIL`, nothing
/// solved), an iteration cap of zero (`N/A` on the first DIP), and, for
/// the unrolling strategies, a bound cap of zero (`FAIL` at bound 0).
#[test]
fn golden_loop_exits() {
    // Each strategy with the bound its keyless `FAIL` reports: the scan
    // attacks always report bound 1, the unrolling attacks the bound
    // reached (none).
    let strategies = [
        (AttackStrategy::ScanSat, 1),
        (AttackStrategy::AppSat, 1),
        (AttackStrategy::DoubleDip, 1),
        (AttackStrategy::Bbo, 0),
        (AttackStrategy::Int, 0),
        (AttackStrategy::Kc2, 0),
        (AttackStrategy::Rane, 0),
    ];
    let keyless = LockedCircuit {
        netlist: s27(),
        original: s27(),
        schedule: KeySchedule::constant(KeyValue::from_u64(0, 1), 1),
        scheme: "none",
        counter_ffs: Vec::new(),
        locked_ffs: Vec::new(),
    };
    let locks = [
        XorLock::new(6, 41).lock(&s27()).expect("locks"),
        cute_lock(),
    ];
    let cut = |max_iterations, max_bound| AttackBudget {
        max_iterations,
        max_bound,
        ..budget()
    };
    for (strategy, keyless_bound) in strategies {
        let run = |lc: &LockedCircuit, budget: AttackBudget| {
            let r = run_attack(lc, &AttackSpec::new(strategy).with_budget(budget));
            (r.outcome.label(), r.iterations, r.bound, r.stats)
        };
        let zero = RunStats::default();
        assert_eq!(
            run(&keyless, budget()),
            ("FAIL", 0, keyless_bound, zero),
            "{strategy}/keyless"
        );
        for lc in &locks {
            let (label, iterations, _, _) = run(lc, cut(0, 6));
            assert_eq!(
                (label, iterations),
                ("N/A", 1),
                "{strategy}/{}/max_iterations=0",
                lc.scheme
            );
            if keyless_bound == 0 {
                assert_eq!(
                    run(lc, cut(256, 0)),
                    ("FAIL", 0, 0, zero),
                    "{strategy}/{}/max_bound=0",
                    lc.scheme
                );
            }
        }
    }
}
