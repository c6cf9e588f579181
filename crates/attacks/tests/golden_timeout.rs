//! Timeout-at-an-exact-instant regression pins: under a conflict-driven
//! [`VirtualClock`] every deadline in the stack fires at a *point in the
//! search*, not a wall instant — so the verdict, the iteration count, and
//! even the reported elapsed time at expiry are bit-identical on any
//! machine and any `--threads` count.
//!
//! The expected strings below were captured by running this test with
//! `GOLDEN_PRINT=1 cargo test -p cutelock_attacks --test golden_timeout -- --nocapture`.
//! They are *golden*: a mismatch means the clock plumbing (tick points,
//! deadline checks, portfolio time-crediting) changed attack behavior —
//! investigate, don't re-pin blindly. The three ample-budget `*/cute`
//! strings were re-pinned once when [`AttackSpec::new`] made
//! simplification the default.

use std::time::Duration;

use cutelock_attacks::portfolio::Portfolio;
use cutelock_attacks::{
    run_attack, AttackBudget, AttackOutcome, AttackReport, AttackSpec, AttackStrategy,
};
use cutelock_circuits::iscas89;
use cutelock_circuits::s27::s27;
use cutelock_core::baselines::{TtLock, XorLock};
use cutelock_core::clock::VirtualClock;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::LockedCircuit;

/// One millisecond of virtual time per solver conflict (and per attack
/// work unit): a 3 ms budget expires after exactly 3 ticks.
const NANOS_PER_TICK: u64 = 1_000_000;

/// A fresh conflict-driven budget: `ms` virtual milliseconds, everything
/// else generous so the virtual deadline is the only thing that can fire.
fn vbudget(ms: u64) -> AttackBudget {
    AttackBudget {
        timeout: Duration::from_millis(ms),
        max_bound: 6,
        max_iterations: 256,
        conflict_budget: Some(500_000),
        clock: VirtualClock::with_tick(NANOS_PER_TICK).handle(),
    }
}

/// The breakable baseline: a 4-bit XOR lock on s27 (same as golden_s27).
fn xor_lock() -> LockedCircuit {
    XorLock::new(4, 3).lock(&s27()).expect("locks")
}

/// The resilient target: multi-key Cute-Lock-Str on s27 (same as
/// golden_s27).
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

/// Golden form of a report under a virtual clock: verdict, iterations,
/// *and* elapsed virtual time — the elapsed field is deterministic here,
/// unlike in golden_s27 where it must be excluded.
fn golden(report: &AttackReport) -> String {
    let verdict = match &report.outcome {
        AttackOutcome::KeyFound(k) => format!("Equal({k})"),
        AttackOutcome::WrongKey(k) => format!("x..x({k})"),
        // `Timeout.label()` is "N/A" on the wire; spell it out here.
        AttackOutcome::Timeout => "Timeout".to_string(),
        other => other.label().to_string(),
    };
    format!(
        "{verdict} iters={} t={}ms",
        report.iterations,
        report.elapsed.as_millis()
    )
}

fn check(label: &str, expected: &str, actual: String) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {label}: {actual}");
        return;
    }
    assert_eq!(actual, expected, "golden mismatch for {label}");
}

/// Every deterministic strategy, pinned at expiry of a 3 ms virtual
/// budget on both bundled locks. The xor lock is breakable and the cute
/// lock resilient, but 3 conflicts of budget end every search early — at
/// the exact instants frozen below.
#[test]
fn golden_timeout_at_three_virtual_ms() {
    let expected: [(AttackStrategy, &str, &str); 8] = [
        (
            AttackStrategy::ScanSat,
            "Timeout iters=1 t=4ms",
            "Timeout iters=0 t=3ms",
        ),
        (
            AttackStrategy::Bbo,
            "Timeout iters=1 t=3ms",
            "Timeout iters=0 t=3ms",
        ),
        (
            AttackStrategy::Int,
            "Timeout iters=1 t=3ms",
            "Timeout iters=0 t=3ms",
        ),
        (
            AttackStrategy::Kc2,
            "Timeout iters=1 t=3ms",
            "Timeout iters=0 t=3ms",
        ),
        (
            AttackStrategy::Rane,
            "Timeout iters=1 t=4ms",
            "Timeout iters=0 t=5ms",
        ),
        (
            AttackStrategy::AppSat,
            "Timeout iters=1 t=4ms",
            "Timeout iters=0 t=3ms",
        ),
        (
            AttackStrategy::DoubleDip,
            "Timeout iters=1 t=4ms",
            "Timeout iters=0 t=3ms",
        ),
        (
            AttackStrategy::Fall,
            "FAIL iters=0 t=1ms",
            "Timeout iters=0 t=4ms",
        ),
    ];
    for (strategy, xor_want, cute_want) in expected {
        let spec = AttackSpec::new(strategy).with_budget(vbudget(3));
        check(
            &format!("vclk/{strategy}/xor"),
            xor_want,
            golden(&run_attack(&xor_lock(), &spec)),
        );
        let spec = AttackSpec::new(strategy).with_budget(vbudget(3));
        check(
            &format!("vclk/{strategy}/cute"),
            cute_want,
            golden(&run_attack(&cute_lock(), &spec)),
        );
    }
}

/// FALL's exact expiry is also pinned through the spec door on its natural
/// prey (TTLock) — the structural phase ticks per analysis unit, so the
/// timeout lands between candidate confirmation steps.
#[test]
fn golden_timeout_fall_on_ttlock() {
    let tt = TtLock::new(4, 3).lock(&s27()).expect("locks");
    let spec = AttackSpec::new(AttackStrategy::Fall).with_budget(vbudget(2));
    check(
        "vclk/fall/ttlock",
        "Timeout iters=1 t=3ms",
        golden(&run_attack(&tt, &spec)),
    );
}

/// A generous virtual budget must not change the verdicts at all: the
/// virtual clock only moves on ticks, so a search that completes within
/// its conflict budget reports the same outcome as under the wall clock —
/// plus a deterministic elapsed time.
#[test]
fn golden_virtual_clock_is_transparent_when_budget_is_ample() {
    let expected: [(AttackStrategy, &str, &str); 3] = [
        (
            AttackStrategy::ScanSat,
            "Equal(0010) iters=2 t=19ms",
            "x..x(00) iters=1 t=26ms",
        ),
        (
            AttackStrategy::Int,
            "Equal(0010) iters=4 t=21ms",
            "x..x(11) iters=1 t=99ms",
        ),
        (
            AttackStrategy::Kc2,
            "Equal(0010) iters=2 t=9ms",
            "x..x(11) iters=1 t=99ms",
        ),
    ];
    for (strategy, xor_want, cute_want) in expected {
        let spec = AttackSpec::new(strategy).with_budget(vbudget(3_600_000));
        check(
            &format!("vclk-ample/{strategy}/xor"),
            xor_want,
            golden(&run_attack(&xor_lock(), &spec)),
        );
        let spec = AttackSpec::new(strategy).with_budget(vbudget(3_600_000));
        check(
            &format!("vclk-ample/{strategy}/cute"),
            cute_want,
            golden(&run_attack(&cute_lock(), &spec)),
        );
    }
}

/// Clause exchange under a virtual deadline (DETERMINISM.md Rule 7): a
/// race that shares clauses and then expires must do so at the same
/// virtual instant — with the same ledger totals — on 1 or 2 worker
/// threads. The lock is a mid-size circuit whose queries outlive a few
/// epoch slices, so exchanges happen before the deadline fires.
#[test]
fn golden_sharing_timeout_is_thread_independent() {
    let lc = XorLock::new(12, 3)
        .lock(&iscas89("s510").expect("bundled").netlist)
        .expect("locks");
    let mut reference: Option<(String, (u64, u64, u64))> = None;
    for threads in [1, 2] {
        let portfolio = Portfolio {
            epoch_base: 1,
            ..Portfolio::new(4, threads)
        }
        .with_share(true);
        let spec = AttackSpec::new(AttackStrategy::ScanSat)
            .with_budget(vbudget(40))
            .with_portfolio(portfolio);
        let got = (
            golden(&run_attack(&lc, &spec)),
            spec.portfolio.share_stats(),
        );
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                &got, want,
                "sharing race under a virtual deadline diverged at {threads} threads"
            ),
        }
    }
    let (got, (exported, _, _)) = reference.expect("two runs");
    assert!(got.starts_with("Timeout"), "deadline never fired: {got}");
    assert!(exported > 0, "exchange never fired before the deadline");
}

/// The portfolio epoch path under a virtual deadline: the race credits
/// `slice` conflicts of time per epoch (a pure function of the epoch
/// index), so a timeout verdict — verdict, iterations, elapsed — is
/// identical whether the entrants run on 1 or 2 worker threads.
#[test]
fn golden_portfolio_timeout_is_thread_independent() {
    for (label, lc) in [("xor", xor_lock()), ("cute", cute_lock())] {
        for strategy in [AttackStrategy::ScanSat, AttackStrategy::Int] {
            let mut reference: Option<String> = None;
            for threads in [1, 2] {
                let spec = AttackSpec::new(strategy)
                    .with_budget(vbudget(3))
                    .with_portfolio(Portfolio::new(4, threads));
                let got = golden(&run_attack(&lc, &spec));
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(
                        &got, want,
                        "virtual-clock timeout for {strategy} on {label} \
                         diverged at {threads} threads"
                    ),
                }
            }
        }
    }
}
