//! Criterion benchmarks of the attack kernels (Tables III–V timing
//! columns): the INT/KC2 dead-end detection on Cute-Lock, key recovery on
//! the XOR-lock baseline, DANA clustering, and FALL's structural sweep.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cutelock_attacks::dana::dana_attack_with_budget;
use cutelock_attacks::fall::fall_attack_with;
use cutelock_attacks::portfolio::Portfolio;
use cutelock_attacks::{run_attack, AttackBudget, AttackReport, AttackSpec, AttackStrategy};
use cutelock_circuits::{itc99, s27::s27};
use cutelock_core::baselines::XorLock;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::LockedCircuit;
use cutelock_sat::{Lit, SatResult, ShareCap, Solver, Var};

fn budget() -> AttackBudget {
    AttackBudget {
        timeout: Duration::from_secs(20),
        max_bound: 5,
        max_iterations: 64,
        conflict_budget: Some(300_000),
        ..AttackBudget::default()
    }
}

fn spec(strategy: AttackStrategy, portfolio: Portfolio) -> AttackSpec {
    AttackSpec::new(strategy)
        .with_budget(budget())
        .with_portfolio(portfolio)
}

fn lock_s27(keys: usize) -> LockedCircuit {
    CuteLockStr::new(CuteLockStrConfig {
        keys,
        key_bits: 2,
        locked_ffs: 1,
        seed: 3,
        schedule: None,
        ..Default::default()
    })
    .lock(&s27())
    .expect("locks")
}

fn bench_oracle_guided(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_guided_s27");
    let multi = lock_s27(4);
    let int = spec(AttackStrategy::Int, Portfolio::single());
    let kc2 = spec(AttackStrategy::Kc2, Portfolio::single());
    group.bench_function("int_dead_end_multikey", |b| {
        b.iter(|| run_attack(&multi, &int))
    });
    group.bench_function("kc2_dead_end_multikey", |b| {
        b.iter(|| run_attack(&multi, &kc2))
    });
    let xor = XorLock::new(4, 3).lock(&s27()).expect("locks");
    group.bench_function("int_breaks_xorlock", |b| b.iter(|| run_attack(&xor, &int)));
    group.finish();
}

/// Deterministic golden form of a report (outcome incl. key + iteration
/// count; timing excluded), for the pre-bench determinism assertions.
fn golden(r: &AttackReport) -> String {
    format!("{} iters={} bound={}", r.outcome, r.iterations, r.bound)
}

/// The portfolio acceptance group: a single solver per query (first entry
/// = the group baseline) against a 4-entrant race on the machine's
/// workers, on the bundled s27 locks. Before timing anything the bench
/// *asserts* the portfolio determinism contract — `--portfolio 4` results
/// are bit-identical across 1, 2, and 4 race threads — so a regression
/// fails loudly here as well as in the golden_s27 suite.
///
/// Read the comparison honestly: s27 queries finish in well under one
/// epoch slice, so this group measures the race's *overhead floor*
/// (K solver clones per query) — expect `slower` here. The portfolio pays
/// on instances whose queries are hard enough that solver diversity beats
/// a single heuristic trajectory; s27 has no such queries.
fn bench_portfolio(c: &mut Criterion) {
    let xor = XorLock::new(4, 3).lock(&s27()).expect("locks");
    let multi = lock_s27(4);
    let raced = |strategy: AttackStrategy, lc: &LockedCircuit, threads: usize| {
        golden(&run_attack(lc, &spec(strategy, Portfolio::new(4, threads))))
    };
    for lc in [&xor, &multi] {
        let reference = raced(AttackStrategy::Int, lc, 1);
        for threads in [2, 4] {
            assert_eq!(
                raced(AttackStrategy::Int, lc, threads),
                reference,
                "portfolio race diverged at {threads} threads"
            );
        }
        assert_eq!(
            raced(AttackStrategy::ScanSat, lc, 4),
            raced(AttackStrategy::ScanSat, lc, 1),
        );
    }

    let (int, int4) = (
        spec(AttackStrategy::Int, Portfolio::single()),
        spec(AttackStrategy::Int, Portfolio::new(4, 4)),
    );
    let mut group = c.benchmark_group("portfolio_vs_single");
    group.bench_function("single_int_xorlock", |b| b.iter(|| run_attack(&xor, &int)));
    group.bench_function("portfolio4_int_xorlock", |b| {
        b.iter(|| run_attack(&xor, &int4))
    });
    group.finish();

    let (sat, sat4) = (
        spec(AttackStrategy::ScanSat, Portfolio::single()),
        spec(AttackStrategy::ScanSat, Portfolio::new(4, 4)),
    );
    let mut group = c.benchmark_group("portfolio_vs_single_multikey");
    group.bench_function("single_sat_deadend", |b| {
        b.iter(|| run_attack(&multi, &sat))
    });
    group.bench_function("portfolio4_sat_deadend", |b| {
        b.iter(|| run_attack(&multi, &sat4))
    });
    group.finish();
}

/// Encodes the pigeonhole principle PHP(n) — `n + 1` pigeons into `n`
/// holes, UNSAT with only exponential resolution refutations — the
/// deterministic hard instance the clause-sharing group races on.
fn php_solver(holes: usize) -> Solver {
    let mut s = Solver::new();
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| Var::from_index(p * holes + h);
    for _ in 0..pigeons * holes {
        s.new_var();
    }
    for p in 0..pigeons {
        let clause: Vec<Lit> = (0..holes).map(|h| Lit::positive(var(p, h))).collect();
        s.add_clause(&clause);
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in (p + 1)..pigeons {
                s.add_clause(&[Lit::negative(var(p, h)), Lit::negative(var(q, h))]);
            }
        }
    }
    s
}

/// The clause-sharing acceptance group: the same portfolio race over a
/// hard UNSAT proof with the exchange off (first entry = the group
/// baseline) and on. Every entrant must independently refute PHP without
/// sharing; with it, each epoch barrier pools the entrants' learnt
/// clauses, so the refutation closes in fewer conflicts. (An attack on
/// the bundled s27 locks cannot exercise this: its queries finish inside
/// any entrant's first slice, and a winner epoch never reaches an
/// exchange barrier. PHP also needs a wider [`ShareCap`] than the
/// default — pigeonhole learnts are long and high-LBD, so the default
/// export filter passes nothing.) Before timing anything the bench
/// *asserts* the Rule 7 contract on a quick PHP(7) race: share-on
/// verdicts, winner conflict counts, and ledger totals are bit-identical
/// across 1 and 4 race threads, and the exchange actually fired.
///
/// The timed pair races PHP(8), where sharing roughly halves the
/// winner's conflict count — a multi-second race either way, so the
/// group temporarily trims the sample count instead of inheriting the
/// harness default.
fn bench_clause_sharing(c: &mut Criterion) {
    let race = |epoch_base: u64, cap: usize, threads: usize, share: bool| {
        let mut p = Portfolio {
            epoch_base,
            ..Portfolio::new(4, threads)
        }
        .with_share(share);
        p.share_cap = ShareCap::with_limit(cap);
        p
    };
    let verdict = |threads: usize| {
        let p = race(64, 16, threads, true);
        let mut s = php_solver(7);
        let r = p.race(&mut s);
        (r, s.stats().conflicts, p.share_stats())
    };
    let reference = verdict(1);
    assert_eq!(reference.0, SatResult::Unsat, "PHP must refute");
    assert_eq!(
        verdict(4),
        reference,
        "sharing race diverged between 1 and 4 threads"
    );
    assert!(
        reference.2 .0 > 0,
        "exchange never fired: nothing to measure"
    );

    let off = race(128, 12, 4, false);
    let on = race(128, 12, 4, true);
    *c = Criterion::default()
        .sample_size(3)
        .warm_up_time(Duration::from_millis(1));
    let mut group = c.benchmark_group("clause_sharing");
    group.bench_function("share_off", |b| {
        b.iter(|| {
            let mut s = php_solver(8);
            off.race(&mut s)
        })
    });
    group.bench_function("share_on", |b| {
        b.iter(|| {
            let mut s = php_solver(8);
            on.race(&mut s)
        })
    });
    group.finish();
    *c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
}

fn bench_dana(c: &mut Criterion) {
    let mut group = c.benchmark_group("dana_clustering");
    for name in ["b03", "b12", "b14"] {
        let circuit = itc99(name).expect("exists");
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, circ| {
            b.iter(|| dana_attack_with_budget(&circ.netlist, &AttackBudget::default()))
        });
    }
    group.finish();
}

fn bench_fall(c: &mut Criterion) {
    let mut group = c.benchmark_group("fall_sweep");
    for name in ["b08", "b12"] {
        let circuit = itc99(name).expect("exists");
        let locked = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 5,
            locked_ffs: 4,
            seed: 5,
            schedule: None,
            ..Default::default()
        })
        .lock(&circuit.netlist)
        .expect("locks");
        group.bench_with_input(BenchmarkId::from_parameter(name), &locked, |b, lc| {
            b.iter(|| fall_attack_with(lc, &AttackBudget::default(), &Portfolio::single()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5));
    targets = bench_oracle_guided, bench_portfolio, bench_clause_sharing, bench_dana, bench_fall
}
criterion_main!(benches);
