//! The `SUBMIT` grammar: one line of text → a [`SubmitRequest`] whose work
//! closure drives the workspace pipeline through the unified
//! [`AttackSpec`] door.
//!
//! Three job kinds:
//!
//! * `SUBMIT attack --mode <m> [--circuit s27] [--scheme str|xor|ttlock|
//!   dklock|sled] [--keys K] [--key-bits KI] [--ffs N] [--seed S]
//!   [--timeout SECS] [--portfolio K] [--threads N] [--share on|off]
//!   [--simplify on|off]` — locks a built-in benchmark
//!   deterministically from the given parameters, builds an
//!   [`AttackSpec`], and runs [`run_attack`]. Batch lane. Cached by
//!   (circuit fingerprint, strategy, budget, portfolio width, share
//!   on/off, simplify on/off). With `--share on` the result line grows a
//!   deterministic `shared=exported/imported/dups` field (DETERMINISM.md
//!   Rule 7), so cached replays stay byte-identical. `--simplify` (default
//!   `on`) runs the netlist simplification engine in front of the
//!   encoder; it can change which wrong key survives a capped search, so
//!   it is keyed like `--share`.
//! * `SUBMIT verify [--circuit s27] [--scheme …] [--frames N]
//!   [--conflicts N] …` — SAT-proves the locked instance cycle-exact
//!   against its original under its own schedule
//!   ([`prove_locked_equivalence`]). Express lane: verifies are the cheap,
//!   latency-sensitive jobs the fairness lane exists for. Cached.
//! * `SUBMIT solve --php N [--conflicts N]` — a pigeonhole SAT instance
//!   (`N+1` pigeons, `N` holes: UNSAT, and exponentially hard for
//!   resolution). The daemon's deterministic long-running job: `--php 12`
//!   runs for minutes yet cancels within milliseconds through the solver's
//!   stop slot — which is what the serve E2E test exercises. Cached.
//!
//! A line is read through [`Flags`], the one grammar the CLI and the table
//! bins read too. Each job kind lists the flags it reads, every one of
//! them a value flag (switches are spelled `on`/`off`); an unlisted flag or
//! a flag given twice is refused. `--portfolio`, `--frames`, `--php` and
//! the lock parameters `--keys`, `--key-bits` and `--ffs` are refused
//! outside `1..=64`: the lock is built while the line is parsed, before
//! any queue bound applies.
//!
//! The attacker-side rule from `docs/DETERMINISM.md` shapes the cache key:
//! worker-thread counts (`--threads`) never change a result, so they stay
//! *out* of the key; anything that can change a verdict (strategy, budget,
//! portfolio width, share on/off, circuit, lock parameters) goes in.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use cutelock_attacks::certify::prove_locked_equivalence;
use cutelock_attacks::portfolio::Portfolio;
use cutelock_attacks::{run_attack, AttackBudget, AttackOutcome, AttackSpec, AttackStrategy};
use cutelock_circuits::{iscas89, itc99};
use cutelock_core::args::Flags;
use cutelock_core::clock::ClockHandle;
use cutelock_core::fingerprint::Fingerprint;
use cutelock_core::str_lock::CuteLockStrConfig;
use cutelock_core::{lock_named, LockedCircuit};
use cutelock_netlist::Netlist;
use cutelock_sat::equiv::EquivResult;
use cutelock_sat::{Lit, SatResult, Solver, Var};

use crate::queue::{Lane, SubmitRequest};

/// Hard ceilings a daemon imposes on submitted work.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Longest budget a job may request, measured on [`Limits::clock`].
    pub max_timeout: Duration,
    /// The clock attack budgets are measured on. Defaults to the wall
    /// clock; a [`VirtualClock`](cutelock_core::clock::VirtualClock)
    /// here makes every deadline in the daemon deterministic — timeouts
    /// fire at an exact solver-conflict count instead of a wall instant.
    pub clock: ClockHandle,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_timeout: Duration::from_secs(3600),
            clock: ClockHandle::wall(),
        }
    }
}

/// Looks a benchmark circuit up across the built-in suites.
fn builtin_circuit(name: &str) -> Result<Netlist, String> {
    iscas89(name)
        .or_else(|_| itc99(name))
        .map(|c| c.netlist)
        .map_err(|_| format!("unknown circuit `{name}` (not in iscas89/itc99)"))
}

/// Deterministically locks a built-in circuit from wire parameters —
/// the daemon-side mirror of `cutelock lock`.
fn lock_builtin(flags: &Flags) -> Result<LockedCircuit, String> {
    let circuit = flags.opt("circuit").unwrap_or("s27");
    let scheme = flags.opt("scheme").unwrap_or("str");
    let keys = flags.bounded("keys", 4)?;
    let ki = flags.bounded("key-bits", 2)?;
    let ffs = flags.bounded("ffs", 1)?;
    let seed: u64 = flags.num("seed", 0)?;
    let config = CuteLockStrConfig {
        keys,
        key_bits: ki,
        locked_ffs: ffs,
        seed,
        ..Default::default()
    };
    lock_named(scheme, &builtin_circuit(circuit)?, config)
}

/// Folds an attack/verify spec into the circuit fingerprint — the
/// (circuit, scheme, params, seed) cache key. `--threads` is deliberately
/// absent: per `docs/DETERMINISM.md`, worker counts never change results.
/// Share on/off *is* keyed: the exchange changes the search trajectory
/// (and the result line grows a `shared=` field).
fn attack_cache_key(locked: &LockedCircuit, spec: &AttackSpec) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update_u64(locked.fingerprint());
    fp.update_str("attack");
    fp.update_str(spec.strategy.name());
    fp.update_u64(spec.budget.timeout.as_millis() as u64);
    fp.update_u64(spec.budget.max_bound as u64);
    fp.update_u64(spec.budget.max_iterations as u64);
    fp.update_u64(spec.budget.conflict_budget.unwrap_or(u64::MAX));
    fp.update_u64(spec.portfolio.k as u64);
    fp.update_u64(spec.portfolio.share as u64);
    fp.update_u64(spec.simplify as u64);
    fp.finish()
}

/// The lock parameters every `attack` and `verify` line may carry.
const LOCK_FLAGS: &[&str] = &["circuit", "scheme", "keys", "key-bits", "ffs", "seed"];
const ATTACK_FLAGS: &[&str] = &[
    "mode",
    "timeout",
    "portfolio",
    "threads",
    "share",
    "simplify",
];
const VERIFY_FLAGS: &[&str] = &["frames", "conflicts"];
const SOLVE_FLAGS: &[&str] = &["php", "conflicts"];

fn parse_attack(flags: &Flags, limits: &Limits) -> Result<SubmitRequest, String> {
    let mode = flags.opt("mode").ok_or("attack needs --mode")?;
    let strategy =
        AttackStrategy::parse(mode).ok_or_else(|| format!("unknown attack mode `{mode}`"))?;
    let locked = lock_builtin(flags)?;
    let timeout = Duration::from_secs(flags.num("timeout", 60)?).min(limits.max_timeout);
    let k = flags.bounded("portfolio", 1)?;
    let threads: usize = flags.num("threads", 1)?;
    let share = match flags.opt("share") {
        None => false,
        Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("--share: expected on|off, got `{other}`")),
    };
    // Simplification defaults on (matching the CLI); it changes the search
    // trajectory, so the switch joins the cache key below.
    let simplify = match flags.opt("simplify") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("--simplify: expected on|off, got `{other}`")),
    };
    let budget = AttackBudget {
        timeout,
        clock: limits.clock.clone(),
        ..AttackBudget::default()
    };
    let spec = AttackSpec::new(strategy)
        .with_budget(budget)
        .with_portfolio(Portfolio::new(k, threads).with_share(share))
        .with_simplify(simplify);
    let cache_key = attack_cache_key(&locked, &spec);
    let label = format!("attack {mode} {} {}", locked.netlist.name(), locked.scheme);
    let work: crate::queue::JobWork = Box::new(move |stop: &Arc<AtomicBool>| {
        let mut spec = spec;
        // The job's stop flag becomes the portfolio/solver stop slot: a
        // CANCEL unwinds the attack within one portfolio epoch.
        spec.portfolio.stop = Some(Arc::clone(stop));
        let report = run_attack(&locked, &spec);
        // A budget expiry is a *failed* job, not a result: on a wall
        // clock the verdict is not reproducible (so it must never reach
        // the cache), and callers polling for a verdict should see the
        // same `failed` state either way.
        if report.outcome == AttackOutcome::Timeout {
            return Err(format!(
                "timed out: iters={} bound={}",
                report.iterations, report.bound
            ));
        }
        // No elapsed time on the wire: the cached replay of a result must
        // be byte-identical to the original computation. The sharing
        // ledger totals are deterministic (DETERMINISM.md Rule 7), so the
        // `shared=` field is cache-safe too — but it only appears when
        // sharing is on, keeping share-off result lines unchanged.
        let mut line = format!(
            "verdict={} iters={} bound={} decisive={}",
            report.outcome,
            report.iterations,
            report.bound,
            AttackSpec::is_decisive(&report.outcome)
        );
        if spec.portfolio.share {
            let (exported, imported, dups) = spec.portfolio.share_stats();
            line.push_str(&format!(" shared={exported}/{imported}/{dups}"));
        }
        Ok(line)
    });
    Ok(SubmitRequest {
        label,
        lane: Lane::Batch,
        cache_key,
        work,
    })
}

fn parse_verify(flags: &Flags) -> Result<SubmitRequest, String> {
    let locked = lock_builtin(flags)?;
    let frames = flags.bounded("frames", 4)?;
    let conflicts: u64 = flags.num("conflicts", 2_000_000)?;
    let mut fp = Fingerprint::new();
    fp.update_u64(locked.fingerprint());
    fp.update_str("verify");
    fp.update_u64(frames as u64);
    fp.update_u64(conflicts);
    let cache_key = fp.finish();
    let label = format!("verify {} {}", locked.netlist.name(), locked.scheme);
    let work: crate::queue::JobWork = Box::new(move |_stop: &Arc<AtomicBool>| {
        match prove_locked_equivalence(&locked, frames, Some(conflicts)) {
            Ok(EquivResult::Equivalent) => Ok(format!("equivalent frames={frames}")),
            Ok(EquivResult::Counterexample(cex)) => Err(format!(
                "not equivalent: outputs diverge within {} cycle(s)",
                cex.len()
            )),
            Ok(EquivResult::Unknown) => Err(format!("inconclusive within {conflicts} conflicts")),
            Err(e) => Err(e.to_string()),
        }
    });
    Ok(SubmitRequest {
        label,
        lane: Lane::Express,
        cache_key,
        work,
    })
}

/// Encodes the pigeonhole principle `PHP(n)`: `n + 1` pigeons into `n`
/// holes. UNSAT, with only exponential resolution refutations — runtime
/// climbs steeply with `n`, which makes it the daemon's deterministic
/// "long job" for cancellation tests.
fn encode_php(solver: &mut Solver, n: usize) -> Vec<Vec<Lit>> {
    let pigeons = n + 1;
    let var = |p: usize, h: usize| Var::from_index(p * n + h);
    for _ in 0..pigeons * n {
        solver.new_var();
    }
    let mut clauses = Vec::new();
    // Every pigeon sits in some hole.
    for p in 0..pigeons {
        clauses.push((0..n).map(|h| Lit::positive(var(p, h))).collect());
    }
    // No two pigeons share a hole.
    for h in 0..n {
        for p in 0..pigeons {
            for q in (p + 1)..pigeons {
                clauses.push(vec![Lit::negative(var(p, h)), Lit::negative(var(q, h))]);
            }
        }
    }
    for c in &clauses {
        solver.add_clause(c);
    }
    clauses
}

fn parse_solve(flags: &Flags) -> Result<SubmitRequest, String> {
    flags.opt("php").ok_or("solve needs --php N")?;
    let n = flags.bounded("php", 0)?;
    let conflicts: u64 = flags.num("conflicts", u64::MAX)?;
    let mut fp = Fingerprint::new();
    fp.update_str("solve-php");
    fp.update_u64(n as u64);
    fp.update_u64(conflicts);
    let cache_key = fp.finish();
    let work: crate::queue::JobWork = Box::new(move |stop: &Arc<AtomicBool>| {
        let mut solver = Solver::new();
        encode_php(&mut solver, n);
        if conflicts != u64::MAX {
            solver.set_conflict_budget(Some(conflicts));
        }
        solver.set_stop(Some(Arc::clone(stop)));
        match solver.solve() {
            SatResult::Unsat => Ok(format!("unsat php={n}")),
            SatResult::Sat => Err(format!("php({n}) came out SAT: solver bug")),
            SatResult::Unknown => Err("interrupted".into()),
        }
    });
    Ok(SubmitRequest {
        label: format!("solve php {n}"),
        lane: Lane::Batch,
        cache_key,
        work,
    })
}

/// Parses the operand of a `SUBMIT` line (everything after the verb) into
/// a ready-to-enqueue request.
pub fn parse_submit(line: &str, limits: &Limits) -> Result<SubmitRequest, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((&kind, rest)) = tokens.split_first() else {
        return Err("SUBMIT needs a job kind: attack | verify | solve".into());
    };
    // Every wire flag takes a value, so switches are spelled `on`/`off`.
    let flags = |reads: &[&[&str]]| Flags::parse(rest, &reads.concat(), &[]);
    match kind {
        "attack" => parse_attack(&flags(&[LOCK_FLAGS, ATTACK_FLAGS])?, limits),
        "verify" => parse_verify(&flags(&[LOCK_FLAGS, VERIFY_FLAGS])?),
        "solve" => parse_solve(&flags(&[SOLVE_FLAGS])?),
        other => Err(format!("unknown job kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn submit(line: &str) -> Result<SubmitRequest, String> {
        parse_submit(line, &Limits::default())
    }

    #[test]
    fn attack_requests_parse_and_run() {
        let req = submit("attack --mode sat --scheme xor --key-bits 4 --seed 3").unwrap();
        assert_eq!(req.lane, Lane::Batch);
        let stop = Arc::new(AtomicBool::new(false));
        let line = (req.work)(&stop).unwrap();
        assert!(line.contains("verdict=Equal"), "got: {line}");
        assert!(line.contains("decisive=true"), "got: {line}");
    }

    #[test]
    fn cache_key_ignores_threads_but_not_strategy_or_seed() {
        let key = |line: &str| submit(line).unwrap().cache_key;
        let base = key("attack --mode int --seed 1");
        assert_eq!(
            base,
            key("attack --mode int --seed 1 --threads 4"),
            "worker threads must not change the cache key"
        );
        assert_ne!(base, key("attack --mode kc2 --seed 1"));
        assert_ne!(base, key("attack --mode int --seed 2"));
        assert_ne!(base, key("attack --mode int --seed 1 --portfolio 4"));
    }

    #[test]
    fn cache_key_includes_share_but_not_share_cap() {
        let key = |line: &str| submit(line).unwrap().cache_key;
        let base = key("attack --mode int --seed 1 --portfolio 2");
        assert_ne!(
            base,
            key("attack --mode int --seed 1 --portfolio 2 --share on"),
            "the exchange changes the search trajectory, so it must be keyed"
        );
        assert_eq!(
            base,
            key("attack --mode int --seed 1 --portfolio 2 --share off"),
            "--share off is the default"
        );
        // The exchange cap cannot enter the key: it is no request
        // parameter at all.
        let cap = "share-cap";
        assert_eq!(
            submit(&format!("attack --mode int --{cap} 32")).err(),
            Some(format!("unknown flag --{cap}")),
        );
    }

    #[test]
    fn cache_key_includes_simplify() {
        let key = |line: &str| submit(line).unwrap().cache_key;
        let base = key("attack --mode int --seed 1");
        assert_eq!(
            base,
            key("attack --mode int --seed 1 --simplify on"),
            "--simplify on is the default"
        );
        assert_ne!(
            base,
            key("attack --mode int --seed 1 --simplify off"),
            "simplification changes the search trajectory, so it must be keyed"
        );
    }

    #[test]
    fn simplify_flag_must_be_on_or_off() {
        assert!(submit("attack --mode int --simplify maybe")
            .unwrap_err()
            .contains("on|off"));
    }

    #[test]
    fn simplified_attacks_run_and_verdict_matches_raw() {
        let stop = Arc::new(AtomicBool::new(false));
        let on = submit("attack --mode sat --scheme xor --key-bits 4 --seed 3").unwrap();
        let on_line = (on.work)(&stop).unwrap();
        assert!(on_line.contains("verdict=Equal"), "got: {on_line}");
        let off =
            submit("attack --mode sat --scheme xor --key-bits 4 --seed 3 --simplify off").unwrap();
        let off_line = (off.work)(&stop).unwrap();
        // Same unique key either way; iteration counts may differ.
        assert!(off_line.contains("verdict=Equal"), "got: {off_line}");
    }

    #[test]
    fn share_flag_must_be_on_or_off() {
        assert!(submit("attack --mode int --share maybe")
            .unwrap_err()
            .contains("on|off"));
    }

    #[test]
    fn shared_totals_ride_the_result_line_only_when_sharing() {
        let stop = Arc::new(AtomicBool::new(false));
        let off = submit("attack --mode sat --scheme xor --key-bits 4 --seed 3").unwrap();
        let line = (off.work)(&stop).unwrap();
        assert!(!line.contains("shared="), "got: {line}");
        let on =
            submit("attack --mode sat --scheme xor --key-bits 4 --seed 3 --share on --portfolio 2")
                .unwrap();
        let line = (on.work)(&stop).unwrap();
        assert!(line.contains(" shared="), "got: {line}");
        // Deterministic ledger: a re-run reproduces the line byte-for-byte
        // (this is what makes a cache replay safe).
        let again =
            submit("attack --mode sat --scheme xor --key-bits 4 --seed 3 --share on --portfolio 2")
                .unwrap();
        assert_eq!(line, (again.work)(&stop).unwrap());
    }

    #[test]
    fn verify_requests_are_express_and_run() {
        let req = submit("verify --frames 3").unwrap();
        assert_eq!(req.lane, Lane::Express);
        let stop = Arc::new(AtomicBool::new(false));
        let line = (req.work)(&stop).unwrap();
        assert_eq!(line, "equivalent frames=3");
    }

    #[test]
    fn php_jobs_are_unsat_and_cancellable() {
        // Small instance: solves quickly and must come out UNSAT.
        let req = submit("solve --php 4").unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        assert_eq!((req.work)(&stop).unwrap(), "unsat php=4");
        // A pre-raised stop flag interrupts a big instance immediately.
        let req = submit("solve --php 20").unwrap();
        let stop = Arc::new(AtomicBool::new(true));
        stop.store(true, Ordering::Relaxed);
        assert_eq!((req.work)(&stop).unwrap_err(), "interrupted");
    }

    #[test]
    fn bad_lines_are_rejected_with_useful_messages() {
        assert!(submit("").is_err());
        assert!(submit("attack").unwrap_err().contains("--mode"));
        for mode in ["nope", "race"] {
            let err = submit(&format!("attack --mode {mode}")).unwrap_err();
            assert!(
                err.contains(&format!("unknown attack mode `{mode}`")),
                "{err}"
            );
        }
        assert!(submit("attack --mode sat --bogus 1")
            .unwrap_err()
            .contains("--bogus"));
        assert!(submit("solve --php 0").is_err());
        assert_eq!(
            submit("verify --frames 2 --frames 3").unwrap_err(),
            "--frames given twice"
        );
        assert!(submit("solve").unwrap_err().contains("--php"));
        assert!(submit("mystery --x 1").unwrap_err().contains("mystery"));
    }

    #[test]
    fn portfolio_and_frames_are_bounded() {
        // Parsed only, never run: a line asking for 65 clones, frames or
        // keys is refused before it is queued (or its lock is built).
        for line in [
            "attack --mode sat --portfolio 0",
            "attack --mode sat --portfolio 65",
            "verify --frames 0",
            "verify --frames 65",
            "solve --php 65",
            "attack --mode sat --keys 0",
            "attack --mode sat --keys 65",
            "verify --key-bits 0",
            "verify --key-bits 65",
            "attack --mode int --ffs 0",
            "attack --mode int --ffs 65",
        ] {
            let flag = line.split_whitespace().rev().nth(1).unwrap();
            let Err(err) = submit(line) else {
                panic!("accepted: {line}");
            };
            assert_eq!(err, format!("{flag} must be between 1 and 64"), "{line}");
        }
        assert!(submit("attack --mode sat --portfolio 64").is_ok());
        assert!(submit("verify --frames 64").is_ok());
    }

    #[test]
    fn timeout_is_clamped_to_the_daemon_limit() {
        let limits = Limits {
            max_timeout: Duration::from_secs(5),
            ..Limits::default()
        };
        // Parses fine; the clamp shows up in the cache key being equal to
        // an explicit 5s request.
        let a = parse_submit("attack --mode int --timeout 9999", &limits)
            .unwrap()
            .cache_key;
        let b = parse_submit("attack --mode int --timeout 5", &limits)
            .unwrap()
            .cache_key;
        assert_eq!(a, b);
    }

    #[test]
    fn over_ceiling_attacks_fail_deterministically_on_a_virtual_clock() {
        use cutelock_core::clock::VirtualClock;
        // 1 ms of virtual time per solver conflict. The job asks for 9999 s
        // but the daemon's ceiling clamps it to 5 ms = 5 conflicts, so the
        // deadline fires at an exact point in the search — no wall waiting,
        // no flakiness, identical on any machine.
        let clock = VirtualClock::with_tick(1_000_000);
        let limits = Limits {
            max_timeout: Duration::from_millis(5),
            clock: clock.handle(),
        };
        let req = parse_submit(
            "attack --mode int --scheme str --keys 4 --key-bits 4 --ffs 2 --timeout 9999",
            &limits,
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let err = (req.work)(&stop).unwrap_err();
        assert!(err.starts_with("timed out:"), "got: {err}");
        // The deadline was crossed purely by conflict ticks on the shared
        // virtual clock, never by the host's wall time.
        assert!(
            clock.handle().now().as_nanos() >= 5_000_000,
            "virtual clock never reached the ceiling: {} ns",
            clock.handle().now().as_nanos()
        );
    }
}
