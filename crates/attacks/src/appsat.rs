//! AppSAT and Double-DIP — the approximate / strengthened SAT-attack
//! variants cited in the paper's related work (§II-B).
//!
//! * **AppSAT** (Shamsi et al., HOST 2017) interleaves the exact DIP loop
//!   with random-query error estimation and settles for an *approximate*
//!   key once the observed error rate drops below a threshold — effective
//!   against low-corruptibility point functions (Anti-SAT), and a relevant
//!   adversary for any scheme whose wrong keys corrupt rarely.
//! * **Double-DIP** (Shen & Zhou, GLSVLSI 2017) constrains each iteration
//!   to find input patterns that eliminate *at least two* wrong keys at
//!   once, defeating SARLock-style one-key-per-DIP defenses.
//!
//! Both run on the shared scan miter model (the same
//! [`MiterBuilder`](cutelock_sat::MiterBuilder)-built model as
//! [`crate::sat_attack`]); Double-DIP just adds a third key copy. Against
//! Cute-Lock they fare no better than the exact attack: the approximate
//! key AppSAT returns is still a *constant* key, so its error rate can
//! never reach zero, and the run ends in a (labeled) approximate wrong
//! key; Double-DIP's pair constraint just reaches the `CNS` dead end in
//! fewer iterations.

use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_sat::SatResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::outcome::verify_candidate_key;
use crate::portfolio::Portfolio;
use crate::scan::ScanModel;
use crate::{AttackBudget, AttackOutcome, AttackReport, RunStats};

/// Settings specific to AppSAT.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppSatConfig {
    /// Run the error estimation every this many DIP iterations.
    pub settle_every: usize,
    /// Number of random queries per estimation round.
    pub queries: usize,
    /// Accept the key when the estimated error rate is at or below this.
    pub error_threshold: f64,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        Self {
            settle_every: 4,
            queries: 64,
            error_threshold: 0.0,
        }
    }
}

/// Estimated error rate of candidate `key` over random stimulus, via the
/// 64-lane batched miter: `queries` cycles × 64 lanes of samples per call
/// instead of one scalar sequence.
fn estimate_error(locked: &LockedCircuit, key: &KeyValue, queries: usize, rng: &mut StdRng) -> f64 {
    locked
        .wide_corruption_rate(key, queries, rng.next_u64())
        .unwrap_or(1.0)
}

/// Runs AppSAT on `locked`, racing each solver query across the given
/// [`Portfolio`].
///
/// Returns [`AttackOutcome::KeyFound`] only when the settled key verifies
/// exactly; an approximate key that still errs is reported as
/// [`AttackOutcome::WrongKey`] (the paper's `x..x`).
pub(crate) fn appsat_attack_with(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    config: &AppSatConfig,
    portfolio: &Portfolio,
) -> AttackReport {
    let start = budget.start();
    let mk = |outcome, iterations, stats: RunStats| AttackReport {
        outcome,
        elapsed: budget.clock.now().duration_since(start),
        iterations,
        bound: 1,
        stats,
    };
    let Some(mut m) = ScanModel::new(locked, budget.conflict_budget) else {
        return mk(AttackOutcome::Fail, 0, RunStats::default());
    };
    m.solver().set_clock(budget.clock.clone());
    portfolio.install(m.solver());
    let mut rng = StdRng::seed_from_u64(0xa995a7);
    let diff = m.obs_differ();
    // Retractable DIP-hunt constraint (see `sat_attack`): the final
    // extraction reuses the same live solver once the scope is popped.
    m.solver().push_scope();
    m.solver().add_scoped_clause(&[diff]);
    let mut iterations = 0usize;
    loop {
        let Some(rem) = budget.remaining(start) else {
            return mk(
                AttackOutcome::Timeout,
                iterations,
                m.solver().stats().into(),
            );
        };
        m.solver().set_timeout(Some(rem));
        match portfolio.race_scoped(m.solver(), &[]) {
            SatResult::Unknown => {
                return mk(
                    AttackOutcome::Timeout,
                    iterations,
                    m.solver().stats().into(),
                )
            }
            SatResult::Unsat => break,
            SatResult::Sat => {
                iterations += 1;
                if iterations > budget.max_iterations {
                    return mk(
                        AttackOutcome::Timeout,
                        iterations,
                        m.solver().stats().into(),
                    );
                }
                let x = m.values(&m.xs);
                let s = m.values(&m.ss);
                m.constrain_pattern(&x, &s);
                if portfolio.race(m.solver()) == SatResult::Unsat {
                    return mk(AttackOutcome::Cns, iterations, m.solver().stats().into());
                }
                // Settle phase: estimate the current candidate's error.
                if iterations % config.settle_every == 0 {
                    let cand = KeyValue::from_bits(m.values(&m.k1));
                    let err = estimate_error(locked, &cand, config.queries, &mut rng);
                    if err <= config.error_threshold {
                        return if verify_candidate_key(locked, &cand, 256, 0xa1) {
                            mk(
                                AttackOutcome::KeyFound(cand),
                                iterations,
                                m.solver().stats().into(),
                            )
                        } else {
                            mk(
                                AttackOutcome::WrongKey(cand),
                                iterations,
                                m.solver().stats().into(),
                            )
                        };
                    }
                }
            }
        }
    }
    m.solver().pop_scope();
    match portfolio.race(m.solver()) {
        SatResult::Unsat => mk(AttackOutcome::Cns, iterations, m.solver().stats().into()),
        SatResult::Unknown => mk(
            AttackOutcome::Timeout,
            iterations,
            m.solver().stats().into(),
        ),
        SatResult::Sat => {
            let cand = KeyValue::from_bits(m.values(&m.k1));
            if verify_candidate_key(locked, &cand, 256, 0xa2) {
                mk(
                    AttackOutcome::KeyFound(cand),
                    iterations,
                    m.solver().stats().into(),
                )
            } else {
                mk(
                    AttackOutcome::WrongKey(cand),
                    iterations,
                    m.solver().stats().into(),
                )
            }
        }
    }
}

/// Runs the Double-DIP attack: each iteration demands an input pattern on
/// which the two key copies disagree **and** at least one of them also
/// disagrees with a third key copy — guaranteeing every DIP prunes two or
/// more wrong keys. Each solver query is raced across the given
/// [`Portfolio`].
pub(crate) fn double_dip_attack_with(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
) -> AttackReport {
    let start = budget.start();
    let mk = |outcome, iterations, stats: RunStats| AttackReport {
        outcome,
        elapsed: budget.clock.now().duration_since(start),
        iterations,
        bound: 1,
        stats,
    };
    let Some(mut m) = ScanModel::new(locked, budget.conflict_budget) else {
        return mk(AttackOutcome::Fail, 0, RunStats::default());
    };
    m.solver().set_clock(budget.clock.clone());
    portfolio.install(m.solver());
    // Third key copy sharing the same inputs.
    let (k3, f3) = m.add_key_copy();
    let d12 = m.obs_differ();
    let (f1, obs3) = (m.f1.clone(), f3);
    let d13 = m.m.obs_differ(&f1, &obs3);

    // Phase 1 scope: demand a *double* DIP (both miters differ).
    m.solver().push_scope();
    m.solver().add_scoped_clause(&[d12]);
    m.solver().add_scoped_clause(&[d13]);
    let mut iterations = 0usize;
    loop {
        let Some(rem) = budget.remaining(start) else {
            return mk(
                AttackOutcome::Timeout,
                iterations,
                m.solver().stats().into(),
            );
        };
        m.solver().set_timeout(Some(rem));
        match portfolio.race_scoped(m.solver(), &[]) {
            SatResult::Unknown => {
                return mk(
                    AttackOutcome::Timeout,
                    iterations,
                    m.solver().stats().into(),
                )
            }
            SatResult::Unsat => break,
            SatResult::Sat => {
                iterations += 1;
                if iterations > budget.max_iterations {
                    return mk(
                        AttackOutcome::Timeout,
                        iterations,
                        m.solver().stats().into(),
                    );
                }
                let x = m.values(&m.xs);
                let s = m.values(&m.ss);
                // One oracle query constrains all three key copies (the
                // third must stay consistent too).
                let (k1, k2) = (m.k1.clone(), m.k2.clone());
                m.constrain_pattern_for(&[&k1, &k2, &k3], &x, &s);
                if portfolio.race(m.solver()) == SatResult::Unsat {
                    return mk(AttackOutcome::Cns, iterations, m.solver().stats().into());
                }
            }
        }
    }
    m.solver().pop_scope();
    // Fall back to the single-miter termination: no pair of distinguishable
    // keys remains at all, or only double-DIPs are exhausted. Phase 2
    // scope: a plain single-miter DIP.
    m.solver().push_scope();
    m.solver().add_scoped_clause(&[d12]);
    loop {
        let Some(rem) = budget.remaining(start) else {
            return mk(
                AttackOutcome::Timeout,
                iterations,
                m.solver().stats().into(),
            );
        };
        m.solver().set_timeout(Some(rem));
        match portfolio.race_scoped(m.solver(), &[]) {
            SatResult::Unknown => {
                return mk(
                    AttackOutcome::Timeout,
                    iterations,
                    m.solver().stats().into(),
                )
            }
            SatResult::Unsat => break,
            SatResult::Sat => {
                iterations += 1;
                if iterations > budget.max_iterations {
                    return mk(
                        AttackOutcome::Timeout,
                        iterations,
                        m.solver().stats().into(),
                    );
                }
                let x = m.values(&m.xs);
                let s = m.values(&m.ss);
                m.constrain_pattern(&x, &s);
                if portfolio.race(m.solver()) == SatResult::Unsat {
                    return mk(AttackOutcome::Cns, iterations, m.solver().stats().into());
                }
            }
        }
    }
    m.solver().pop_scope();
    match portfolio.race(m.solver()) {
        SatResult::Unsat => mk(AttackOutcome::Cns, iterations, m.solver().stats().into()),
        SatResult::Unknown => mk(
            AttackOutcome::Timeout,
            iterations,
            m.solver().stats().into(),
        ),
        SatResult::Sat => {
            let cand = KeyValue::from_bits(m.values(&m.k1));
            if verify_candidate_key(locked, &cand, 256, 0xdd) {
                mk(
                    AttackOutcome::KeyFound(cand),
                    iterations,
                    m.solver().stats().into(),
                )
            } else {
                mk(
                    AttackOutcome::WrongKey(cand),
                    iterations,
                    m.solver().stats().into(),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_attack, AttackSpec, AttackStrategy};
    use cutelock_circuits::s27::s27;
    use cutelock_core::baselines::{TtLock, XorLock};
    use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};

    fn quick_budget() -> AttackBudget {
        AttackBudget {
            timeout: std::time::Duration::from_secs(30),
            max_bound: 1,
            max_iterations: 256,
            conflict_budget: Some(500_000),
            ..AttackBudget::default()
        }
    }

    fn attack(strategy: AttackStrategy, lc: &LockedCircuit) -> AttackReport {
        run_attack(lc, &AttackSpec::new(strategy).with_budget(quick_budget()))
    }

    #[test]
    fn appsat_breaks_xor_lock_exactly() {
        let lc = XorLock::new(5, 51).lock(&s27()).unwrap();
        let report = attack(AttackStrategy::AppSat, &lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn appsat_settles_early_on_low_corruption_lock() {
        // TTLock corrupts on a single input pattern; with a permissive
        // threshold AppSAT settles for an approximate key quickly.
        let lc = TtLock::new(4, 9).lock(&s27()).unwrap();
        let cfg = AppSatConfig {
            settle_every: 1,
            queries: 16,
            error_threshold: 0.1,
        };
        let report = appsat_attack_with(&lc, &quick_budget(), &cfg, &Portfolio::single());
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::KeyFound(_) | AttackOutcome::WrongKey(_)
            ),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn appsat_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 61,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        let report = attack(AttackStrategy::AppSat, &lc);
        assert!(report.outcome.defense_held(), "got {}", report.outcome);
    }

    #[test]
    fn double_dip_breaks_xor_lock() {
        let lc = XorLock::new(4, 53).lock(&s27()).unwrap();
        let report = attack(AttackStrategy::DoubleDip, &lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn double_dip_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 62,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        let report = attack(AttackStrategy::DoubleDip, &lc);
        assert!(report.outcome.defense_held(), "got {}", report.outcome);
    }
}
