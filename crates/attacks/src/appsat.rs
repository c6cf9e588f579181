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
use cutelock_sat::Solver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dip::{Miter, Run};
use crate::portfolio::Portfolio;
use crate::scan::ScanModel;
use crate::{AttackBudget, AttackReport};

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

/// The scan miter plus AppSAT's settle step: every `settle_every` DIPs,
/// estimate the current candidate's error rate over random stimulus and
/// stop once it is low enough.
struct AppSat {
    scan: ScanModel,
    config: AppSatConfig,
    rng: StdRng,
}

impl Miter for AppSat {
    fn solver(&mut self) -> &mut Solver {
        self.scan.solver()
    }

    fn key(&self) -> KeyValue {
        self.scan.key()
    }

    fn learn(&mut self, run: &Run) -> bool {
        self.scan.learn(run)
    }

    fn settle(&mut self, run: &Run) -> Option<AttackReport> {
        if run.iterations % self.config.settle_every != 0 {
            return None;
        }
        let cand = self.key();
        // The 64-lane batched miter: `queries` cycles × 64 lanes of samples
        // per estimate.
        let err = run
            .locked
            .wide_corruption_rate(&cand, self.config.queries, self.rng.next_u64())
            .unwrap_or(1.0);
        (err <= self.config.error_threshold).then(|| run.judge(cand, 0xa1, self.solver()))
    }
}

/// Runs AppSAT on `locked`, racing each solver query across the given
/// [`Portfolio`].
///
/// Returns [`AttackOutcome::KeyFound`](crate::AttackOutcome::KeyFound) only
/// when the settled key verifies exactly; an approximate key that still
/// errs is reported as
/// [`AttackOutcome::WrongKey`](crate::AttackOutcome::WrongKey) (the
/// paper's `x..x`).
pub(crate) fn appsat_attack_with(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    config: &AppSatConfig,
    portfolio: &Portfolio,
) -> AttackReport {
    let mut run = Run::new(locked, budget, portfolio, 1);
    let Some(scan) = ScanModel::new(&run) else {
        return run.fail();
    };
    let mut m = AppSat {
        scan,
        config: *config,
        rng: StdRng::seed_from_u64(0xa995a7),
    };
    let diff = m.scan.obs_differ(0, 1);
    if let Err(end) = run.hunt(&mut m, &[&[diff]]) {
        return end;
    }
    run.extract(&mut m, 0xa2)
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
    let mut run = Run::new(locked, budget, portfolio, 1);
    let Some(mut m) = ScanModel::new(&run) else {
        return run.fail();
    };
    // A third key copy sharing the same inputs: each DIP now constrains
    // all three.
    m.add_key_copy();
    let d12 = m.obs_differ(0, 1);
    let d13 = m.obs_differ(0, 2);
    // Phase 1: demand a *double* DIP (both miters differ).
    if let Err(end) = run.hunt(&mut m, &[&[d12], &[d13]]) {
        return end;
    }
    // Phase 2: once double DIPs are exhausted, fall back to the plain
    // single-miter hunt over the first two copies.
    m.keys.truncate(2);
    if let Err(end) = run.hunt(&mut m, &[&[d12]]) {
        return end;
    }
    run.extract(&mut m, 0xdd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_attack, AttackOutcome, AttackSpec, AttackStrategy};
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
