//! KC2 — Key-Condition Crunching (Shamsi et al., DATE 2019).
//!
//! KC2 accelerates the incremental unrolling attack by *simplifying the key
//! condition* as oracle constraints accumulate: after each discriminating
//! sequence it probes every still-free key bit with cheap bounded SAT calls
//! and permanently fixes the implied ones. On single-key locks this
//! collapses the key space rapidly; on Cute-Lock the probes accelerate the
//! discovery that **no** constant key remains, so KC2 reaches the paper's
//! `CNS` verdict faster than plain INT — visible in Tables III–IV, where
//! KC2 times track INT closely.

use cutelock_core::LockedCircuit;

use crate::bmc::{unrolled_attack, InitModel};
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackReport};

/// Runs the KC2-mode attack — incremental unrolling plus key-bit
/// fixation — racing each solver query across the given [`Portfolio`]
/// (the cheap key-bit probes stay single-solver).
pub(crate) fn kc2_attack_with(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
) -> AttackReport {
    unrolled_attack(locked, budget, portfolio, InitModel::Reset, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_attack, AttackOutcome, AttackSpec, AttackStrategy};
    use cutelock_circuits::s27::s27;
    use cutelock_core::baselines::XorLock;
    use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};

    fn quick_budget() -> AttackBudget {
        AttackBudget {
            timeout: std::time::Duration::from_secs(30),
            max_bound: 6,
            max_iterations: 64,
            conflict_budget: Some(500_000),
            ..AttackBudget::default()
        }
    }

    fn kc2(lc: &LockedCircuit) -> AttackReport {
        let spec = AttackSpec::new(AttackStrategy::Kc2).with_budget(quick_budget());
        run_attack(lc, &spec)
    }

    #[test]
    fn kc2_breaks_xor_lock() {
        let lc = XorLock::new(4, 13).lock(&s27()).unwrap();
        let report = kc2(&lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn kc2_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 17,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        assert!(!lc.schedule.is_constant(), "degenerate schedule");
        let report = kc2(&lc);
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::Cns | AttackOutcome::WrongKey(_)
            ),
            "got {}",
            report.outcome
        );
    }
}
