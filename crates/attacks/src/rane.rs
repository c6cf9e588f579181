//! RANE — Reverse Assessment of Netlist Encryption (Roshanisefat et al.).
//!
//! RANE drives formal verification tools over the locked design, modeling
//! the **initial state as a secret variable** alongside the key, and
//! searches for an unlocking key/sequence consistent with the oracle. This
//! reproduction realizes the same model on the workspace solver: the
//! unrolling engine of [`crate::bmc`] with a secret initial state — one
//! shared set of free initial-state variables joins the two miter copies
//! and every oracle-constraint chain.
//!
//! Against Cute-Lock the extra freedom does not help: whatever initial
//! counter phase the solver guesses, oracle traces longer than one counter
//! period demand a different key value per cycle, and the constant-key
//! model collapses to `CNS` just as in Tables III–IV.

use cutelock_core::LockedCircuit;

use crate::bmc::{unrolled_attack, InitModel};
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackReport};

/// Runs the RANE-style attack (incremental engine, secret initial state),
/// racing each solver query across the given [`Portfolio`].
pub(crate) fn rane_attack_with(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
) -> AttackReport {
    unrolled_attack(locked, budget, portfolio, InitModel::Secret, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::verify_candidate_key;
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

    fn rane(lc: &LockedCircuit) -> AttackReport {
        let spec = AttackSpec::new(AttackStrategy::Rane).with_budget(quick_budget());
        run_attack(lc, &spec)
    }

    #[test]
    fn rane_breaks_xor_lock() {
        let lc = XorLock::new(3, 23).lock(&s27()).unwrap();
        let report = rane(&lc);
        match &report.outcome {
            AttackOutcome::KeyFound(k) => assert!(verify_candidate_key(&lc, k, 300, 2)),
            other => panic!("expected KeyFound, got {other}"),
        }
    }

    #[test]
    fn rane_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 29,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        assert!(!lc.schedule.is_constant(), "degenerate schedule");
        let report = rane(&lc);
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::Cns | AttackOutcome::WrongKey(_) | AttackOutcome::Timeout
            ),
            "got {}",
            report.outcome
        );
    }
}
