//! The oracle-guided SAT attack (Subramanyan et al., HOST 2015) under the
//! full-scan assumption.
//!
//! With scan access every flip-flop is controllable and observable, so the
//! attack targets the *combinational core*: pseudo-inputs are the flip-flop
//! outputs, pseudo-outputs the flip-flop data inputs. The classic DIP loop
//! then runs on single input patterns instead of sequences.
//!
//! The oracle chip exposes only the **functional** state (the original
//! flip-flops) through its scan chain; state elements added by the lock
//! (the Cute-Lock counter, DK-Lock's mode register) have no oracle
//! counterpart. They remain attacker-controlled pseudo-inputs of the locked
//! model whose next-state is unobservable. This is exactly why Cute-Lock
//! survives even *with* scan access (paper §I): each DIP pins the counter
//! to some time `t` and teaches the attacker that the constant key must
//! equal `schedule[t]` — two DIPs with different times leave no consistent
//! key and the attack ends in
//! [`AttackOutcome::Cns`](crate::AttackOutcome::Cns).
//!
//! The miter itself — two scan-view copies with private keys, shared
//! inputs, and a retractable differ constraint — is built entirely by the
//! unified [`MiterBuilder`](cutelock_sat::MiterBuilder) engine, and the
//! hunt-then-extract loop is the crate's one DIP loop (`dip.rs`); this
//! module only wires the two together.

use cutelock_core::LockedCircuit;

use crate::dip::Run;
use crate::portfolio::Portfolio;
use crate::scan::ScanModel;
use crate::{AttackBudget, AttackReport};

/// Runs the scan-access oracle-guided SAT attack, racing each solver query
/// across the given [`Portfolio`] (a `k <= 1` portfolio runs one solver).
pub(crate) fn scan_sat_attack_with(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
) -> AttackReport {
    let mut run = Run::new(locked, budget, portfolio, 1);
    let Some(mut m) = ScanModel::new(&run) else {
        return run.fail();
    };
    let diff = m.obs_differ(0, 1);
    if let Err(end) = run.hunt(&mut m, &[&[diff]]) {
        return end;
    }
    run.extract(&mut m, 0x5a7)
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

    fn scan_sat(lc: &LockedCircuit) -> AttackReport {
        let spec = AttackSpec::new(AttackStrategy::ScanSat).with_budget(quick_budget());
        run_attack(lc, &spec)
    }

    #[test]
    fn scan_sat_breaks_xor_lock() {
        let lc = XorLock::new(6, 41).lock(&s27()).unwrap();
        let report = scan_sat(&lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn scan_sat_breaks_ttlock() {
        // FALL's prey; the plain SAT attack also breaks TTLock with scan.
        let lc = TtLock::new(4, 2).lock(&s27()).unwrap();
        let report = scan_sat(&lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn scan_sat_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 31,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        assert!(!lc.schedule.is_constant(), "degenerate schedule");
        let report = scan_sat(&lc);
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
