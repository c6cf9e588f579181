//! Designer-side certification of a locked circuit.
//!
//! Simulation-based validation (`LockedCircuit::verify_equivalence`)
//! samples; this module *proves*, by SAT, that the locked circuit driven
//! with the correct key schedule is equivalent to the original for **all**
//! input sequences up to a bounded number of cycles from reset, or finds
//! a sequence that tells them apart. The proof is the workspace's one
//! equivalence miter ([`scheduled_equiv`]): both circuits encoded as
//! `MiterBuilder` frames, the locked side's key port pinned per frame to
//! the schedule in `key_inputs()` order. It backs the `cutelock verify`
//! CLI subcommand and the daemon's `verify` jobs.

use cutelock_core::LockedCircuit;
use cutelock_netlist::NetlistError;
use cutelock_sat::equiv::{scheduled_equiv, EquivResult};

/// Proves bounded equivalence of `locked` (keys driven by the correct
/// schedule) against its original, for all input sequences of `frames`
/// cycles from reset. A counterexample lists each cycle's data inputs.
///
/// # Errors
///
/// Propagates encoding failures and interface mismatches.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn prove_locked_equivalence(
    locked: &LockedCircuit,
    frames: usize,
    conflict_budget: Option<u64>,
) -> Result<EquivResult, NetlistError> {
    let schedule: Vec<Vec<bool>> = (0..frames as u64)
        .map(|t| locked.schedule.key_at_cycle(t).bits().to_vec())
        .collect();
    scheduled_equiv(
        &locked.netlist,
        &locked.original,
        &schedule,
        conflict_budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_circuits::s27::s27;
    use cutelock_core::beh::{CuteLockBeh, CuteLockBehConfig, WrongfulPolicy};
    use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
    use cutelock_core::{KeySchedule, KeyValue};
    use cutelock_fsm::detector::sequence_detector;

    #[test]
    fn str_lock_is_provably_equivalent_on_s27() {
        let locked = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 2,
            seed: 44,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        // Exhaustive over all 2^(4*10) input sequences of 10 cycles.
        assert_eq!(
            prove_locked_equivalence(&locked, 10, None).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn beh_lock_is_provably_equivalent_on_detector() {
        let locked = CuteLockBeh::new(CuteLockBehConfig {
            keys: 4,
            key_bits: 4,
            wrongful: WrongfulPolicy::RandomTable,
            seed: 45,
            schedule: None,
        })
        .lock(&sequence_detector("1001"))
        .unwrap();
        assert_eq!(
            prove_locked_equivalence(&locked, 8, None).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn wrong_key_provably_corrupts() {
        let locked = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 46,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        let keys = locked.schedule.num_keys();
        let certify_constant = |key: KeyValue| {
            let mut doctored = locked.clone();
            doctored.schedule = KeySchedule::constant(key, keys);
            prove_locked_equivalence(&doctored, 8, None).unwrap()
        };
        let wrong = locked.schedule.key_at_time(0).flipped(0);
        assert!(
            matches!(certify_constant(wrong), EquivResult::Counterexample(_)),
            "wrong key must corrupt within 8 cycles"
        );
        // And the correct key value for time 0, applied constantly, must
        // also corrupt (it is wrong at time 1).
        let t0 = locked.schedule.key_at_time(0).clone();
        if locked.schedule.key_at_time(1) != &t0 {
            assert!(matches!(
                certify_constant(t0),
                EquivResult::Counterexample(_)
            ));
        }
    }

    #[test]
    fn schedule_binds_in_numeric_key_order() {
        let locked = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 12,
            locked_ffs: 1,
            seed: 7,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        // Re-declare the key ports lexicographically: keyinput10 and
        // keyinput11 now come before keyinput2.
        let text = cutelock_netlist::bench::write(&locked.netlist);
        let is_key = |l: &&str| l.starts_with("INPUT(keyinput");
        let mut sorted: Vec<&str> = text.lines().filter(is_key).collect();
        sorted.sort_unstable();
        let mut sorted = sorted.into_iter();
        let text: String = text
            .lines()
            .map(|l| {
                if is_key(&l) {
                    sorted.next().unwrap()
                } else {
                    l
                }
            })
            .flat_map(|l| [l, "\n"])
            .collect();
        let mut relocked = locked.clone();
        relocked.netlist = cutelock_netlist::bench::parse("s27_lex", &text).unwrap();
        let declared: Vec<_> = relocked
            .netlist
            .inputs()
            .iter()
            .copied()
            .filter(|&i| relocked.netlist.net_name(i).starts_with("keyinput"))
            .collect();
        assert_ne!(declared, relocked.netlist.key_inputs(), "ports re-declared");
        assert_eq!(
            prove_locked_equivalence(&relocked, 8, None).unwrap(),
            EquivResult::Equivalent
        );
        // Complementing the t0 key still corrupts.
        let k = locked.schedule.num_keys();
        relocked.schedule = KeySchedule::new(
            (0..k)
                .map(|t| {
                    let key = locked.schedule.key_at_time(t);
                    match t {
                        0 => KeyValue::from_bits(key.bits().iter().map(|b| !b).collect()),
                        _ => key.clone(),
                    }
                })
                .collect(),
        );
        assert!(matches!(
            prove_locked_equivalence(&relocked, 8, None).unwrap(),
            EquivResult::Counterexample(_)
        ));
    }
}
