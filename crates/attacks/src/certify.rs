//! Designer-side certification of a locked circuit.
//!
//! Simulation-based validation (`LockedCircuit::verify_equivalence`)
//! samples; this module *proves*, by SAT, that the locked circuit driven
//! with the correct key schedule is equivalent to the original for **all**
//! input sequences up to a bounded number of cycles from reset, or finds
//! a sequence that tells them apart. The unrolled two-circuit instance is
//! lowered through [`CircuitEncoder::encode_unrolled`], the same engine the
//! attacks use, and backs the `cutelock verify` CLI subcommand.

use cutelock_core::LockedCircuit;
use cutelock_netlist::unroll::{unroll, InitState, KeySharing};
use cutelock_netlist::NetlistError;
use cutelock_sat::equiv::EquivResult;
use cutelock_sat::{Binding, CircuitEncoder, Lit, SatResult};

/// Proves bounded equivalence of `locked` (keys driven by the correct
/// schedule) against its original, for all input sequences of `frames`
/// cycles from reset.
///
/// # Errors
///
/// Propagates unrolling/encoding failures.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn prove_locked_equivalence(
    locked: &LockedCircuit,
    frames: usize,
    conflict_budget: Option<u64>,
) -> Result<EquivResult, NetlistError> {
    assert!(frames > 0);
    let mut enc = CircuitEncoder::new();
    enc.solver.set_conflict_budget(conflict_budget);
    let (ul, cnf_l) = enc.encode_unrolled(
        &locked.netlist,
        frames,
        InitState::FromInit,
        KeySharing::PerFrame,
        &Binding::new(),
    )?;
    // Pin the locked key port to the scheduled key, frame by frame.
    for (t, keys) in ul.frame_keys.iter().enumerate() {
        let kv = locked.schedule.key_at_cycle(t as u64);
        enc.pin(&cnf_l.lits(keys), kv.bits());
    }
    // Share the data inputs positionally.
    let uo = unroll(
        &locked.original,
        frames,
        InitState::FromInit,
        KeySharing::Shared,
    )?;
    let mut shared = Binding::new();
    for t in 0..frames {
        shared.bind_all(&uo.frame_inputs[t], &cnf_l.lits(&ul.frame_inputs[t]));
    }
    let cnf_o = enc.encode(&uo.netlist, &shared)?;
    let lo: Vec<Lit> = ul
        .frame_outputs
        .iter()
        .flatten()
        .map(|&o| cnf_l.lit(o))
        .collect();
    let oo: Vec<Lit> = uo
        .frame_outputs
        .iter()
        .flatten()
        .map(|&o| cnf_o.lit(o))
        .collect();
    let diff = enc.differ(&lo, &oo);
    enc.solver.add_clause(&[diff]);
    Ok(match enc.solver.solve() {
        // Equivalent for all sequences = certification success.
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Unknown => EquivResult::Unknown,
        SatResult::Sat => EquivResult::Counterexample(
            (0..frames)
                .map(|t| enc.values(&cnf_l.lits(&ul.frame_inputs[t])))
                .collect(),
        ),
    })
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
}
