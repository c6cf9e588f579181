//! **Cute-Lock-Beh** — the RTL-level behavioral variant (paper §III-B).
//!
//! The State Transition Graph keeps its original states; the lock adds a
//! free-running counter and, per clock cycle, compares the key port against
//! the key scheduled for the current counter time. On a match the original
//! transition is taken; on a mismatch the machine takes a *wrongful
//! transition* to an incorrect state (paper Fig. 1).
//!
//! As in the paper's implementation (which elaborates the locked RTL with
//! Vivado rather than re-deriving an STG, §III-B), the transform works on
//! the *synthesized* machine: the next-state vector is re-routed through a
//! `key_ok` MUX between the correct next state and the wrongful one.
//!
//! Two wrongful-transition policies are provided:
//!
//! * [`WrongfulPolicy::RandomTable`] — a random wrong destination per
//!   (state, counter-time) pair, the literal Fig. 1 semantics; cost grows
//!   with `#states × k`.
//! * [`WrongfulPolicy::XorMask`] — the wrong next state is the correct one
//!   XOR a nonzero counter-dependent mask; constant small cost, used for
//!   large machines.

use cutelock_fsm::synth::{synthesize, SynthesizedStg};
use cutelock_fsm::Stg;
use cutelock_netlist::{GateKind, NetId, Netlist, NetlistError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{insert_mod_counter, KeySchedule, LockError, LockedCircuit};

/// How wrongful transitions are constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrongfulPolicy {
    /// `RandomTable` when `#states × k ≤ 512`, else `XorMask`.
    #[default]
    Auto,
    /// Random wrong destination per (state, counter-time) pair.
    RandomTable,
    /// Wrong next state = correct next state XOR a per-time nonzero mask.
    XorMask,
}

/// Configuration of [`CuteLockBeh`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuteLockBehConfig {
    /// Number of keys `k` (counter times).
    pub keys: usize,
    /// Bits per key value `ki`.
    pub key_bits: usize,
    /// Wrongful-transition policy.
    pub wrongful: WrongfulPolicy,
    /// Seed for key material and wrongful destinations.
    pub seed: u64,
    /// Use this schedule instead of a random one.
    pub schedule: Option<KeySchedule>,
}

impl Default for CuteLockBehConfig {
    fn default() -> Self {
        Self {
            keys: 4,
            key_bits: 4,
            wrongful: WrongfulPolicy::Auto,
            seed: 0,
            schedule: None,
        }
    }
}

/// The Cute-Lock-Beh transform.
#[derive(Debug, Clone)]
pub struct CuteLockBeh {
    config: CuteLockBehConfig,
}

impl CuteLockBeh {
    /// Creates the transform with `config`.
    pub fn new(config: CuteLockBehConfig) -> Self {
        Self { config }
    }

    /// Locks the machine `stg`, returning the locked circuit; the oracle
    /// (`original`) is the plain synthesis of the same machine.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Config`] for inconsistent parameters or an
    /// invalid STG, [`LockError::Netlist`] on construction failures.
    pub fn lock(&self, stg: &Stg) -> Result<LockedCircuit, LockError> {
        let cfg = &self.config;
        if cfg.keys == 0 || cfg.key_bits == 0 {
            return Err(LockError::Config("keys and key_bits must be ≥ 1".into()));
        }
        stg.validate()
            .map_err(|e| LockError::Config(format!("invalid STG: {e}")))?;
        let schedule = match &cfg.schedule {
            Some(s) => {
                if s.num_keys() != cfg.keys || s.key_bits() != cfg.key_bits {
                    return Err(LockError::Config(
                        "provided schedule disagrees with keys/key_bits".into(),
                    ));
                }
                s.clone()
            }
            None => KeySchedule::random(cfg.keys, cfg.key_bits, cfg.seed),
        };
        let policy = match cfg.wrongful {
            WrongfulPolicy::Auto => {
                if stg.num_states() * cfg.keys <= 512 {
                    WrongfulPolicy::RandomTable
                } else {
                    WrongfulPolicy::XorMask
                }
            }
            p => p,
        };

        let syn: SynthesizedStg = synthesize(stg)?;
        let original = syn.netlist.clone();
        let mut nl = syn.netlist;
        nl.set_name(format!("{}_cutelock_beh", stg.name()));
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4245_484c); // "BEHL"

        // Key port and counter.
        let key_nets: Vec<NetId> = (0..cfg.key_bits)
            .map(|j| nl.add_key_input(j))
            .collect::<Result<_, _>>()?;
        let counter = insert_mod_counter(&mut nl, cfg.keys, "clcnt")?;

        // key_ok = AND_j XNOR(key_j, expected_j) where expected_j is the
        // schedule bit selected by the counter decode.
        let mut match_bits = Vec::with_capacity(cfg.key_bits);
        for (j, &kj) in key_nets.iter().enumerate() {
            let times_with_bit: Vec<NetId> = (0..cfg.keys)
                .filter(|&t| schedule.key_at_time(t).bits()[j])
                .map(|t| counter.is_time[t])
                .collect();
            let expected = or_or_const(&mut nl, &format!("kexp{j}"), &times_with_bit)?;
            match_bits.push(nl.add_gate(GateKind::Xnor, format!("kmat{j}"), &[kj, expected])?);
        }
        let key_ok = if match_bits.len() == 1 {
            match_bits[0]
        } else {
            nl.add_gate(GateKind::And, "key_ok", &match_bits)?
        };

        // Wrongful next-state vector.
        let sbits = syn.state_ffs.len();
        let ns: Vec<NetId> = syn.state_ffs.iter().map(|&f| nl.dffs()[f].d()).collect();
        let wrong_ns: Vec<NetId> = match policy {
            WrongfulPolicy::XorMask | WrongfulPolicy::Auto => {
                // Per-time nonzero masks over the state bits.
                let full = if sbits >= 64 {
                    !0u64
                } else {
                    (1u64 << sbits) - 1
                };
                let masks: Vec<u64> = (0..cfg.keys)
                    .map(|_| loop {
                        let m = rng.gen::<u64>() & full;
                        if m != 0 {
                            break m;
                        }
                    })
                    .collect();
                let mut out = Vec::with_capacity(sbits);
                for (j, &ns_j) in ns.iter().enumerate() {
                    let times: Vec<NetId> = (0..cfg.keys)
                        .filter(|&t| masks[t] >> j & 1 == 1)
                        .map(|t| counter.is_time[t])
                        .collect();
                    let mask_j = or_or_const(&mut nl, &format!("wmask{j}"), &times)?;
                    out.push(nl.add_gate(GateKind::Xor, format!("wns{j}"), &[ns_j, mask_j])?);
                }
                out
            }
            WrongfulPolicy::RandomTable => {
                // Wrong destination per (state, time): OR of decode terms.
                let mut terms: Vec<Vec<NetId>> = vec![Vec::new(); sbits];
                for s in 0..stg.num_states() {
                    for t in 0..cfg.keys {
                        // A destination different from s itself (a visibly
                        // wrongful move even for self-loops).
                        let dest = if stg.num_states() == 1 {
                            0
                        } else {
                            loop {
                                let d = rng.gen_range(0..stg.num_states());
                                if d != s {
                                    break d;
                                }
                            }
                        };
                        if dest == 0 {
                            continue; // code 0 contributes no OR terms
                        }
                        let and = nl.add_gate(
                            GateKind::And,
                            format!("wt_{s}_{t}"),
                            &[syn.state_decode[s], counter.is_time[t]],
                        )?;
                        for (j, terms) in terms.iter_mut().enumerate() {
                            if dest >> j & 1 == 1 {
                                terms.push(and);
                            }
                        }
                    }
                }
                let mut out = Vec::with_capacity(sbits);
                for (j, ts) in terms.iter().enumerate() {
                    out.push(or_or_const(&mut nl, &format!("wns{j}"), ts)?);
                }
                out
            }
        };

        // Re-route the state register through the key_ok MUX.
        for (j, &f) in syn.state_ffs.iter().enumerate() {
            let d = nl.add_gate(
                GateKind::Mux,
                format!("lockmux{j}"),
                &[key_ok, wrong_ns[j], ns[j]],
            )?;
            nl.set_dff_d(f, d)?;
        }

        nl.validate()?;
        Ok(LockedCircuit {
            netlist: nl,
            original,
            schedule,
            scheme: "cute-lock-beh",
            counter_ffs: counter.ffs,
            locked_ffs: syn.state_ffs,
        })
    }
}

/// OR over terms, or CONST0 when empty, or BUF for one term.
fn or_or_const(nl: &mut Netlist, name: &str, terms: &[NetId]) -> Result<NetId, NetlistError> {
    let name = nl.fresh_name(name);
    match terms.len() {
        0 => nl.add_gate(GateKind::Const0, name, &[]),
        1 => nl.add_gate(GateKind::Buf, name, terms),
        _ => nl.add_gate(GateKind::Or, name, terms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyValue;
    use cutelock_circuits::synthezza;
    use cutelock_fsm::detector::sequence_detector;

    fn lock_detector(policy: WrongfulPolicy, seed: u64) -> LockedCircuit {
        CuteLockBeh::new(CuteLockBehConfig {
            keys: 4,
            key_bits: 4,
            wrongful: policy,
            seed,
            schedule: None,
        })
        .lock(&sequence_detector("1001"))
        .unwrap()
    }

    #[test]
    fn paper_fig1_configuration_equivalent_under_correct_keys() {
        // Fig. 1: four keys, 4 bits each, 2-bit counter.
        for policy in [WrongfulPolicy::RandomTable, WrongfulPolicy::XorMask] {
            let lc = lock_detector(policy, 5);
            assert!(lc.verify_equivalence(500, 21).unwrap(), "{policy:?}");
            assert_eq!(lc.counter_ffs.len(), 2);
            assert_eq!(lc.schedule.num_keys(), 4);
        }
    }

    #[test]
    fn wrong_key_corrupts_behavior() {
        let lc = lock_detector(WrongfulPolicy::RandomTable, 6);
        let correct0 = lc.schedule.key_at_time(0).clone();
        let wrong = correct0.flipped(0);
        let r = lc.wide_corruption_rate(&wrong, 500, 9).unwrap();
        assert!(r > 0.05, "corruption {r}");
    }

    #[test]
    fn bcomp_locks_like_table1() {
        // Table I locks bcomp with ~19 key bits total; here k=6, ki=3.
        let stg = synthezza("bcomp").unwrap();
        let lc = CuteLockBeh::new(CuteLockBehConfig {
            keys: 6,
            key_bits: 3,
            wrongful: WrongfulPolicy::Auto,
            seed: 1,
            schedule: None,
        })
        .lock(&stg)
        .unwrap();
        assert!(lc.verify_equivalence(200, 2).unwrap());
        assert_eq!(lc.schedule.num_keys() * lc.schedule.key_bits(), 18);
    }

    #[test]
    fn single_key_reduction_unlocks_with_constant() {
        let sched = KeySchedule::constant(KeyValue::from_u64(0b1010, 4), 4);
        let lc = CuteLockBeh::new(CuteLockBehConfig {
            keys: 4,
            key_bits: 4,
            wrongful: WrongfulPolicy::Auto,
            seed: 8,
            schedule: Some(sched),
        })
        .lock(&sequence_detector("1001"))
        .unwrap();
        assert_eq!(
            lc.wide_corruption_rate(&KeyValue::from_u64(0b1010, 4), 300, 3)
                .unwrap(),
            0.0
        );
        assert!(
            lc.wide_corruption_rate(&KeyValue::from_u64(0b1011, 4), 300, 3)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn config_errors() {
        let stg = sequence_detector("11");
        assert!(matches!(
            CuteLockBeh::new(CuteLockBehConfig {
                keys: 0,
                ..Default::default()
            })
            .lock(&stg),
            Err(LockError::Config(_))
        ));
        let bad_sched = KeySchedule::random(3, 2, 0);
        assert!(matches!(
            CuteLockBeh::new(CuteLockBehConfig {
                keys: 4,
                key_bits: 4,
                schedule: Some(bad_sched),
                ..Default::default()
            })
            .lock(&stg),
            Err(LockError::Config(_))
        ));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = lock_detector(WrongfulPolicy::RandomTable, 7);
        let b = lock_detector(WrongfulPolicy::RandomTable, 7);
        assert!(cutelock_netlist::bench::structurally_equal(
            &a.netlist, &b.netlist
        ));
        let c = lock_detector(WrongfulPolicy::RandomTable, 8);
        assert!(!cutelock_netlist::bench::structurally_equal(
            &a.netlist, &c.netlist
        ));
    }

    #[test]
    fn xor_mask_scales_to_large_machines() {
        let stg = synthezza("absurd").unwrap(); // 120 states
        let lc = CuteLockBeh::new(CuteLockBehConfig {
            keys: 21,
            key_bits: 3,
            wrongful: WrongfulPolicy::Auto, // -> XorMask (120*21 > 512)
            seed: 4,
            schedule: None,
        })
        .lock(&stg)
        .unwrap();
        assert!(lc.verify_equivalence(100, 5).unwrap());
        assert_eq!(lc.counter_ffs.len(), 5); // ceil(log2(21))
    }
}
