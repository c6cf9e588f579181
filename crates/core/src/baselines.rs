//! Baseline locking schemes the paper evaluates against.
//!
//! * [`XorLock`] — classic random XOR/XNOR key-gate insertion (RLL/EPIC
//!   style). Broken by the oracle-guided SAT attack; used here to validate
//!   that the attack implementations are real.
//! * [`TtLock`] — TTLock-style functionality stripping with a comparator
//!   restore unit. The FALL attack succeeds on it (its original paper
//!   reports an 81% success rate), giving Table V its baseline contrast.
//! * [`DkLock`] — DK-Lock, the dual-key (activation + functional) scheme
//!   Fig. 4 compares overheads against.
//! * [`SledLock`] — a SLED-style dynamic-key scheme (keys generated by an
//!   internal LFSR from a static seed), provided as an extension.
//!
//! All transforms return the same [`LockedCircuit`] type as the Cute-Lock
//! family, so every attack and every overhead report runs uniformly.

use cutelock_netlist::{GateKind, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{KeySchedule, KeyValue, LockError, LockedCircuit};

// ---------------------------------------------------------------------
// Random XOR locking (RLL / EPIC)
// ---------------------------------------------------------------------

/// Random XOR/XNOR key-gate insertion.
#[derive(Debug, Clone)]
pub struct XorLock {
    /// Number of key bits (= key gates inserted).
    pub key_bits: usize,
    /// Seed for gate placement and polarity.
    pub seed: u64,
}

impl XorLock {
    /// Creates the transform.
    pub fn new(key_bits: usize, seed: u64) -> Self {
        Self { key_bits, seed }
    }

    /// Inserts `key_bits` key gates on random gate-output nets.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Config`] when the circuit has fewer internal
    /// nets than requested key bits.
    pub fn lock(&self, original: &Netlist) -> Result<LockedCircuit, LockError> {
        if self.key_bits == 0 {
            return Err(LockError::Config("key_bits must be ≥ 1".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x584f_524c); // "XORL"
        let mut nl = original.clone();
        nl.set_name(format!("{}_xorlock", original.name()));

        // Candidate nets: gate outputs (stable targets, like published RLL).
        let mut candidates: Vec<NetId> = nl.gates().iter().map(|g| g.output()).collect();
        if candidates.len() < self.key_bits {
            return Err(LockError::Config(format!(
                "circuit has only {} gate outputs, need {}",
                candidates.len(),
                self.key_bits
            )));
        }
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.gen_range(0..=i));
        }

        let mut key_bits = Vec::with_capacity(self.key_bits);
        for (j, &target) in candidates[..self.key_bits].iter().enumerate() {
            let key = nl.add_key_input(j)?;
            let xnor = rng.gen::<bool>();
            // Rewire all uses of `target` through the key gate.
            let tap = nl.add_net(format!("klg{j}"))?;
            nl.replace_uses(target, tap)?;
            let kind = if xnor { GateKind::Xnor } else { GateKind::Xor };
            nl.drive_with_gate(kind, tap, &[target, key])?;
            // XOR passes with key=0; XNOR passes with key=1.
            key_bits.push(xnor);
        }
        nl.validate()?;
        let key = KeyValue::from_bits(key_bits);
        Ok(LockedCircuit {
            netlist: nl,
            original: original.clone(),
            schedule: KeySchedule::constant(key, 1),
            scheme: "xor-lock",
            counter_ffs: Vec::new(),
            locked_ffs: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------
// TTLock
// ---------------------------------------------------------------------

/// TTLock-style functionality stripping + comparator restore.
#[derive(Debug, Clone)]
pub struct TtLock {
    /// Number of key bits (= width of the protected input pattern).
    pub key_bits: usize,
    /// Seed for the protected pattern and input choice.
    pub seed: u64,
}

impl TtLock {
    /// Creates the transform.
    pub fn new(key_bits: usize, seed: u64) -> Self {
        Self { key_bits, seed }
    }

    /// Locks the first primary output: its function is flipped on one
    /// protected input pattern (functionality stripping) and a comparator
    /// restore unit flips it back when the correct key is applied.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Config`] when the circuit has fewer data inputs
    /// than `key_bits` or no outputs.
    pub fn lock(&self, original: &Netlist) -> Result<LockedCircuit, LockError> {
        let data = original.data_inputs();
        if self.key_bits == 0 || self.key_bits > data.len() {
            return Err(LockError::Config(format!(
                "key_bits must be in 1..={}",
                data.len()
            )));
        }
        if original.output_count() == 0 {
            return Err(LockError::Config("circuit has no outputs".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5454_4c4b); // "TTLK"
        let mut nl = original.clone();
        nl.set_name(format!("{}_ttlock", original.name()));

        // Choose protected inputs and the protected pattern.
        let mut inputs = nl.data_inputs();
        for i in (1..inputs.len()).rev() {
            inputs.swap(i, rng.gen_range(0..=i));
        }
        let protected: Vec<NetId> = inputs[..self.key_bits].to_vec();
        let pattern: Vec<bool> = (0..self.key_bits).map(|_| rng.gen()).collect();

        // strip = (protected inputs == pattern), built from constants.
        let mut strip_terms = Vec::with_capacity(self.key_bits);
        for (j, (&inp, &bit)) in protected.iter().zip(&pattern).enumerate() {
            let t = if bit {
                nl.add_gate(GateKind::Buf, format!("ttp{j}"), &[inp])?
            } else {
                nl.add_gate(GateKind::Not, format!("ttp{j}"), &[inp])?
            };
            strip_terms.push(t);
        }
        let strip = if strip_terms.len() == 1 {
            strip_terms[0]
        } else {
            nl.add_gate(GateKind::And, "tt_strip", &strip_terms)?
        };

        // restore = (protected inputs == key).
        let mut rest_terms = Vec::with_capacity(self.key_bits);
        for (j, &inp) in protected.iter().enumerate() {
            let key = nl.add_key_input(j)?;
            rest_terms.push(nl.add_gate(GateKind::Xnor, format!("ttr{j}"), &[inp, key])?);
        }
        let restore = if rest_terms.len() == 1 {
            rest_terms[0]
        } else {
            nl.add_gate(GateKind::And, "tt_restore", &rest_terms)?
        };

        // Re-route the first output: y' = y XOR strip XOR restore.
        let y = nl.outputs()[0];
        let tap = nl.add_net("tt_y")?;
        nl.replace_uses(y, tap)?;
        let flip = nl.add_gate(GateKind::Xor, "tt_flip", &[y, strip])?;
        nl.drive_with_gate(GateKind::Xor, tap, &[flip, restore])?;
        nl.validate()?;

        Ok(LockedCircuit {
            netlist: nl,
            original: original.clone(),
            schedule: KeySchedule::constant(KeyValue::from_bits(pattern), 1),
            scheme: "ttlock",
            counter_ffs: Vec::new(),
            locked_ffs: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------
// DK-Lock
// ---------------------------------------------------------------------

/// DK-Lock: a one-time activation key releases the chip from obfuscation
/// mode, then a functional key (XOR locking) must stay applied.
#[derive(Debug, Clone)]
pub struct DkLock {
    /// Activation key bits.
    pub activation_bits: usize,
    /// Functional key bits.
    pub functional_bits: usize,
    /// Seed.
    pub seed: u64,
}

impl DkLock {
    /// Creates the transform.
    pub fn new(activation_bits: usize, functional_bits: usize, seed: u64) -> Self {
        Self {
            activation_bits,
            functional_bits,
            seed,
        }
    }

    /// Locks `original` with an activation FSM plus functional XOR locking.
    ///
    /// The key port is `activation_bits + functional_bits` wide (activation
    /// bits first). The correct key applies both parts at every cycle — a
    /// conservative over-approximation of DK-Lock's "activate once" protocol
    /// that keeps the oracle model uniform.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Config`] for zero widths or too-small circuits.
    pub fn lock(&self, original: &Netlist) -> Result<LockedCircuit, LockError> {
        if self.activation_bits == 0 || self.functional_bits == 0 {
            return Err(LockError::Config("key widths must be ≥ 1".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x444b_4c4b); // "DKLK"
        let mut nl = original.clone();
        nl.set_name(format!("{}_dklock", original.name()));

        // Functional part: XOR key gates, as in XorLock.
        let candidates: Vec<NetId> = nl.gates().iter().map(|g| g.output()).collect();
        if candidates.len() < self.functional_bits {
            return Err(LockError::Config(format!(
                "circuit has only {} gate outputs, need {}",
                candidates.len(),
                self.functional_bits
            )));
        }
        let mut key_bits: Vec<bool> = Vec::new();

        // Activation part: constant comparator -> latch-once mode FF.
        let act_const: Vec<bool> = (0..self.activation_bits).map(|_| rng.gen()).collect();
        let mut act_terms = Vec::with_capacity(self.activation_bits);
        for (j, &bit) in act_const.iter().enumerate() {
            let key = nl.add_key_input(j)?;
            let t = if bit {
                nl.add_gate(GateKind::Buf, format!("dka{j}"), &[key])?
            } else {
                nl.add_gate(GateKind::Not, format!("dka{j}"), &[key])?
            };
            act_terms.push(t);
            key_bits.push(bit);
        }
        let act_match = if act_terms.len() == 1 {
            act_terms[0]
        } else {
            nl.add_gate(GateKind::And, "dk_actmatch", &act_terms)?
        };
        let mode_q = nl.add_net("dk_mode")?;
        let mode_d = nl.add_gate(GateKind::Or, "dk_mode_d", &[mode_q, act_match])?;
        let mode_ff = nl.add_dff("dk_mode_ff", mode_d, mode_q)?;
        nl.set_dff_init(mode_ff, Some(false));
        // Corrupt while not yet activated and not matching right now.
        let active_now = nl.add_gate(GateKind::Or, "dk_active", &[mode_q, act_match])?;
        let corrupt = nl.add_gate(GateKind::Not, "dk_corrupt", &[active_now])?;

        // Functional XOR gates (polarity random), gated by `corrupt` on the
        // outputs: obfuscation mode scrambles all primary outputs.
        let mut chosen = candidates;
        for i in (1..chosen.len()).rev() {
            chosen.swap(i, rng.gen_range(0..=i));
        }
        for (jj, &target) in chosen[..self.functional_bits].iter().enumerate() {
            let j = self.activation_bits + jj;
            let key = nl.add_key_input(j)?;
            let xnor = rng.gen::<bool>();
            let tap = nl.add_net(format!("dkf{jj}"))?;
            nl.replace_uses(target, tap)?;
            let kind = if xnor { GateKind::Xnor } else { GateKind::Xor };
            nl.drive_with_gate(kind, tap, &[target, key])?;
            key_bits.push(xnor);
        }
        // Output scrambling in obfuscation mode.
        let outputs: Vec<NetId> = nl.outputs().to_vec();
        for (oi, &y) in outputs.iter().enumerate() {
            let tap = nl.add_net(format!("dko{oi}"))?;
            nl.replace_uses(y, tap)?;
            nl.drive_with_gate(GateKind::Xor, tap, &[y, corrupt])?;
        }
        nl.validate()?;

        Ok(LockedCircuit {
            netlist: nl,
            original: original.clone(),
            schedule: KeySchedule::constant(KeyValue::from_bits(key_bits), 1),
            scheme: "dk-lock",
            counter_ffs: vec![mode_ff],
            locked_ffs: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------
// SLED-style dynamic keys (extension)
// ---------------------------------------------------------------------

/// SLED-style locking: the expected key changes every cycle, generated by an
/// internal LFSR from a static seed. Vulnerable once the seed is known —
/// included to contrast with Cute-Lock's schedule-based keys.
#[derive(Debug, Clone)]
pub struct SledLock {
    /// LFSR width = key bits (2..=16).
    pub key_bits: usize,
    /// Seed for the LFSR init state (the scheme's secret).
    pub seed: u64,
}

impl SledLock {
    /// Creates the transform.
    pub fn new(key_bits: usize, seed: u64) -> Self {
        Self { key_bits, seed }
    }

    /// Locks `original`: every state flip-flop's data input is XOR-corrupted
    /// whenever the applied key differs from the LFSR's current state.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Config`] for unsupported widths or stateless
    /// circuits.
    pub fn lock(&self, original: &Netlist) -> Result<LockedCircuit, LockError> {
        if !(2..=16).contains(&self.key_bits) {
            return Err(LockError::Config("key_bits must be in 2..=16".into()));
        }
        if original.dff_count() == 0 {
            return Err(LockError::Config(
                "SLED locks state; the circuit has no flip-flops".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x534c_4544); // "SLED"
        let mut nl = original.clone();
        nl.set_name(format!("{}_sled", original.name()));
        let w = self.key_bits;

        // LFSR (Fibonacci, taps at [w-1, 0]): nonzero random init.
        let init: u64 = loop {
            let v = rng.gen::<u64>() & ((1 << w) - 1);
            if v != 0 {
                break v;
            }
        };
        let mut lq = Vec::with_capacity(w);
        for j in 0..w {
            lq.push(nl.add_net(format!("sled_q{j}"))?);
        }
        let fb = nl.add_gate(GateKind::Xor, "sled_fb", &[lq[w - 1], lq[0]])?;
        for j in 0..w {
            let d = if j == 0 {
                fb
            } else {
                nl.add_gate(GateKind::Buf, format!("sled_sh{j}"), &[lq[j - 1]])?
            };
            let ff = nl.add_dff(format!("sled_ff{j}"), d, lq[j])?;
            nl.set_dff_init(ff, Some(init >> j & 1 == 1));
        }

        // Key mismatch = OR_j (key_j XOR lfsr_j).
        let mut mm_terms = Vec::with_capacity(w);
        for (j, &q) in lq.iter().enumerate() {
            let key = nl.add_key_input(j)?;
            mm_terms.push(nl.add_gate(GateKind::Xor, format!("sled_mm{j}"), &[key, q])?);
        }
        let mismatch = nl.add_gate(GateKind::Or, "sled_mismatch", &mm_terms)?;

        // Corrupt every original state FF on mismatch.
        let d_nets: Vec<(usize, NetId)> = original
            .dffs()
            .iter()
            .enumerate()
            .map(|(i, ff)| (i, ff.d()))
            .collect();
        for (i, d) in d_nets {
            let nd = nl.add_gate(GateKind::Xor, format!("sled_cd{i}"), &[d, mismatch])?;
            nl.set_dff_d(i, nd)?;
        }
        nl.validate()?;

        // The correct "schedule" is the LFSR stream over its period.
        let mut keys = Vec::new();
        let mut state = init;
        loop {
            keys.push(KeyValue::from_u64(state, w));
            let new_bit = (state >> (w - 1) & 1) ^ (state & 1);
            state = ((state << 1) | new_bit) & ((1 << w) - 1);
            if state == init || keys.len() > (1 << w) {
                break;
            }
        }
        Ok(LockedCircuit {
            netlist: nl,
            original: original.clone(),
            schedule: KeySchedule::new(keys),
            scheme: "sled",
            counter_ffs: Vec::new(),
            locked_ffs: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_circuits::itc99;
    use cutelock_circuits::s27::s27;

    #[test]
    fn xor_lock_round_trip() {
        let lc = XorLock::new(8, 3).lock(&s27()).unwrap();
        assert!(lc.verify_equivalence(300, 1).unwrap());
        assert_eq!(lc.netlist.key_inputs().len(), 8);
        let wrong = lc.schedule.key_at_time(0).flipped(2);
        assert!(lc.wide_corruption_rate(&wrong, 300, 2).unwrap() > 0.0);
    }

    #[test]
    fn xor_lock_rejects_oversized_key() {
        assert!(matches!(
            XorLock::new(1000, 0).lock(&s27()),
            Err(LockError::Config(_))
        ));
    }

    #[test]
    fn ttlock_round_trip() {
        let b08 = itc99("b08").unwrap().netlist;
        let lc = TtLock::new(6, 5).lock(&b08).unwrap();
        assert!(lc.verify_equivalence(300, 9).unwrap());
        // A wrong key corrupts only on the (rare) matching patterns, so use
        // many cycles and accept any nonzero corruption — TTLock is a
        // low-corruptibility scheme by design.
        let wrong = lc.schedule.key_at_time(0).flipped(1);
        let r = lc.wide_corruption_rate(&wrong, 2000, 4).unwrap();
        assert!(r < 0.5, "TTLock corruption should be sparse, got {r}");
    }

    #[test]
    fn dk_lock_round_trip() {
        let b10 = itc99("b10").unwrap().netlist;
        let lc = DkLock::new(10, 10, 2).lock(&b10).unwrap();
        assert!(lc.verify_equivalence(300, 6).unwrap());
        let wrong = lc.schedule.key_at_time(0).flipped(0); // break activation
        assert!(lc.wide_corruption_rate(&wrong, 200, 7).unwrap() > 0.5);
    }

    #[test]
    fn sled_round_trip() {
        let lc = SledLock::new(4, 6).lock(&s27()).unwrap();
        assert!(lc.verify_equivalence(300, 8).unwrap());
        assert!(lc.schedule.num_keys() > 1);
        let wrong = lc.schedule.key_at_time(0).flipped(3);
        assert!(lc.wide_corruption_rate(&wrong, 300, 9).unwrap() > 0.0);
    }

    #[test]
    fn schemes_have_distinct_names() {
        let names = ["xor-lock", "ttlock", "dk-lock", "sled"];
        let mut uniq = names.to_vec();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }
}
