//! The common result type of every locking transform, plus oracles.

use std::fmt;

use cutelock_netlist::{NetId, Netlist, NetlistError};
use cutelock_sim::{NetlistOracle, ParallelSim, SequentialOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{KeySchedule, KeyValue};

/// Errors produced by locking transforms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LockError {
    /// Underlying netlist manipulation failed.
    Netlist(NetlistError),
    /// The configuration is inconsistent with the target circuit.
    Config(String),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Netlist(e) => write!(f, "netlist error: {e}"),
            Self::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for LockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Netlist(e) => Some(e),
            Self::Config(_) => None,
        }
    }
}

impl From<NetlistError> for LockError {
    fn from(e: NetlistError) -> Self {
        Self::Netlist(e)
    }
}

/// A locked circuit: the locked netlist, the original it protects, and the
/// time-indexed key schedule that unlocks it.
#[derive(Debug, Clone)]
pub struct LockedCircuit {
    /// The locked netlist (contains `keyinput*` primary inputs).
    pub netlist: Netlist,
    /// The original, unlocked netlist — the oracle of oracle-guided attacks.
    pub original: Netlist,
    /// The correct key schedule.
    pub schedule: KeySchedule,
    /// Scheme identifier (`"cute-lock-beh"`, `"cute-lock-str"`, …).
    pub scheme: &'static str,
    /// Flip-flop indices (in `netlist`) of the inserted counter.
    pub counter_ffs: Vec<usize>,
    /// Flip-flop indices (in `netlist`) whose data path was re-routed.
    pub locked_ffs: Vec<usize>,
}

impl LockedCircuit {
    /// Stable content fingerprint of this locked instance: the scheme
    /// label, both netlists (via their canonical `.bench` serialization),
    /// and the key schedule, hashed with the workspace
    /// [`Fingerprint`](crate::fingerprint::Fingerprint) FNV-1a hasher.
    /// Identical locks — same circuit, same scheme, same schedule — hash
    /// identically across runs and platforms; this is the circuit half of
    /// the job daemon's result-cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = crate::fingerprint::Fingerprint::new();
        fp.update_str(self.scheme);
        fp.update_str(&cutelock_netlist::bench::write(&self.netlist));
        fp.update_str(&cutelock_netlist::bench::write(&self.original));
        fp.update_str(&self.schedule.to_key_file(self.scheme));
        for &ff in &self.counter_ffs {
            fp.update_u64(ff as u64);
        }
        for &ff in &self.locked_ffs {
            fp.update_u64(ff as u64);
        }
        fp.finish()
    }

    /// Key input nets of the locked netlist, schedule bit order.
    pub fn key_input_ids(&self) -> Vec<NetId> {
        self.netlist.key_inputs()
    }

    /// Non-key primary inputs of the locked netlist, declaration order —
    /// these correspond 1:1 with the original's inputs.
    pub(crate) fn data_input_ids(&self) -> Vec<NetId> {
        self.netlist.data_inputs()
    }

    /// Random-simulation validation of paper Tables I–II: the 64-lane
    /// miter (see [`LockedCircuit::wide_corruption_rate`]) with the
    /// **correct** schedule on the key port, the key of cycle `t` on every
    /// lane at cycle `t`. True when no output differs on any lane of any of
    /// the `cycles` cycles from reset; stops at the first diverging cycle.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    ///
    /// # Panics
    ///
    /// Same width-mismatch panic as [`LockedCircuit::wide_corruption_rate`].
    pub fn verify_equivalence(&self, cycles: usize, seed: u64) -> Result<bool, NetlistError> {
        let feed = KeyFeed::Schedule(self.schedule.clone());
        Ok(self.wide_miter(&feed, cycles, seed, true)? == 0.0)
    }

    /// How often `key`, held constant on the key port, corrupts the
    /// outputs. The locked netlist and the original run side by side on
    /// [`ParallelSim`] for `cycles` cycles from reset, each of the 64 lanes
    /// an independent random stimulus sequence, and the returned rate is
    /// the fraction of *(lane, cycle)* samples on which any output differs.
    /// Non-zero corruption is what makes a lock effective; `0.0` means no
    /// sample diverged. Deterministic for a given `seed`.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    ///
    /// # Panics
    ///
    /// Panics if the locked netlist's data-input count differs from the
    /// original's input count.
    pub fn wide_corruption_rate(
        &self,
        key: &KeyValue,
        cycles: usize,
        seed: u64,
    ) -> Result<f64, NetlistError> {
        self.wide_miter(&KeyFeed::Constant(key.clone()), cycles, seed, false)
    }

    /// True when `key` held constant matches the original on every sample:
    /// the same verdict as [`LockedCircuit::wide_corruption_rate`]` == 0.0`,
    /// but the run stops at the first diverging cycle, so rejecting a wrong
    /// key is cheap.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    ///
    /// # Panics
    ///
    /// Same width-mismatch panic as [`LockedCircuit::wide_corruption_rate`].
    pub fn wide_key_matches(
        &self,
        key: &KeyValue,
        cycles: usize,
        seed: u64,
    ) -> Result<bool, NetlistError> {
        Ok(self.wide_miter(&KeyFeed::Constant(key.clone()), cycles, seed, true)? == 0.0)
    }

    /// The one 64-lane miter behind every random-simulation check. With
    /// `early_exit`, returns on the first diverging cycle (any nonzero rate
    /// means "not equivalent").
    fn wide_miter(
        &self,
        feed: &KeyFeed,
        cycles: usize,
        seed: u64,
        early_exit: bool,
    ) -> Result<f64, NetlistError> {
        let mut locked = ParallelSim::new(&self.netlist)?;
        let mut orig = ParallelSim::new(&self.original)?;
        let keys = self.key_input_ids();
        let data = self.data_input_ids();
        let orig_inputs = self.original.inputs();
        assert_eq!(
            data.len(),
            orig_inputs.len(),
            "locked data inputs must mirror the original's inputs"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5749_4445); // "WIDE"
        let mut bad = 0u64;
        for cycle in 0..cycles.max(1) {
            // Key lanes are constant within a cycle: a set bit fills all 64.
            for (&kid, &bit) in keys.iter().zip(feed.key_at(cycle as u64).bits()) {
                locked.set_input(kid, if bit { !0 } else { 0 })?;
            }
            for (&did, &oid) in data.iter().zip(orig_inputs) {
                let word = rng.next_u64();
                locked.set_input(did, word)?;
                orig.set_input(oid, word)?;
            }
            locked.eval();
            orig.eval();
            let mut diff = 0u64;
            for (lw, ow) in locked.output_values().iter().zip(orig.output_values()) {
                diff |= lw ^ ow;
            }
            bad += u64::from(diff.count_ones());
            if early_exit && bad != 0 {
                break;
            }
            locked.step();
            orig.step();
        }
        Ok(bad as f64 / (cycles.max(1) * 64) as f64)
    }
}

/// What drives the key port of a [`LockedOracle`] or of the 64-lane miter.
#[derive(Debug, Clone)]
enum KeyFeed {
    /// The correct schedule, synchronized with the cycle counter.
    Schedule(KeySchedule),
    /// A constant key value every cycle (what a constant-key attacker, or a
    /// single-key reduction, would apply).
    Constant(KeyValue),
}

impl KeyFeed {
    /// The key applied at `cycle` (counted from reset).
    fn key_at(&self, cycle: u64) -> &KeyValue {
        match self {
            Self::Schedule(s) => s.key_at_cycle(cycle),
            Self::Constant(k) => k,
        }
    }
}

/// Simulates a locked netlist while driving the key port automatically —
/// either the correct schedule (an "activated chip") or an arbitrary
/// constant key (a mis-keyed chip). Exposes only the data inputs.
#[derive(Debug, Clone)]
pub struct LockedOracle {
    inner: NetlistOracle,
    /// For each primary input of the locked netlist: `Ok(data_pos)` or
    /// `Err(key_pos)`.
    input_map: Vec<Result<usize, usize>>,
    feed: KeyFeed,
    cycle: u64,
}

impl LockedOracle {
    /// An oracle applying the correct schedule.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn with_correct_keys(locked: &LockedCircuit) -> Result<Self, NetlistError> {
        Self::new(locked, KeyFeed::Schedule(locked.schedule.clone()))
    }

    /// An oracle applying `key` on every cycle.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn with_constant_key(locked: &LockedCircuit, key: KeyValue) -> Result<Self, NetlistError> {
        Self::new(locked, KeyFeed::Constant(key))
    }

    fn new(locked: &LockedCircuit, feed: KeyFeed) -> Result<Self, NetlistError> {
        let keys = locked.key_input_ids();
        let data = locked.data_input_ids();
        let input_map: Vec<Result<usize, usize>> = locked
            .netlist
            .inputs()
            .iter()
            .map(|id| {
                if let Some(kpos) = keys.iter().position(|k| k == id) {
                    Err(kpos)
                } else {
                    Ok(data.iter().position(|d| d == id).expect("data input"))
                }
            })
            .collect();
        Ok(Self {
            inner: NetlistOracle::new(locked.netlist.clone())?,
            input_map,
            feed,
            cycle: 0,
        })
    }
}

impl SequentialOracle for LockedOracle {
    fn num_inputs(&self) -> usize {
        self.input_map.iter().filter(|m| m.is_ok()).count()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.cycle = 0;
    }

    fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        let key = self.feed.key_at(self.cycle).bits();
        let full: Vec<bool> = self
            .input_map
            .iter()
            .map(|m| match m {
                Ok(d) => inputs[*d],
                Err(kpos) => key[*kpos],
            })
            .collect();
        self.cycle += 1;
        self.inner.step(&full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_netlist::{bench, GateKind};

    /// A hand-made "locked" circuit: y = XOR(a, q); d = XOR(a, q, key_wrong)
    /// where key_wrong = key XOR expected(t). Here we emulate the simplest
    /// possible time-based lock with k=2, ki=1: expected keys [1, 0].
    fn tiny_locked() -> LockedCircuit {
        let original = bench::parse(
            "orig",
            "INPUT(a)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = XOR(a, q)\ny = BUF(q)\n",
        )
        .unwrap();
        let mut nl = bench::parse(
            "locked",
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\n# @init q 0\n# @init c 0\n\
             q = DFF(d)\nc = DFF(cn)\ncn = NOT(c)\n\
             exp = NOT(c)\nbad = XOR(keyinput0, exp)\n\
             d0 = XOR(a, q)\nd = XOR(d0, bad)\ny = BUF(q)\n",
        )
        .unwrap();
        nl.set_name("locked");
        LockedCircuit {
            netlist: nl,
            original,
            schedule: KeySchedule::new(vec![KeyValue::from_u64(1, 1), KeyValue::from_u64(0, 1)]),
            scheme: "hand-lock",
            counter_ffs: vec![1],
            locked_ffs: vec![0],
        }
    }

    /// locked = original with the key XORed into the output: key 0 is
    /// transparent, key 1 corrupts every sample.
    fn xor_locked() -> LockedCircuit {
        let original = bench::parse("o", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").unwrap();
        let locked_nl = bench::parse(
            "l",
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n",
        )
        .unwrap();
        LockedCircuit {
            netlist: locked_nl,
            original,
            schedule: KeySchedule::constant(KeyValue::from_u64(0, 1), 1),
            scheme: "test-xor",
            counter_ffs: Vec::new(),
            locked_ffs: Vec::new(),
        }
    }

    #[test]
    fn correct_schedule_matches_original() {
        let lc = tiny_locked();
        assert!(lc.verify_equivalence(100, 3).unwrap());
    }

    #[test]
    fn reversed_schedule_fails_equivalence() {
        let mut lc = tiny_locked();
        lc.schedule = KeySchedule::new(vec![KeyValue::from_u64(0, 1), KeyValue::from_u64(1, 1)]);
        assert!(!lc.verify_equivalence(100, 3).unwrap());
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let lc = tiny_locked();
        assert_eq!(lc.fingerprint(), tiny_locked().fingerprint());
        let mut other = tiny_locked();
        other.schedule = KeySchedule::new(vec![KeyValue::from_u64(0, 1), KeyValue::from_u64(1, 1)]);
        assert_ne!(lc.fingerprint(), other.fingerprint(), "schedule ignored");
        let mut relabeled = tiny_locked();
        relabeled.scheme = "other-lock";
        assert_ne!(lc.fingerprint(), relabeled.fingerprint(), "scheme ignored");
    }

    #[test]
    fn constant_key_corrupts() {
        let lc = tiny_locked();
        // Any constant key is wrong half the time at the state level.
        for key in [KeyValue::from_u64(0, 1), KeyValue::from_u64(1, 1)] {
            let r = lc.wide_corruption_rate(&key, 200, 5).unwrap();
            assert!(r > 0.2, "corruption {r}");
        }
    }

    #[test]
    fn wide_corruption_matches_exact_keys() {
        let lc = xor_locked();
        let good = lc
            .wide_corruption_rate(&KeyValue::from_u64(0, 1), 50, 7)
            .unwrap();
        let bad = lc
            .wide_corruption_rate(&KeyValue::from_u64(1, 1), 50, 7)
            .unwrap();
        assert_eq!(good, 0.0);
        assert_eq!(bad, 1.0);
    }

    #[test]
    fn wide_corruption_agrees_with_scalar_on_multi_key_lock() {
        let lc = tiny_locked();
        // A constant key flips the state on the schedule's off cycles
        // whatever the data input, so every lane of the wide miter and a
        // scalar oracle pair see the same corrupted cycles.
        let seq: Vec<Vec<bool>> = (0..200).map(|t| vec![t % 3 == 0]).collect();
        for key in [KeyValue::from_u64(0, 1), KeyValue::from_u64(1, 1)] {
            let mut locked = LockedOracle::with_constant_key(&lc, key.clone()).unwrap();
            let mut orig = NetlistOracle::new(lc.original.clone()).unwrap();
            let orig_out = orig.run(&seq);
            let diverged = locked
                .run(&seq)
                .iter()
                .zip(&orig_out)
                .filter(|(l, o)| l != o)
                .count();
            let wide = lc.wide_corruption_rate(&key, 200, 5).unwrap();
            assert_eq!(wide, diverged as f64 / 200.0);
            assert_eq!(wide, lc.wide_corruption_rate(&key, 200, 5).unwrap());
        }
    }

    #[test]
    fn key_match_is_zero_corruption() {
        for lc in [tiny_locked(), xor_locked()] {
            for key in [KeyValue::from_u64(0, 1), KeyValue::from_u64(1, 1)] {
                let rate = lc.wide_corruption_rate(&key, 200, 5).unwrap();
                let matches = lc.wide_key_matches(&key, 200, 5).unwrap();
                assert_eq!(matches, rate == 0.0, "{} key {key}", lc.scheme);
            }
        }
    }

    #[test]
    fn oracle_splits_inputs_correctly() {
        let lc = tiny_locked();
        let mut orc = LockedOracle::with_correct_keys(&lc).unwrap();
        assert_eq!(orc.num_inputs(), 1);
        assert_eq!(orc.num_outputs(), 1);
        let out = orc.run(&[vec![true], vec![true], vec![false]]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn key_and_data_ids_partition_inputs() {
        let lc = tiny_locked();
        let keys = lc.key_input_ids();
        let data = lc.data_input_ids();
        assert_eq!(keys.len() + data.len(), lc.netlist.input_count());
        assert_eq!(lc.netlist.net_name(keys[0]), "keyinput0");
        assert_eq!(lc.netlist.net_name(data[0]), "a");
    }

    #[test]
    fn lock_error_display() {
        let e = LockError::Config("k must be positive".into());
        assert!(e.to_string().contains("k must be positive"));
        let e2: LockError = NetlistError::UnknownNet("x".into()).into();
        assert!(e2.to_string().contains("unknown net"));
        let _ = GateKind::And; // keep import used
    }
}
