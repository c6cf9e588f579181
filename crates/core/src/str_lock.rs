//! **Cute-Lock-Str** — the netlist-level structural variant (paper §III-C).
//!
//! Selected flip-flops receive a MUX tree in front of their data input
//! (paper Fig. 3). The tree has `m = log2(k) + 1` conceptual layers:
//!
//! 1. the **key layer** selects, for each counter time `t`, between the
//!    flip-flop's *correct hardware* (its original next-state cone) and
//!    *wrongful hardware* — the next-state cone of a **different** flip-flop,
//!    repurposed rather than newly synthesized (this is what keeps overhead
//!    low and starves removal/dataflow attacks of anything to find);
//! 2. the remaining layers are steered by the counter: the OR of the
//!    counter-time decodes of each subtree selects which time-slot MUX
//!    drives the flip-flop.
//!
//! Two key-layer styles are provided:
//!
//! * [`MuxTreeStyle::FullTree`] — the literal Fig. 3 structure: a
//!   `2^ki`-to-1 MUX whose select lines are the raw key bits, the correct
//!   cone sitting at input index `schedule[t]` and the `2^ki - 1` other
//!   inputs wired to wrongful cones. Key bits never touch a comparator.
//! * [`MuxTreeStyle::Comparator`] — for wide keys (the paper uses up to
//!   `ki = 37`) the full tree is physically impossible, so a per-time
//!   `key == schedule[t]` comparator steers a 2-to-1 MUX instead.
//!
//! `Auto` picks `FullTree` when `ki ≤ 4`.

use cutelock_netlist::{GateKind, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{insert_mod_counter, KeySchedule, LockError, LockedCircuit};

/// Key-layer implementation choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MuxTreeStyle {
    /// `FullTree` when `ki ≤ 4`, else `Comparator`.
    #[default]
    Auto,
    /// Literal Fig. 3 MUX tree with key bits as select lines (`ki ≤ 4`).
    FullTree,
    /// Per-time key comparator driving a 2-to-1 MUX (any `ki`).
    Comparator,
}

/// Where the wrongful hardware comes from (the ablation of DESIGN.md §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrongfulSource {
    /// Repurpose the next-state cone of a different flip-flop — the paper's
    /// design. Near-zero overhead, and nothing for removal/dataflow attacks
    /// to isolate.
    #[default]
    RepurposedCone,
    /// Synthesize a fresh random cone per wrongful slot. Functionally
    /// equivalent security against oracle-guided attacks, but it *adds*
    /// foreign logic that inflates overhead — the ablation shows why the
    /// paper repurposes instead.
    FreshLogic,
}

/// Configuration of [`CuteLockStr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuteLockStrConfig {
    /// Number of keys `k` (counter times). Must be ≥ 1.
    pub keys: usize,
    /// Bits per key value `ki`. Must be ≥ 1.
    pub key_bits: usize,
    /// How many flip-flops to lock. Locking one FF already defeats
    /// oracle-guided attacks; locking more raises DANA/FALL resistance
    /// (paper §III-C).
    pub locked_ffs: usize,
    /// Key-layer style.
    pub style: MuxTreeStyle,
    /// Where wrongful hardware comes from.
    pub wrongful: WrongfulSource,
    /// Seed for key material and FF selection.
    pub seed: u64,
    /// Use this schedule instead of a random one (e.g. the paper's
    /// `1, 3, 2, 0` for Table II, or a constant schedule for the single-key
    /// reduction).
    pub schedule: Option<KeySchedule>,
}

impl Default for CuteLockStrConfig {
    fn default() -> Self {
        Self {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            style: MuxTreeStyle::Auto,
            wrongful: WrongfulSource::default(),
            seed: 0,
            schedule: None,
        }
    }
}

/// The Cute-Lock-Str transform.
#[derive(Debug, Clone)]
pub struct CuteLockStr {
    config: CuteLockStrConfig,
}

impl CuteLockStr {
    /// Creates the transform with `config`.
    pub fn new(config: CuteLockStrConfig) -> Self {
        Self { config }
    }

    /// Locks `original`, returning the locked circuit and its schedule.
    ///
    /// The transform self-checks its own effectiveness: after construction
    /// it simulates a set of wrong constant keys and requires every one of
    /// them to corrupt the outputs. A **transparent** wrong key — possible
    /// when the randomly chosen wrongful cones are functionally masked on
    /// the reachable trajectory — would hand oracle-guided attacks a valid
    /// constant key, so the transform re-draws its random choices (up to 16
    /// attempts) until no sampled wrong key is transparent.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Config`] when the parameters don't fit the
    /// circuit (fewer than 2 flip-flops, zero keys/bits, `FullTree` with
    /// `ki > 4`, …) and [`LockError::Netlist`] on construction failures.
    pub fn lock(&self, original: &Netlist) -> Result<LockedCircuit, LockError> {
        let mut last = None;
        for attempt in 0..16u64 {
            let locked = self.lock_attempt(original, attempt)?;
            if Self::no_transparent_wrong_key(&locked) {
                return Ok(locked);
            }
            last = Some(locked);
        }
        // Every attempt left some sampled wrong key transparent — the
        // circuit's cones are too uniform for this configuration. Return
        // the last attempt rather than failing; callers measuring security
        // will see the weakness honestly.
        Ok(last.expect("at least one attempt was made"))
    }

    /// Samples wrong constant keys and checks that each corrupts the
    /// outputs within a bounded random simulation: 512 cycles of the
    /// 64-lane miter, stopping at the first diverging cycle. Exhaustive for
    /// `ki ≤ 8`.
    fn no_transparent_wrong_key(locked: &LockedCircuit) -> bool {
        let ki = locked.schedule.key_bits();
        let cycles = 512usize;
        let mut keys: Vec<crate::KeyValue> = Vec::new();
        if ki <= 8 {
            for v in 0..(1u64 << ki) {
                keys.push(crate::KeyValue::from_u64(v, ki));
            }
        } else {
            // Schedule keys with single-bit flips plus a few random probes.
            for t in 0..locked.schedule.num_keys() {
                let base = locked.schedule.key_at_time(t);
                for j in 0..ki.min(8) {
                    keys.push(base.flipped(j * 7 + 1));
                }
                keys.push(base.clone());
            }
        }
        keys.iter().all(|key| {
            // A key is acceptable if it corrupts, or if it happens to be a
            // key that is *never* wrong (constant schedules only).
            let always_right = locked.schedule.keys().iter().all(|sk| sk == key);
            always_right
                || locked
                    .wide_key_matches(key, cycles, 0x7a5e)
                    .is_ok_and(|matches| !matches)
        })
    }

    fn lock_attempt(&self, original: &Netlist, attempt: u64) -> Result<LockedCircuit, LockError> {
        let cfg = &self.config;
        if cfg.keys == 0 || cfg.key_bits == 0 {
            return Err(LockError::Config("keys and key_bits must be ≥ 1".into()));
        }
        if original.dff_count() < 2 {
            return Err(LockError::Config(
                "Cute-Lock-Str needs ≥ 2 flip-flops (wrongful hardware is \
                 repurposed from another flip-flop)"
                    .into(),
            ));
        }
        if cfg.locked_ffs == 0 || cfg.locked_ffs > original.dff_count() {
            return Err(LockError::Config(format!(
                "locked_ffs must be in 1..={}",
                original.dff_count()
            )));
        }
        let style = match cfg.style {
            MuxTreeStyle::Auto => {
                if cfg.key_bits <= 4 {
                    MuxTreeStyle::FullTree
                } else {
                    MuxTreeStyle::Comparator
                }
            }
            s => s,
        };
        if style == MuxTreeStyle::FullTree && cfg.key_bits > 4 {
            return Err(LockError::Config(
                "FullTree style supports ki ≤ 4 (2^ki MUX inputs); use Comparator".into(),
            ));
        }
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

        // Perturb per retry so transparent-key re-draws pick different
        // flip-flops and wrongful cones.
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ 0x5354_524c ^ attempt.wrapping_mul(0x9e37_79b9)); // "STRL"
        let mut nl = original.clone();
        nl.set_name(format!("{}_cutelock_str", original.name()));

        // Key port.
        let key_nets: Vec<NetId> = (0..cfg.key_bits)
            .map(|j| nl.add_key_input(j))
            .collect::<Result<_, _>>()?;
        let key_n: Vec<NetId> = key_nets
            .iter()
            .enumerate()
            .map(|(j, &kk)| nl.add_gate(GateKind::Not, format!("key{j}_n"), &[kk]))
            .collect::<Result<_, _>>()?;

        // Counter.
        let counter = insert_mod_counter(&mut nl, cfg.keys, "clcnt")?;

        // Snapshot the original next-state cones before any re-routing.
        let orig_d: Vec<NetId> = original.dffs().iter().map(|ff| ff.d()).collect();
        let n_ffs = orig_d.len();

        // Trajectory signatures of every next-state cone: two flip-flops
        // whose `d` streams never differ under random stimulus from reset
        // are functionally redundant copies — repurposing one as the
        // other's wrongful hardware would make the lock transparent.
        let sig = d_signatures(original, cfg.seed);

        // Choose the flip-flops to lock, preferring ones whose corruption
        // is observable at a primary output and which have at least one
        // behaviorally distinct partner to repurpose — locking a redundant
        // or dead flip-flop would be transparent to every attack *and*
        // every user.
        let observable = cutelock_netlist::cone::observable_dffs(original);
        let mut candidates: Vec<usize> = (0..n_ffs).collect();
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.gen_range(0..=i));
        }
        candidates.sort_by_key(|&f| {
            let has_partner = sig.iter().enumerate().any(|(g, &s)| g != f && s != sig[f]);
            // Stable partition: observable with partner < observable <
            // the rest.
            match (observable[f], has_partner) {
                (true, true) => 0usize,
                (true, false) => 1,
                (false, true) => 2,
                (false, false) => 3,
            }
        });
        let locked: Vec<usize> = candidates[..cfg.locked_ffs].to_vec();

        // Per-time key match (shared by all locked FFs, Comparator style).
        let match_t: Vec<NetId> = if style == MuxTreeStyle::Comparator {
            (0..cfg.keys)
                .map(|t| {
                    let kv = schedule.key_at_time(t);
                    let terms: Vec<NetId> = (0..cfg.key_bits)
                        .map(|j| if kv.bits()[j] { key_nets[j] } else { key_n[j] })
                        .collect();
                    if terms.len() == 1 {
                        nl.add_gate(GateKind::Buf, format!("kmatch{t}"), &terms)
                    } else {
                        nl.add_gate(GateKind::And, format!("kmatch{t}"), &terms)
                    }
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };

        for (li, &f) in locked.iter().enumerate() {
            let correct = orig_d[f];
            // Per-time slot values (key layer).
            let mut slots: Vec<NetId> = Vec::with_capacity(cfg.keys);
            // `match_t` is empty in FullTree mode, so iterating it instead of
            // the time range would skip the loop entirely.
            #[allow(clippy::needless_range_loop)]
            for t in 0..cfg.keys {
                let slot = match style {
                    MuxTreeStyle::FullTree => {
                        // 2^ki inputs; index == key value. Correct cone at
                        // schedule[t], wrongful cones elsewhere.
                        let kv = schedule.key_at_time(t).as_u64().expect("ki ≤ 4");
                        let width = 1usize << cfg.key_bits;
                        let inputs: Vec<NetId> = (0..width)
                            .map(|v| {
                                if v as u64 == kv {
                                    Ok(correct)
                                } else {
                                    wrongful_cone(&mut nl, cfg.wrongful, &orig_d, &sig, f, &mut rng)
                                }
                            })
                            .collect::<Result<_, _>>()?;
                        build_key_mux_tree(&mut nl, &inputs, &key_nets, &format!("lk{li}_t{t}"))?
                    }
                    MuxTreeStyle::Comparator | MuxTreeStyle::Auto => {
                        let wrong =
                            wrongful_cone(&mut nl, cfg.wrongful, &orig_d, &sig, f, &mut rng)?;
                        // match=1 -> correct, match=0 -> wrongful.
                        nl.add_gate(
                            GateKind::Mux,
                            format!("lk{li}_t{t}_sel"),
                            &[match_t[t], wrong, correct],
                        )?
                    }
                };
                slots.push(slot);
            }
            // Counter layers: binary tree over the time slots.
            let root =
                build_counter_tree(&mut nl, &slots, &counter.is_time, 0, &format!("lk{li}_cnt"))?;
            nl.set_dff_d(f, root)?;
        }

        nl.validate()?;
        Ok(LockedCircuit {
            netlist: nl,
            original: original.clone(),
            schedule,
            scheme: "cute-lock-str",
            counter_ffs: counter.ffs,
            locked_ffs: locked,
        })
    }
}

/// Trajectory signature of every flip-flop's next-state stream: 64 lanes of
/// random stimulus from reset, hashed per cycle. Equal signatures mean the
/// cones are (near-certainly) redundant copies of each other.
fn d_signatures(nl: &Netlist, seed: u64) -> Vec<u64> {
    let Ok(mut sim) = cutelock_sim::ParallelSim::new(nl) else {
        return vec![0; nl.dff_count()];
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5349_4721); // "SIG!"
    let mut sig = vec![0xcbf2_9ce4_8422_2325u64; nl.dff_count()];
    sim.reset();
    for _ in 0..96 {
        let words: Vec<u64> = (0..nl.input_count()).map(|_| rng.gen()).collect();
        sim.set_all_inputs(&words);
        sim.eval();
        for (i, ff) in nl.dffs().iter().enumerate() {
            sig[i] = sig[i].wrapping_mul(0x0000_0100_0000_01b3) ^ sim.value(ff.d());
        }
        sim.step();
    }
    sig
}

/// Produces one wrongful-hardware net for flip-flop `f`, preferring cones
/// whose behavior provably differs from `f`'s own.
fn wrongful_cone(
    nl: &mut Netlist,
    source: WrongfulSource,
    orig_d: &[NetId],
    sig: &[u64],
    f: usize,
    rng: &mut StdRng,
) -> Result<NetId, cutelock_netlist::NetlistError> {
    match source {
        WrongfulSource::RepurposedCone => {
            let distinct: Vec<usize> = (0..orig_d.len())
                .filter(|&g| g != f && sig[g] != sig[f])
                .collect();
            if let Some(&g) =
                (!distinct.is_empty()).then(|| &distinct[rng.gen_range(0..distinct.len())])
            {
                return Ok(orig_d[g]);
            }
            // Every other cone is behaviorally identical (degenerate
            // circuit); fall back to any other flip-flop.
            loop {
                let g = rng.gen_range(0..orig_d.len());
                if g != f {
                    return Ok(orig_d[g]);
                }
            }
        }
        WrongfulSource::FreshLogic => {
            // A small new cone over two random existing state cones — the
            // costly alternative the ablation quantifies.
            let a = orig_d[rng.gen_range(0..orig_d.len())];
            let b = orig_d[rng.gen_range(0..orig_d.len())];
            let kinds = [GateKind::Xor, GateKind::Nand, GateKind::Nor];
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let name = nl.fresh_name("wfresh");
            if a == b {
                nl.add_gate(GateKind::Not, name, &[a])
            } else {
                let t = nl.add_gate(kind, name, &[a, b])?;
                let name2 = nl.fresh_name("wfresh");
                nl.add_gate(GateKind::Not, name2, &[t])
            }
        }
    }
}

/// Builds the key layer: a `2^ki`-to-1 MUX tree with the raw key bits as
/// select lines (LSB selects at the leaves).
fn build_key_mux_tree(
    nl: &mut Netlist,
    inputs: &[NetId],
    key_bits: &[NetId],
    prefix: &str,
) -> Result<NetId, cutelock_netlist::NetlistError> {
    debug_assert_eq!(inputs.len(), 1 << key_bits.len());
    let mut layer: Vec<NetId> = inputs.to_vec();
    for (j, &kb) in key_bits.iter().enumerate() {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for (p, pair) in layer.chunks(2).enumerate() {
            let name = nl.fresh_name(&format!("{prefix}_m{j}_{p}"));
            next.push(nl.add_gate(GateKind::Mux, name, &[kb, pair[0], pair[1]])?);
        }
        layer = next;
    }
    Ok(layer[0])
}

/// Builds the counter layers: a binary tree over the per-time slots. The
/// select of each node is the OR of the counter-time decodes of its upper
/// half (paper: "OR-ing all the counter times in the previous MUXs").
fn build_counter_tree(
    nl: &mut Netlist,
    slots: &[NetId],
    is_time: &[NetId],
    offset: usize,
    prefix: &str,
) -> Result<NetId, cutelock_netlist::NetlistError> {
    match slots.len() {
        0 => unreachable!("keys ≥ 1"),
        1 => Ok(slots[0]),
        n => {
            let mid = n / 2;
            let left = build_counter_tree(nl, &slots[..mid], is_time, offset, prefix)?;
            let right = build_counter_tree(nl, &slots[mid..], is_time, offset + mid, prefix)?;
            // Select = 1 when the counter is in the upper half.
            let upper: Vec<NetId> = (mid..n).map(|t| is_time[offset + t]).collect();
            let sel = if upper.len() == 1 {
                upper[0]
            } else {
                let name = nl.fresh_name(&format!("{prefix}_or{offset}_{n}"));
                nl.add_gate(GateKind::Or, name, &upper)?
            };
            let name = nl.fresh_name(&format!("{prefix}_mx{offset}_{n}"));
            nl.add_gate(GateKind::Mux, name, &[sel, left, right])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyValue;
    use cutelock_circuits::itc99;
    use cutelock_circuits::s27::s27;

    fn paper_schedule() -> KeySchedule {
        // Table II: s27 locked with keys 1, 3, 2, 0 (2-bit each).
        KeySchedule::new(vec![
            KeyValue::from_u64(1, 2),
            KeyValue::from_u64(3, 2),
            KeyValue::from_u64(2, 2),
            KeyValue::from_u64(0, 2),
        ])
    }

    fn lock_s27(style: MuxTreeStyle) -> LockedCircuit {
        CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            style,
            seed: 3,
            wrongful: WrongfulSource::default(),
            schedule: Some(paper_schedule()),
        })
        .lock(&s27())
        .unwrap()
    }

    #[test]
    fn s27_full_tree_equivalent_under_correct_keys() {
        let lc = lock_s27(MuxTreeStyle::FullTree);
        assert!(lc.verify_equivalence(500, 11).unwrap());
        assert_eq!(lc.schedule.num_keys() * lc.schedule.key_bits(), 8);
        assert_eq!(lc.scheme, "cute-lock-str");
    }

    #[test]
    fn s27_comparator_equivalent_under_correct_keys() {
        let lc = lock_s27(MuxTreeStyle::Comparator);
        assert!(lc.verify_equivalence(500, 12).unwrap());
    }

    #[test]
    fn s27_wrong_key_corrupts() {
        let lc = lock_s27(MuxTreeStyle::FullTree);
        // Applying key 0 constantly (correct only at t=3).
        let r = lc
            .wide_corruption_rate(&KeyValue::from_u64(0, 2), 400, 5)
            .unwrap();
        assert!(r > 0.05, "corruption rate {r} too low");
    }

    #[test]
    fn single_key_reduction_is_transparent_when_right() {
        // A constant schedule (single-key reduction, paper §IV.A): the
        // constant correct key unlocks the chip at every cycle.
        let sched = KeySchedule::constant(KeyValue::from_u64(2, 2), 4);
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 2,
            style: MuxTreeStyle::Auto,
            seed: 9,
            wrongful: WrongfulSource::default(),
            schedule: Some(sched),
        })
        .lock(&s27())
        .unwrap();
        let r = lc
            .wide_corruption_rate(&KeyValue::from_u64(2, 2), 300, 4)
            .unwrap();
        assert_eq!(r, 0.0, "correct constant key must never corrupt");
        let rw = lc
            .wide_corruption_rate(&KeyValue::from_u64(1, 2), 300, 4)
            .unwrap();
        assert!(rw > 0.0, "wrong constant key must corrupt");
    }

    #[test]
    fn wide_keys_use_comparator_automatically() {
        let b04 = itc99("b04").unwrap();
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 11,
            locked_ffs: 3,
            style: MuxTreeStyle::Auto,
            seed: 2,
            wrongful: WrongfulSource::default(),
            schedule: None,
        })
        .lock(&b04.netlist)
        .unwrap();
        assert!(lc.verify_equivalence(150, 8).unwrap());
        assert_eq!(lc.netlist.key_inputs().len(), 11);
    }

    #[test]
    fn locks_many_ffs() {
        let b03 = itc99("b03").unwrap();
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 2,
            key_bits: 4,
            locked_ffs: 10,
            style: MuxTreeStyle::Auto,
            seed: 7,
            wrongful: WrongfulSource::default(),
            schedule: None,
        })
        .lock(&b03.netlist)
        .unwrap();
        assert_eq!(lc.locked_ffs.len(), 10);
        assert!(lc.verify_equivalence(150, 3).unwrap());
    }

    #[test]
    fn config_errors() {
        let nl = s27();
        assert!(matches!(
            CuteLockStr::new(CuteLockStrConfig {
                keys: 0,
                ..Default::default()
            })
            .lock(&nl),
            Err(LockError::Config(_))
        ));
        assert!(matches!(
            CuteLockStr::new(CuteLockStrConfig {
                locked_ffs: 99,
                ..Default::default()
            })
            .lock(&nl),
            Err(LockError::Config(_))
        ));
        assert!(matches!(
            CuteLockStr::new(CuteLockStrConfig {
                key_bits: 9,
                style: MuxTreeStyle::FullTree,
                ..Default::default()
            })
            .lock(&nl),
            Err(LockError::Config(_))
        ));
        // Single-FF circuit rejected.
        let tiny = cutelock_netlist::bench::parse(
            "tiny",
            "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = BUF(q)\n",
        )
        .unwrap();
        assert!(matches!(
            CuteLockStr::new(CuteLockStrConfig::default()).lock(&tiny),
            Err(LockError::Config(_))
        ));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = lock_s27(MuxTreeStyle::FullTree);
        let b = lock_s27(MuxTreeStyle::FullTree);
        assert!(cutelock_netlist::bench::structurally_equal(
            &a.netlist, &b.netlist
        ));
    }

    #[test]
    fn fresh_logic_ablation_costs_more_and_still_works() {
        let orig = itc99("b03").unwrap().netlist;
        let mk = |wrongful| {
            CuteLockStr::new(CuteLockStrConfig {
                keys: 4,
                key_bits: 3,
                locked_ffs: 4,
                wrongful,
                seed: 12,
                schedule: None,
                ..Default::default()
            })
            .lock(&orig)
            .unwrap()
        };
        let repurposed = mk(WrongfulSource::RepurposedCone);
        let fresh = mk(WrongfulSource::FreshLogic);
        assert!(repurposed.verify_equivalence(150, 2).unwrap());
        assert!(fresh.verify_equivalence(150, 2).unwrap());
        assert!(
            fresh.netlist.gate_count() > repurposed.netlist.gate_count(),
            "fresh wrongful logic must inflate the gate count"
        );
    }

    #[test]
    fn overhead_is_modest() {
        // The added logic is MUXes + counter, not duplicated cones.
        let orig = itc99("b10").unwrap().netlist;
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 3,
            locked_ffs: 2,
            style: MuxTreeStyle::Auto,
            seed: 1,
            wrongful: WrongfulSource::default(),
            schedule: None,
        })
        .lock(&orig)
        .unwrap();
        let added = lc.netlist.gate_count() - orig.gate_count();
        assert!(added < 120, "added {added} gates");
        let added_ffs = lc.netlist.dff_count() - orig.dff_count();
        assert_eq!(added_ffs, 2); // ceil(log2(4)) counter bits
    }
}
