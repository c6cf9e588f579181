//! FALL — Functional Analysis attacks on Logic Locking (Sirone &
//! Subramanyan, DATE 2019).
//!
//! FALL is **oracle-less**: it inspects the locked netlist alone. Its
//! published pipeline, reproduced here:
//!
//! 1. **Structural analysis** — locate comparator structures:
//!    * *restore comparators*: wide ANDs of `XNOR(signal, keyinput)` pairs
//!      (the unlock unit of TTLock/SFLL);
//!    * *strip comparators*: wide ANDs of buffered/inverted copies of the
//!      same signals — the hard-coded protected pattern that
//!      functionality-stripping leaves in the netlist.
//! 2. **Functional analysis** — pair strip and restore comparators over the
//!    same signal set; the strip polarities *are* the candidate key.
//! 3. **Key confirmation** — a SAT equivalence check: with the candidate
//!    key applied, the locked circuit must equal the circuit with both
//!    comparators neutralized (forced to 0).
//!
//! On TTLock this finds the key (FALL's paper reports 65/80 = 81% success).
//! On Cute-Lock-Str there is nothing to find: the only comparators compare
//! the *key against schedule constants* (no data-signal pattern is encoded
//! anywhere), and the MUX tree swaps two *existing* state cones instead of
//! XOR-correcting an output — so candidate count and key count are both 0,
//! reproducing Table V's FALL columns.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use cutelock_core::clock::ClockHandle;
use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_netlist::unroll::scan_view;
use cutelock_netlist::{Driver, GateKind, NetId, Netlist};
use cutelock_sat::{Binding, CircuitEncoder, SatResult};

use crate::outcome::verify_candidate_key;
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackOutcome, AttackReport, RunStats};

/// Result of a FALL run — one row of the paper's Table V FALL columns.
#[derive(Debug, Clone)]
pub struct FallReport {
    /// Comparator-pair candidates found by the structural phase.
    pub candidates: usize,
    /// Candidate keys confirmed by the SAT check.
    pub keys_found: usize,
    /// Confirmed keys (empty on failure).
    pub keys: Vec<KeyValue>,
    /// Overall verdict.
    pub outcome: AttackOutcome,
    /// CPU time.
    pub elapsed: Duration,
}

/// FALL's report in the shape of every other attack's, for the run schema:
/// the candidate count stands in for iterations, and there is no bound and
/// no solver counters.
impl From<&FallReport> for AttackReport {
    fn from(r: &FallReport) -> Self {
        AttackReport {
            outcome: r.outcome.clone(),
            elapsed: r.elapsed,
            iterations: r.candidates,
            bound: 0,
            stats: RunStats::default(),
        }
    }
}

/// A detected comparator: the AND root plus the signals it tests.
#[derive(Debug, Clone)]
struct Comparator {
    root: NetId,
    /// signal net -> polarity (strip) or key input (restore).
    kind: ComparatorKind,
}

#[derive(Debug, Clone)]
enum ComparatorKind {
    /// AND of BUF/NOT over non-key signals: signal -> required polarity.
    Strip(BTreeMap<NetId, bool>),
    /// AND of XNOR(signal, key): signal -> key input net.
    Restore(BTreeMap<NetId, NetId>),
}

/// Runs FALL on the locked circuit, enforcing `budget.timeout` across the
/// structural sweep, the pairing phase, and every SAT confirmation call,
/// and racing each SAT key-confirmation check across the given
/// [`Portfolio`] (the structural and pairing phases are not SAT-bound and
/// stay serial).
///
/// A run that exhausts the budget reports [`AttackOutcome::Timeout`] with
/// whatever partial candidate/key counts it had accumulated. Callers that
/// only need the verdict go through [`run_attack`](crate::run_attack) with
/// [`AttackStrategy::Fall`](crate::AttackStrategy::Fall); this function
/// is public for the confirmed key list in [`FallReport::keys`].
pub fn fall_attack_with(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
) -> FallReport {
    let start = budget.start();
    let out_of_time = || budget.remaining(start).is_none();
    let timed_out = |candidates: usize, keys: Vec<KeyValue>| FallReport {
        candidates,
        keys_found: keys.len(),
        keys,
        outcome: AttackOutcome::Timeout,
        elapsed: budget.clock.now().duration_since(start),
    };
    let sv = scan_view(&locked.netlist).expect("locked netlist well-formed");
    let nl = &sv.netlist;
    let key_set: Vec<NetId> = nl.key_inputs();
    let is_key = |id: NetId| key_set.contains(&id);

    // ---- Structural phase -------------------------------------------------
    let mut strips = Vec::new();
    let mut restores = Vec::new();
    for (gi, gate) in nl.gates().iter().enumerate() {
        // A per-gate clock read would dominate the sweep on big netlists;
        // every 256 gates keeps the overrun below a scheduling quantum.
        // Each chunk is one unit of virtual time (ticked *before* the
        // check, so a zero budget times out at chunk 0 deterministically).
        if gi % 256 == 0 {
            budget.clock.tick(1);
            if out_of_time() {
                return timed_out(0, Vec::new());
            }
        }
        if gate.kind() != GateKind::And || gate.inputs().len() < 2 {
            continue;
        }
        let mut strip_sig: BTreeMap<NetId, bool> = BTreeMap::new();
        let mut restore_sig: BTreeMap<NetId, NetId> = BTreeMap::new();
        let mut is_strip = true;
        let mut is_restore = true;
        for &inp in gate.inputs() {
            match classify_literal(nl, inp, &is_key) {
                Some(CmpLit::Pattern(sig, pol)) if !is_key(sig) => {
                    strip_sig.insert(sig, pol);
                    is_restore = false;
                }
                Some(CmpLit::KeyPair(sig, key)) if !is_key(sig) => {
                    restore_sig.insert(sig, key);
                    is_strip = false;
                }
                _ => {
                    is_strip = false;
                    is_restore = false;
                }
            }
            if !is_strip && !is_restore {
                break;
            }
        }
        if is_strip && strip_sig.len() == gate.inputs().len() {
            strips.push(Comparator {
                root: gate.output(),
                kind: ComparatorKind::Strip(strip_sig),
            });
        } else if is_restore && restore_sig.len() == gate.inputs().len() {
            restores.push(Comparator {
                root: gate.output(),
                kind: ComparatorKind::Restore(restore_sig),
            });
        }
    }

    // ---- Functional phase: pair strip & restore over equal signal sets ----
    let key_order: HashMap<NetId, usize> =
        key_set.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut candidates: Vec<(NetId, NetId, KeyValue)> = Vec::new();
    for s in &strips {
        budget.clock.tick(1);
        if out_of_time() {
            return timed_out(candidates.len(), Vec::new());
        }
        let ComparatorKind::Strip(pattern) = &s.kind else {
            continue;
        };
        for r in &restores {
            let ComparatorKind::Restore(pairs) = &r.kind else {
                continue;
            };
            if pattern.len() != pairs.len() || !pattern.keys().eq(pairs.keys()) {
                continue;
            }
            // Candidate key: for each signal, key bit := strip polarity.
            let mut bits = vec![false; key_set.len()];
            let mut covered = vec![false; key_set.len()];
            for (sig, &pol) in pattern {
                let key_net = pairs[sig];
                let pos = key_order[&key_net];
                bits[pos] = pol;
                covered[pos] = true;
            }
            // Uncovered key bits stay 0 (unconstrained by this comparator).
            let _ = covered;
            candidates.push((s.root, r.root, KeyValue::from_bits(bits)));
        }
    }

    // ---- Key confirmation (SAT equivalence check) --------------------------
    let mut keys = Vec::new();
    for (strip_root, restore_root, cand) in &candidates {
        budget.clock.tick(1);
        let Some(rem) = budget.remaining(start) else {
            return timed_out(candidates.len(), keys);
        };
        if confirm_key(
            nl,
            *strip_root,
            *restore_root,
            cand,
            rem,
            &budget.clock,
            portfolio,
        ) && verify_candidate_key(locked, cand, 256, 0xfa11)
        {
            keys.push(cand.clone());
        }
    }

    let outcome = if let Some(k) = keys.first() {
        AttackOutcome::KeyFound(k.clone())
    } else {
        AttackOutcome::Fail
    };
    FallReport {
        candidates: candidates.len(),
        keys_found: keys.len(),
        keys,
        outcome,
        elapsed: budget.clock.now().duration_since(start),
    }
}

enum CmpLit {
    /// `sig` required equal to the polarity (BUF = true, NOT = false).
    Pattern(NetId, bool),
    /// `XNOR(sig, key)`.
    KeyPair(NetId, NetId),
}

fn classify_literal(nl: &Netlist, id: NetId, is_key: &dyn Fn(NetId) -> bool) -> Option<CmpLit> {
    match nl.net(id).driver() {
        Driver::Gate(g) => {
            let gate = &nl.gates()[g];
            match gate.kind() {
                GateKind::Buf => Some(CmpLit::Pattern(gate.inputs()[0], true)),
                GateKind::Not => Some(CmpLit::Pattern(gate.inputs()[0], false)),
                GateKind::Xnor if gate.inputs().len() == 2 => {
                    let (a, b) = (gate.inputs()[0], gate.inputs()[1]);
                    match (is_key(a), is_key(b)) {
                        (true, false) => Some(CmpLit::KeyPair(b, a)),
                        (false, true) => Some(CmpLit::KeyPair(a, b)),
                        _ => None,
                    }
                }
                _ => None,
            }
        }
        Driver::Input => Some(CmpLit::Pattern(id, true)),
        _ => None,
    }
}

/// SAT check: `locked(X, cand)` must equal the netlist with both comparator
/// roots forced to 0 (functionality restored + stripping removed).
/// `remaining` is the attack's unspent wall-clock budget; a solver call
/// that exhausts it answers `Unknown`, which counts as unconfirmed.
fn confirm_key(
    nl: &Netlist,
    strip_root: NetId,
    restore_root: NetId,
    cand: &KeyValue,
    remaining: std::time::Duration,
    clock: &ClockHandle,
    portfolio: &Portfolio,
) -> bool {
    let mut enc = CircuitEncoder::new();
    enc.solver.set_conflict_budget(Some(200_000));
    // Clock first: the deadline below must be computed on the attack's
    // clock, not the wall default.
    enc.solver.set_clock(clock.clone());
    enc.solver.set_timeout(Some(remaining));
    portfolio.install(&mut enc.solver);
    // Copy A: keys bound to candidate.
    let mut binding_a = Binding::new();
    for (&k, &b) in nl.key_inputs().iter().zip(cand.bits()) {
        let l = enc.lit_const(b);
        binding_a.bind(k, l);
    }
    // Shared data inputs between copies.
    let mut data_lits = Vec::new();
    for &inp in nl.inputs() {
        if !nl.key_inputs().contains(&inp) {
            let l = enc.fresh_lit();
            binding_a.bind(inp, l);
            data_lits.push((inp, l));
        }
    }
    let Ok(cnf_a) = enc.encode(nl, &binding_a) else {
        return false;
    };

    // Copy B: comparator roots forced to 0 via a modified netlist.
    let mut modified = nl.clone();
    let z = modified
        .add_gate(GateKind::Const0, modified.fresh_name("fall_zero"), &[])
        .expect("fresh const");
    let _ = modified.replace_uses(strip_root, z);
    let _ = modified.replace_uses(restore_root, z);
    let mut binding_b = Binding::new();
    for (&k, &b) in modified.key_inputs().iter().zip(cand.bits()) {
        let l = enc.lit_const(b);
        binding_b.bind(k, l);
    }
    for &(inp, l) in &data_lits {
        binding_b.bind(inp, l);
    }
    let Ok(cnf_b) = enc.encode(&modified, &binding_b) else {
        return false;
    };

    let oa = cnf_a.lits(nl.outputs());
    let ob = cnf_b.lits(modified.outputs());
    let diff = enc.differ(&oa, &ob);
    enc.solver.add_clause(&[diff]);
    portfolio.race(&mut enc.solver) == SatResult::Unsat
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_circuits::itc99;
    use cutelock_circuits::s27::s27;
    use cutelock_core::baselines::TtLock;
    use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};

    fn fall_budgeted(lc: &LockedCircuit, budget: &AttackBudget) -> FallReport {
        fall_attack_with(lc, budget, &Portfolio::single())
    }

    fn fall(lc: &LockedCircuit) -> FallReport {
        fall_budgeted(lc, &AttackBudget::default())
    }

    #[test]
    fn fall_breaks_ttlock() {
        let lc = TtLock::new(4, 3).lock(&s27()).unwrap();
        let report = fall(&lc);
        assert!(report.candidates >= 1, "no candidates found");
        assert!(report.keys_found >= 1, "no keys confirmed");
        assert!(matches!(report.outcome, AttackOutcome::KeyFound(_)));
    }

    #[test]
    fn fall_finds_nothing_on_cutelock_str() {
        for style in [
            cutelock_core::str_lock::MuxTreeStyle::FullTree,
            cutelock_core::str_lock::MuxTreeStyle::Comparator,
        ] {
            let lc = CuteLockStr::new(CuteLockStrConfig {
                keys: 4,
                key_bits: 2,
                locked_ffs: 2,
                style,
                seed: 3,
                schedule: None,
                ..Default::default()
            })
            .lock(&s27())
            .unwrap();
            let report = fall(&lc);
            assert_eq!(report.candidates, 0, "{style:?}");
            assert_eq!(report.keys_found, 0, "{style:?}");
            assert_eq!(report.outcome, AttackOutcome::Fail);
        }
    }

    #[test]
    fn fall_times_out_at_exact_virtual_instants() {
        // Replaces the old zero-wall-timeout regression, which raced the
        // scheduler: under a virtual clock (1 ms per work unit — structural
        // chunk, strip pairing, key confirmation, solver conflict) the
        // timeout fires at an exact, machine-independent point.
        use cutelock_core::clock::VirtualClock;
        let ms = Duration::from_millis;
        let lc = TtLock::new(4, 3).lock(&s27()).unwrap();

        // Zero budget: the very first structural chunk's tick expires it.
        let vc = VirtualClock::with_tick(1_000_000);
        let budget = AttackBudget {
            timeout: Duration::ZERO,
            clock: vc.handle(),
            ..Default::default()
        };
        let report = fall_budgeted(&lc, &budget);
        assert_eq!(report.outcome, AttackOutcome::Timeout);
        assert_eq!(report.candidates, 0);
        assert_eq!(report.keys_found, 0);
        assert_eq!(report.elapsed, ms(1), "expired at structural chunk 0");

        // Two units: the structural chunk and the one strip pairing fit,
        // the confirmation of candidate 0 does not — FALL reports the
        // candidate it found but confirms no key.
        let vc = VirtualClock::with_tick(1_000_000);
        let budget = AttackBudget {
            timeout: ms(2),
            clock: vc.handle(),
            ..Default::default()
        };
        let report = fall_budgeted(&lc, &budget);
        assert_eq!(report.outcome, AttackOutcome::Timeout);
        assert_eq!(report.candidates, 1);
        assert_eq!(report.keys_found, 0);
        assert_eq!(report.elapsed, ms(3), "expired at confirmation 0");

        // A generous virtual budget completes: two runs on fresh clocks
        // produce bit-identical reports, virtual elapsed included.
        let run = || {
            let vc = VirtualClock::with_tick(1_000_000);
            let budget = AttackBudget {
                timeout: Duration::from_secs(3600),
                clock: vc.handle(),
                ..Default::default()
            };
            fall_budgeted(&lc, &budget)
        };
        let (a, b) = (run(), run());
        assert!(matches!(a.outcome, AttackOutcome::KeyFound(_)));
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.elapsed, b.elapsed, "virtual elapsed is deterministic");
    }

    #[test]
    fn fall_finds_nothing_on_larger_cutelock() {
        let b10 = itc99("b10").unwrap().netlist;
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 11,
            locked_ffs: 4,
            seed: 5,
            schedule: None,
            ..Default::default()
        })
        .lock(&b10)
        .unwrap();
        let report = fall(&lc);
        assert_eq!(report.keys_found, 0);
    }

    #[test]
    fn fall_on_ttlock_recovers_correct_protected_pattern() {
        let lc = TtLock::new(5, 9)
            .lock(&itc99("b08").unwrap().netlist)
            .unwrap();
        let report = fall(&lc);
        if let AttackOutcome::KeyFound(k) = &report.outcome {
            assert_eq!(k, lc.schedule.key_at_time(0));
        } else {
            panic!("expected key, got {}", report.outcome);
        }
    }
}
