//! Sequential oracle-guided unrolling attacks (NEOS `bbo` / `int` modes).
//!
//! Both attacks search for a **constant key** consistent with the sequential
//! oracle by unrolling the locked circuit over clock cycles and running the
//! classic DIP loop per bound:
//!
//! 1. build a *miter*: two copies of the unrolled locked circuit sharing the
//!    input sequence (and, for RANE, the unknown initial state) but carrying
//!    independent key variables `K1`, `K2`; ask the solver for an input
//!    sequence on which their outputs differ;
//! 2. query the oracle (the activated chip, simulated from reset) with that
//!    sequence and constrain both copies to reproduce the oracle's outputs;
//! 3. repeat until no discriminating sequence exists at this bound; then
//!    extract a candidate key, verify it by simulation, and either finish or
//!    deepen the unrolling.
//!
//! The key model is where Cute-Lock bites: once oracle constraints span two
//! counter times with different scheduled keys, *no* constant key is
//! consistent — the solver proves the attack's own model unsatisfiable and
//! the run ends in [`AttackOutcome::Cns`].
//!
//! All frame encoding happens through the unified
//! [`MiterBuilder`] engine: each clock cycle of each
//! miter copy is one [`MiterBuilder::frame`] call, with the next-state
//! literals threaded into the following frame. All modes share one
//! **persistent incremental solver**: frames are appended as the bound
//! grows, the per-bound "some output differs" constraint lives in a
//! retractable [`Solver`] scope ([`Solver::push_scope`] /
//! [`Solver::pop_scope`]), and oracle/DIP constraints are asserted
//! permanently — so learnt clauses survive across bounds and iterations.
//! NEOS's `bbo` and `int` modes differ only in lineage (`bbo` historically
//! re-solved from scratch per bound), so both strategies run this one
//! miter through the crate's shared DIP loop (one hunt per bound). KC2
//! adds key-bit fixation to each learn step — see [`crate::kc2`].

use std::rc::Rc;

use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_netlist::unroll::{scan_view, ScanView};
use cutelock_sat::{CircuitEncoder, Lit, MiterBuilder, PortVals, SatResult, Solver};
use cutelock_sim::{NetlistOracle, SequentialOracle};

use crate::dip::{Miter, Run};
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackOutcome, AttackReport};

/// How the attacker models the initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InitModel {
    /// Known reset state (read from the netlist's flip-flop inits).
    Reset,
    /// Unknown initial state, modeled as secret variables shared by all
    /// copies (the RANE model).
    Secret,
}

/// Runs the BBO/INT unrolling attack, racing each solver query across the
/// given [`Portfolio`].
pub(crate) fn bmc_attack_with(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
) -> AttackReport {
    unrolled_attack(locked, budget, portfolio, InitModel::Reset, false)
}

/// The unrolling attack shared by BBO/INT, [`crate::kc2`] (`fix_key_bits`)
/// and [`crate::rane`] ([`InitModel::Secret`]): one DIP hunt per bound on
/// one persistent miter, then a candidate key; a wrong key deepens the
/// unrolling until `max_bound`.
pub(crate) fn unrolled_attack(
    locked: &LockedCircuit,
    budget: &AttackBudget,
    portfolio: &Portfolio,
    init: InitModel,
    fix_key_bits: bool,
) -> AttackReport {
    // The scan view is derived before the budget's clock starts.
    let sv = Rc::new(scan_view(&locked.netlist).expect("locked netlist is well-formed"));
    let mut run = Run::new(locked, budget, portfolio, 0);
    let ki = locked.netlist.key_inputs().len();
    if ki == 0 {
        return run.fail();
    }
    let oracle = NetlistOracle::new(locked.original.clone()).expect("oracle netlist valid");
    let mut m = Unrolled::new(&run, sv, oracle, init, fix_key_bits.then(|| vec![None; ki]));
    for bound in 1..=budget.max_bound {
        run.bound = bound;
        let differ = m.extend_to(bound);
        if let Err(end) = run.hunt(&mut m, &[&differ]) {
            return end;
        }
        // No DIS at this bound: extract and verify a candidate key.
        let report = run.extract(&mut m, 0xd1f);
        if bound == budget.max_bound || !matches!(report.outcome, AttackOutcome::WrongKey(_)) {
            return report;
        }
        // A wrong key: deepen the unrolling and keep going.
    }
    // Only reached with `max_bound == 0`: no bound was ever tried.
    run.fail()
}

/// The unrolled miter: two chains of time frames with private key vectors,
/// appended as the bound grows, on one incremental solver, so learnt
/// clauses survive across bounds and iterations.
struct Unrolled {
    m: MiterBuilder,
    oracle: NetlistOracle,
    /// Reset values of the flip-flops (the [`InitModel::Reset`] start).
    reset: Vec<bool>,
    /// The shared secret initial state ([`InitModel::Secret`]).
    secret: Option<Vec<Lit>>,
    k1: Vec<Lit>,
    k2: Vec<Lit>,
    /// The shared data-input literals of each frame.
    xs: Vec<Vec<Lit>>,
    /// The first copy's state literals feeding its *next* frame.
    state1: Vec<Lit>,
    /// The second copy's state literals feeding its *next* frame.
    state2: Vec<Lit>,
    /// One "outputs differ" literal per frame.
    diff_lits: Vec<Lit>,
    /// KC2's fixed key bits, when key-bit fixation is on.
    fixed: Option<Vec<Option<bool>>>,
}

impl Unrolled {
    /// A fresh miter over the scan view with keys, optional secret initial
    /// state, and empty frame chains — the bound-0 state of a run.
    fn new(
        run: &Run,
        sv: Rc<ScanView>,
        oracle: NetlistOracle,
        init: InitModel,
        fixed: Option<Vec<Option<bool>>>,
    ) -> Self {
        let mut m = MiterBuilder::new(sv, &[]);
        run.prepare(&mut m.enc.solver);
        let k1 = m.fresh_keys();
        let k2 = m.fresh_keys();
        let dffs = run.locked.netlist.dffs();
        let secret = (init == InitModel::Secret).then(|| m.enc.fresh_lits(dffs.len()));
        let reset: Vec<bool> = dffs.iter().map(|ff| ff.init().unwrap_or(false)).collect();
        let start = init_state(&mut m.enc, secret.as_deref(), &reset);
        Self {
            m,
            oracle,
            reset,
            secret,
            k1,
            k2,
            xs: Vec::new(),
            state1: start.clone(),
            state2: start,
            diff_lits: Vec::new(),
            fixed,
        }
    }

    /// Extends the miter up to `bound` frames — fresh shared data inputs
    /// per frame, state threaded from the previous frame — and returns the
    /// hunt constraint: some frame's outputs differ.
    fn extend_to(&mut self, bound: usize) -> Vec<Lit> {
        while self.xs.len() < bound {
            let f1 = self
                .m
                .frame(&self.k1, PortVals::Shared(&self.state1), PortVals::Fresh)
                .expect("scan view encodes");
            let f2 = self
                .m
                .frame(
                    &self.k2,
                    PortVals::Shared(&self.state2),
                    PortVals::Shared(&f1.xs),
                )
                .expect("scan view encodes");
            self.diff_lits
                .push(self.m.enc.differ(&f1.outputs, &f2.outputs));
            self.xs.push(f1.xs);
            self.state1 = f1.next_state;
            self.state2 = f2.next_state;
        }
        self.diff_lits.clone()
    }
}

/// Initial-state literals for a fresh chain: the RANE secret variables
/// when provided, otherwise reset constants.
fn init_state(enc: &mut CircuitEncoder, secret: Option<&[Lit]>, reset: &[bool]) -> Vec<Lit> {
    match secret {
        Some(s0) => s0.to_vec(),
        None => enc.lits_const(reset),
    }
}

impl Miter for Unrolled {
    fn solver(&mut self) -> &mut Solver {
        &mut self.m.enc.solver
    }

    fn key(&self) -> KeyValue {
        KeyValue::from_bits(self.m.enc.values(&self.k1))
    }

    /// Replays the discriminating input sequence on the oracle from reset
    /// and pins both key copies' unrolled outputs to its answer; KC2 then
    /// fixes the key bits those constraints imply.
    fn learn(&mut self, run: &Run) -> bool {
        let xseq: Vec<Vec<bool>> = self
            .xs
            .iter()
            .map(|frame| self.m.enc.values(frame))
            .collect();
        self.oracle.reset();
        let ys: Vec<Vec<bool>> = xseq.iter().map(|x| self.oracle.step(x)).collect();
        for keys in [&self.k1, &self.k2] {
            let mut state = init_state(&mut self.m.enc, self.secret.as_deref(), &self.reset);
            for (xs, ys) in xseq.iter().zip(&ys) {
                let f = self
                    .m
                    .frame(keys, PortVals::Shared(&state), PortVals::Const(xs))
                    .expect("scan view encodes");
                self.m.enc.pin(&f.outputs, ys);
                state = f.next_state;
            }
        }
        match &mut self.fixed {
            Some(fixed) => crunch_key_bits(run, &mut self.m.enc.solver, &self.k1, fixed),
            None => false,
        }
    }
}

/// KC2-style key-bit fixation: probe each still-free key bit under a
/// small conflict budget; implied bits get asserted as units, shrinking
/// the key condition.
///
/// Returns `true` when the attack's wall-clock deadline expired
/// mid-probe (the caller must report [`AttackOutcome::Timeout`]). The
/// probe loop checks the deadline *between* probes — a wide key no
/// longer blows past `AttackBudget::timeout` one 2 000-conflict probe at
/// a time — and the main loop's conflict budget is restored on every
/// exit path, timeout included.
fn crunch_key_bits(run: &Run, solver: &mut Solver, k1: &[Lit], fixed: &mut [Option<bool>]) -> bool {
    let mut timed_out = false;
    for (j, &kj) in k1.iter().enumerate() {
        if fixed[j].is_some() {
            continue;
        }
        let Some(rem) = run.remaining() else {
            timed_out = true;
            break;
        };
        solver.set_timeout(Some(rem));
        solver.set_conflict_budget(Some(2_000));
        if solver.solve_with_assumptions(&[kj]) == SatResult::Unsat {
            solver.add_clause(&[!kj]);
            fixed[j] = Some(false);
        } else if solver.solve_with_assumptions(&[!kj]) == SatResult::Unsat {
            solver.add_clause(&[kj]);
            fixed[j] = Some(true);
        }
    }
    solver.set_conflict_budget(run.budget.conflict_budget);
    timed_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::verify_candidate_key;
    use crate::{run_attack, AttackSpec, AttackStrategy};
    use cutelock_circuits::s27::s27;
    use cutelock_core::baselines::XorLock;
    use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
    use cutelock_core::KeySchedule;

    pub(crate) fn quick_budget() -> AttackBudget {
        AttackBudget {
            timeout: std::time::Duration::from_secs(30),
            max_bound: 6,
            max_iterations: 64,
            conflict_budget: Some(500_000),
            ..AttackBudget::default()
        }
    }

    fn attack(strategy: AttackStrategy, lc: &LockedCircuit) -> AttackReport {
        run_attack(lc, &AttackSpec::new(strategy).with_budget(quick_budget()))
    }

    #[test]
    fn int_breaks_xor_lock() {
        let lc = XorLock::new(4, 3).lock(&s27()).unwrap();
        let report = attack(AttackStrategy::Int, &lc);
        match &report.outcome {
            AttackOutcome::KeyFound(k) => {
                assert!(verify_candidate_key(&lc, k, 500, 1));
            }
            other => panic!("expected KeyFound, got {other}"),
        }
    }

    #[test]
    fn bbo_breaks_xor_lock() {
        let lc = XorLock::new(3, 7).lock(&s27()).unwrap();
        let report = attack(AttackStrategy::Bbo, &lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn crunch_key_bits_times_out_and_restores_budget() {
        // Regression (attack-budget bugfix): with the wall clock already
        // exhausted, the probe loop must bail before probing anything and
        // must not leak its temporary 2 000-conflict budget.
        let lc = XorLock::new(4, 3).lock(&s27()).unwrap();
        let budget = AttackBudget {
            timeout: std::time::Duration::ZERO,
            ..quick_budget()
        };
        let portfolio = Portfolio::single();
        let run = Run::new(&lc, &budget, &portfolio, 0);
        let mut solver = Solver::new();
        solver.set_conflict_budget(budget.conflict_budget);
        let k1: Vec<Lit> = (0..4).map(|_| Lit::positive(solver.new_var())).collect();
        let mut fixed = vec![None; 4];
        let conflicts_before = solver.stats().conflicts;
        assert!(
            crunch_key_bits(&run, &mut solver, &k1, &mut fixed),
            "expired deadline must report a timeout"
        );
        assert_eq!(
            solver.conflict_budget(),
            budget.conflict_budget,
            "probe budget leaked into the main loop"
        );
        assert_eq!(
            solver.stats().conflicts,
            conflicts_before,
            "probes ran anyway"
        );
        assert!(fixed.iter().all(Option::is_none));
    }

    #[test]
    fn crunch_key_bits_restores_budget_after_probing() {
        // The success path must restore the budget too (covers the
        // incremental refactor's early-return audit).
        let lc = XorLock::new(2, 3).lock(&s27()).unwrap();
        let budget = quick_budget();
        let portfolio = Portfolio::single();
        let run = Run::new(&lc, &budget, &portfolio, 0);
        let mut solver = Solver::new();
        solver.set_conflict_budget(budget.conflict_budget);
        let k1: Vec<Lit> = (0..2).map(|_| Lit::positive(solver.new_var())).collect();
        // Force k1[0] true so the probe of !k1[0] is UNSAT and fixes a bit.
        solver.add_clause(&[k1[0]]);
        let mut fixed = vec![None; 2];
        assert!(!crunch_key_bits(&run, &mut solver, &k1, &mut fixed));
        assert_eq!(fixed[0], Some(true));
        assert_eq!(solver.conflict_budget(), budget.conflict_budget);
    }

    #[test]
    fn int_breaks_single_key_cutelock() {
        // The paper's validation (§IV.A): reduced to one key value,
        // Cute-Lock is SAT-attackable.
        let sched = KeySchedule::constant(cutelock_core::KeyValue::from_u64(2, 2), 4);
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 5,
            schedule: Some(sched),
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        let report = attack(AttackStrategy::Int, &lc);
        assert!(
            matches!(report.outcome, AttackOutcome::KeyFound(_)),
            "got {}",
            report.outcome
        );
    }

    #[test]
    fn int_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 6,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        assert!(!lc.schedule.is_constant(), "degenerate schedule");
        let report = attack(AttackStrategy::Int, &lc);
        assert!(
            matches!(
                report.outcome,
                AttackOutcome::Cns | AttackOutcome::WrongKey(_)
            ),
            "expected CNS or wrong key, got {}",
            report.outcome
        );
    }

    #[test]
    fn bbo_dead_ends_on_multi_key_cutelock() {
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 2,
            key_bits: 2,
            locked_ffs: 1,
            seed: 11,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .unwrap();
        assert!(!lc.schedule.is_constant(), "degenerate schedule");
        let report = attack(AttackStrategy::Bbo, &lc);
        assert!(report.outcome.defense_held(), "got {}", report.outcome);
    }
}
