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
//! engine. KC2 adds key-bit fixation on top — see [`crate::kc2`].

use std::rc::Rc;

use cutelock_core::clock::Instant;
use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_netlist::unroll::{scan_view, ScanView};
use cutelock_sat::{CircuitEncoder, Lit, MiterBuilder, PortVals, SatResult, Solver};
use cutelock_sim::{NetlistOracle, SequentialOracle};

use crate::outcome::verify_candidate_key;
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackOutcome, AttackReport, RunStats};

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
    Engine::new(locked, budget, InitModel::Reset, false, portfolio).run()
}

/// One miter copy's per-frame literals.
struct Chain {
    /// Data-input literals per frame (only kept for the first copy).
    xs: Vec<Vec<Lit>>,
    /// Primary-output literals per frame.
    pos: Vec<Vec<Lit>>,
    /// State literals feeding the *next* frame.
    state: Vec<Lit>,
}

/// A run's incremental state: the miter (owning the solver), the two
/// key-literal vectors, both chains, and the shared secret-initial-state
/// literals (if any).
struct IncState {
    m: MiterBuilder,
    k1: Vec<Lit>,
    k2: Vec<Lit>,
    c1: Chain,
    c2: Chain,
    secret: Option<Vec<Lit>>,
}

/// The shared DIP-loop engine (also used by [`crate::kc2`] and
/// [`crate::rane`]).
pub(crate) struct Engine<'a> {
    locked: &'a LockedCircuit,
    budget: &'a AttackBudget,
    init: InitModel,
    /// KC2 extension: probe and fix implied key bits after each iteration.
    fix_key_bits: bool,
    /// Query-level portfolio racing (and the attack-level stop flag).
    portfolio: &'a Portfolio,
    /// The scan view, derived before the budget's clock starts.
    sv: Rc<ScanView>,
    start: Instant,
    iterations: usize,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        locked: &'a LockedCircuit,
        budget: &'a AttackBudget,
        init: InitModel,
        fix_key_bits: bool,
        portfolio: &'a Portfolio,
    ) -> Self {
        let sv = Rc::new(scan_view(&locked.netlist).expect("locked netlist is well-formed"));
        Self {
            locked,
            budget,
            init,
            fix_key_bits,
            portfolio,
            sv,
            start: budget.start(),
            iterations: 0,
        }
    }

    fn remaining(&self) -> Option<std::time::Duration> {
        self.budget.remaining(self.start)
    }

    fn report(&self, outcome: AttackOutcome, bound: usize, stats: RunStats) -> AttackReport {
        AttackReport {
            outcome,
            elapsed: self.budget.clock.now().duration_since(self.start),
            iterations: self.iterations,
            bound,
            stats,
        }
    }

    /// A fresh miter over the scan view with keys, optional secret initial
    /// state, and empty frame chains — the bound-0 state of a run.
    fn fresh_state(&self) -> IncState {
        let mut m = MiterBuilder::new(Rc::clone(&self.sv), &[]);
        m.enc
            .solver
            .set_conflict_budget(self.budget.conflict_budget);
        m.enc.solver.set_clock(self.budget.clock.clone());
        self.portfolio.install(&mut m.enc.solver);
        let k1 = m.fresh_keys();
        let k2 = m.fresh_keys();
        let secret: Option<Vec<Lit>> = (self.init == InitModel::Secret)
            .then(|| m.enc.fresh_lits(self.locked.netlist.dff_count()));
        let init = self.init_state(&mut m.enc, secret.as_deref());
        let c1 = Chain {
            xs: Vec::new(),
            pos: Vec::new(),
            state: init.clone(),
        };
        let c2 = Chain {
            xs: Vec::new(),
            pos: Vec::new(),
            state: init,
        };
        IncState {
            m,
            k1,
            k2,
            c1,
            c2,
            secret,
        }
    }

    /// Initial-state literals for a fresh chain: the RANE secret variables
    /// when provided, otherwise reset constants.
    fn init_state(&self, enc: &mut CircuitEncoder, secret: Option<&[Lit]>) -> Vec<Lit> {
        match (self.init, secret) {
            (InitModel::Secret, Some(s0)) => s0.to_vec(),
            _ => {
                let bits: Vec<bool> = self
                    .locked
                    .netlist
                    .dffs()
                    .iter()
                    .map(|ff| ff.init().unwrap_or(false))
                    .collect();
                enc.lits_const(&bits)
            }
        }
    }

    /// Adds the oracle-consistency constraints for a discriminating input
    /// sequence: both key copies must reproduce the oracle outputs.
    fn add_dip_constraints(
        &self,
        m: &mut MiterBuilder,
        k1: &[Lit],
        k2: &[Lit],
        secret: Option<&[Lit]>,
        xseq: &[Vec<bool>],
        oracle_out: &[Vec<bool>],
    ) {
        for keys in [k1, k2] {
            let mut state = self.init_state(&mut m.enc, secret);
            for (xs, ys) in xseq.iter().zip(oracle_out) {
                let f = m
                    .frame(keys, PortVals::Shared(&state), PortVals::Const(xs))
                    .expect("scan view encodes");
                m.enc.pin(&f.outputs, ys);
                state = f.next_state;
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
    fn crunch_key_bits(&self, solver: &mut Solver, k1: &[Lit], fixed: &mut [Option<bool>]) -> bool {
        let mut timed_out = false;
        for (j, &kj) in k1.iter().enumerate() {
            if fixed[j].is_some() {
                continue;
            }
            let Some(rem) = self.remaining() else {
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
        solver.set_conflict_budget(self.budget.conflict_budget);
        timed_out
    }

    pub(crate) fn run(mut self) -> AttackReport {
        let ki = self.locked.netlist.key_inputs().len();
        if ki == 0 {
            return self.report(AttackOutcome::Fail, 0, RunStats::default());
        }
        let mut oracle =
            NetlistOracle::new(self.locked.original.clone()).expect("oracle netlist valid");

        let mut inc: Option<IncState> = None;
        let mut diff_lits: Vec<Lit> = Vec::new();
        let mut fixed: Vec<Option<bool>> = vec![None; ki];

        for bound in 1..=self.budget.max_bound {
            let st = inc.get_or_insert_with(|| self.fresh_state());

            // Extend the miter up to `bound` frames: fresh shared data
            // inputs per frame, state threaded from the previous frame.
            while st.c1.pos.len() < bound {
                let f1 =
                    st.m.frame(&st.k1, PortVals::Shared(&st.c1.state), PortVals::Fresh)
                        .expect("scan view encodes");
                let f2 =
                    st.m.frame(
                        &st.k2,
                        PortVals::Shared(&st.c2.state),
                        PortVals::Shared(&f1.xs),
                    )
                    .expect("scan view encodes");
                let d = st.m.enc.differ(&f1.outputs, &f2.outputs);
                st.c1.xs.push(f1.xs);
                st.c1.pos.push(f1.outputs);
                st.c1.state = f1.next_state;
                st.c2.pos.push(f2.outputs);
                st.c2.state = f2.next_state;
                diff_lits.push(d);
            }

            // DIP loop at this bound. The "some frame's outputs differ"
            // constraint holds only while we hunt for discriminating
            // sequences, so it lives in a retractable scope: one clause per
            // bound instead of one dead activation clause per iteration,
            // and the solver (with everything it learnt) stays live for the
            // candidate-key extraction and the next bound.
            st.m.enc.solver.push_scope();
            st.m.enc.solver.add_scoped_clause(&diff_lits);
            loop {
                let Some(rem) = self.remaining() else {
                    return self.report(
                        AttackOutcome::Timeout,
                        bound,
                        st.m.enc.solver.stats().into(),
                    );
                };
                st.m.enc.solver.set_timeout(Some(rem));
                match self.portfolio.race_scoped(&mut st.m.enc.solver, &[]) {
                    SatResult::Unknown => {
                        return self.report(
                            AttackOutcome::Timeout,
                            bound,
                            st.m.enc.solver.stats().into(),
                        )
                    }
                    SatResult::Unsat => break, // no DIS at this bound
                    SatResult::Sat => {
                        self.iterations += 1;
                        if self.iterations > self.budget.max_iterations {
                            return self.report(
                                AttackOutcome::Timeout,
                                bound,
                                st.m.enc.solver.stats().into(),
                            );
                        }
                        let xseq: Vec<Vec<bool>> = st
                            .c1
                            .xs
                            .iter()
                            .map(|frame| st.m.enc.values(frame))
                            .collect();
                        oracle.reset();
                        let ys: Vec<Vec<bool>> = xseq.iter().map(|x| oracle.step(x)).collect();
                        self.add_dip_constraints(
                            &mut st.m,
                            &st.k1,
                            &st.k2,
                            st.secret.as_deref(),
                            &xseq,
                            &ys,
                        );
                        if self.fix_key_bits
                            && self.crunch_key_bits(&mut st.m.enc.solver, &st.k1, &mut fixed)
                        {
                            return self.report(
                                AttackOutcome::Timeout,
                                bound,
                                st.m.enc.solver.stats().into(),
                            );
                        }
                        // Consistency: does any constant key remain?
                        if self.portfolio.race(&mut st.m.enc.solver) == SatResult::Unsat {
                            return self.report(
                                AttackOutcome::Cns,
                                bound,
                                st.m.enc.solver.stats().into(),
                            );
                        }
                    }
                }
            }
            st.m.enc.solver.pop_scope();

            // No DIS at this bound: extract and verify a candidate key.
            match self.portfolio.race(&mut st.m.enc.solver) {
                SatResult::Unsat => {
                    return self.report(AttackOutcome::Cns, bound, st.m.enc.solver.stats().into())
                }
                SatResult::Unknown => {
                    return self.report(
                        AttackOutcome::Timeout,
                        bound,
                        st.m.enc.solver.stats().into(),
                    )
                }
                SatResult::Sat => {
                    let key = KeyValue::from_bits(st.m.enc.values(&st.k1));
                    if verify_candidate_key(self.locked, &key, 256, 0xd1f) {
                        return self.report(
                            AttackOutcome::KeyFound(key),
                            bound,
                            st.m.enc.solver.stats().into(),
                        );
                    }
                    if bound == self.budget.max_bound {
                        return self.report(
                            AttackOutcome::WrongKey(key),
                            bound,
                            st.m.enc.solver.stats().into(),
                        );
                    }
                    // Deepen the unrolling and keep going.
                }
            }
        }
        let stats = inc
            .as_ref()
            .map(|st| st.m.enc.solver.stats().into())
            .unwrap_or_default();
        self.report(AttackOutcome::Fail, self.budget.max_bound, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let engine = Engine::new(&lc, &budget, InitModel::Reset, true, &portfolio);
        let mut solver = Solver::new();
        solver.set_conflict_budget(budget.conflict_budget);
        let k1: Vec<Lit> = (0..4).map(|_| Lit::positive(solver.new_var())).collect();
        let mut fixed = vec![None; 4];
        let conflicts_before = solver.stats().conflicts;
        assert!(
            engine.crunch_key_bits(&mut solver, &k1, &mut fixed),
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
        let engine = Engine::new(&lc, &budget, InitModel::Reset, true, &portfolio);
        let mut solver = Solver::new();
        solver.set_conflict_budget(budget.conflict_budget);
        let k1: Vec<Lit> = (0..2).map(|_| Lit::positive(solver.new_var())).collect();
        // Force k1[0] true so the probe of !k1[0] is UNSAT and fixes a bit.
        solver.add_clause(&[k1[0]]);
        let mut fixed = vec![None; 2];
        assert!(!engine.crunch_key_bits(&mut solver, &k1, &mut fixed));
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
