//! The one DIP loop under every oracle-guided attack.
//!
//! The SAT attack, AppSAT, Double-DIP, and the unrolling attacks (`bbo`,
//! `int`, KC2, RANE) all run the same loop over a different miter:
//!
//! 1. **hunt** — with a retractable "the copies differ" constraint active,
//!    ask the solver for a discriminating input (DIP). Each DIP is
//!    [learnt](Miter::learn) as oracle constraints on every key copy; a
//!    consistency solve then checks that some constant key still explains
//!    the oracle. An inconsistent model ends the run in
//!    [`AttackOutcome::Cns`] — the dead end Cute-Lock drives attacks into;
//! 2. **extract** — once no DIP remains, pop the constraint, solve once
//!    more on the same live solver, and verify the first copy's key by
//!    simulation ([`AttackOutcome::KeyFound`] or
//!    [`AttackOutcome::WrongKey`]).
//!
//! An attack module supplies only what differs: its [`Miter`] (how the
//! copies are encoded and how one DIP becomes constraints) and the order
//! in which it calls [`Run::hunt`] and [`Run::extract`]. Every query is
//! raced through the run's [`Portfolio`], every solver is armed with the
//! run's budget by [`AttackBudget::arm`], and every [`AttackReport`] is
//! built here, so solver setup, the iteration cap and the report's
//! counters have one implementation.

use cutelock_core::clock::Instant;
use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_sat::{Lit, SatResult, Solver};

use crate::outcome::verify_candidate_key;
use crate::portfolio::Portfolio;
use crate::{AttackBudget, AttackOutcome, AttackReport, RunStats};

/// An attack's miter: the encoded copies, and how a DIP found in the
/// current model becomes oracle constraints.
pub(crate) trait Miter {
    /// The live incremental solver every query of the run goes to.
    fn solver(&mut self) -> &mut Solver;

    /// The first key copy's value in the current model.
    fn key(&self) -> KeyValue;

    /// Queries the oracle on the DIP in the current model and constrains
    /// every key copy to its answer. Returns `true` when the deadline
    /// passed mid-learn (the run then ends in a timeout).
    fn learn(&mut self, run: &Run) -> bool;

    /// Runs after each DIP whose constraints left a consistent key; a
    /// report ends the run early (AppSAT's settle step).
    fn settle(&mut self, _run: &Run) -> Option<AttackReport> {
        None
    }
}

/// One attack run: what it attacks, its limits, and its progress.
pub(crate) struct Run<'a> {
    /// The locked circuit and its oracle.
    pub(crate) locked: &'a LockedCircuit,
    /// Deadline, iteration cap, conflict cap, clock and stop flag.
    pub(crate) budget: &'a AttackBudget,
    /// How each query is raced.
    portfolio: &'a Portfolio,
    /// When the run started, on the budget's clock.
    pub(crate) start: Instant,
    /// DIPs found so far, across every hunt of the run.
    pub(crate) iterations: usize,
    /// The unrolling bound reports carry (1 for the scan attacks).
    pub(crate) bound: usize,
}

impl<'a> Run<'a> {
    /// Starts the run's clock.
    pub(crate) fn new(
        locked: &'a LockedCircuit,
        budget: &'a AttackBudget,
        portfolio: &'a Portfolio,
        bound: usize,
    ) -> Self {
        Self {
            locked,
            budget,
            portfolio,
            start: budget.start(),
            iterations: 0,
            bound,
        }
    }

    /// A report of `outcome`, carrying `solver`'s counters.
    pub(crate) fn report(&self, outcome: AttackOutcome, solver: &Solver) -> AttackReport {
        self.report_with(outcome, solver.stats().into())
    }

    /// A [`AttackOutcome::Fail`] report for a run that never reached a
    /// solver (no key inputs, no unrolling bound).
    pub(crate) fn fail(&self) -> AttackReport {
        self.report_with(AttackOutcome::Fail, RunStats::default())
    }

    fn report_with(&self, outcome: AttackOutcome, stats: RunStats) -> AttackReport {
        AttackReport {
            outcome,
            elapsed: self.budget.clock.now().duration_since(self.start),
            iterations: self.iterations,
            bound: self.bound,
            stats,
        }
    }

    /// Verifies `key` against the oracle by simulation (`seed` picks the
    /// stimulus) and reports it as found or wrong.
    pub(crate) fn judge(&self, key: KeyValue, seed: u64, solver: &Solver) -> AttackReport {
        let outcome = if verify_candidate_key(self.locked, &key, 256, seed) {
            AttackOutcome::KeyFound(key)
        } else {
            AttackOutcome::WrongKey(key)
        };
        self.report(outcome, solver)
    }

    /// Hunts DIPs while the clauses in `differ` hold, until none is left.
    /// The clauses live in a solver scope, popped on the way out so the
    /// next solve runs unconstrained by them. `Err` carries the report
    /// when the run ends inside the loop: a timeout, the iteration cap,
    /// a `CNS` proof, or a settled key.
    pub(crate) fn hunt(
        &mut self,
        m: &mut impl Miter,
        differ: &[&[Lit]],
    ) -> Result<(), AttackReport> {
        m.solver().push_scope();
        for clause in differ {
            m.solver().add_scoped_clause(clause);
        }
        loop {
            if self.budget.expired(self.start) {
                return Err(self.report(AttackOutcome::Timeout, m.solver()));
            }
            match self.portfolio.race_scoped(m.solver()) {
                SatResult::Unknown => return Err(self.report(AttackOutcome::Timeout, m.solver())),
                SatResult::Unsat => break,
                SatResult::Sat => {
                    self.iterations += 1;
                    // Past the iteration cap, or out of time mid-learn.
                    if self.iterations > self.budget.max_iterations || m.learn(self) {
                        return Err(self.report(AttackOutcome::Timeout, m.solver()));
                    }
                    // Consistency: does any constant key remain?
                    if self.portfolio.race(m.solver()) == SatResult::Unsat {
                        return Err(self.report(AttackOutcome::Cns, m.solver()));
                    }
                    if let Some(end) = m.settle(self) {
                        return Err(end);
                    }
                }
            }
        }
        m.solver().pop_scope();
        Ok(())
    }

    /// Solves for a key consistent with every oracle constraint and judges
    /// it; `seed` is the attack's verification stimulus.
    pub(crate) fn extract(&self, m: &mut impl Miter, seed: u64) -> AttackReport {
        match self.portfolio.race(m.solver()) {
            SatResult::Unsat => self.report(AttackOutcome::Cns, m.solver()),
            SatResult::Unknown => self.report(AttackOutcome::Timeout, m.solver()),
            SatResult::Sat => self.judge(m.key(), seed, m.solver()),
        }
    }
}
