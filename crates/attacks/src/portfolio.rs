//! Deterministic portfolio SAT racing — the place the SAT layer itself
//! goes multi-core.
//!
//! Each DIP/BMC query (`Portfolio::race_scoped` / [`Portfolio::race`])
//! clones the attack's live incremental solver into `k` entrants,
//! diversifies them with [`SolverConfig::portfolio`], and races the clones
//! across the scoped work-stealing [`Pool`]'s threads. The race proceeds
//! in conflict-bounded **epochs**: every entrant runs one fixed-size
//! budget slice per epoch, and among the entrants that answered inside the
//! epoch the **lowest config index wins**. An entrant may cooperatively
//! cancel only entrants *above* its own index (via the solver's [race stop
//! slot](Solver::set_race_stop), polled in the search loop), so the
//! would-be winner is never interrupted — which is exactly why the winning
//! index, its model, and therefore the whole attack trajectory are
//! **bit-identical for any thread count**, including 1. The winner's
//! solver (with everything it learnt) replaces the attack's main solver,
//! so learning persists across queries.
//!
//! A `Portfolio` only says how a query is raced; when the run ends is the
//! [`AttackBudget`](crate::AttackBudget)'s to say. Its stop flag (raised by
//! the job daemon's `CANCEL`) rides on the armed solver into every
//! entrant, which aborts at its next propagate/decide round, and the race
//! gives up after that epoch, as it does once the deadline has passed
//! ([`Solver::interrupted`] reads both).
//!
//! Determinism fine print (codified in `docs/DETERMINISM.md` at the
//! repository root): deadlines are measured on the budget's
//! [`ClockHandle`](cutelock_core::clock::ClockHandle). Under the default
//! wall clock the query-level guarantee holds as long as no deadline
//! fires mid-race — the reason the CI diffs run with generous
//! `--timeout` values. Under a virtual clock even a mid-race expiry is
//! deterministic: entrants never tick the shared clock (a cancelled
//! laggard's conflict count is scheduling-dependent); instead the race
//! credits each epoch's conflict slice once, after the epoch — a pure
//! function of the epoch index — so `golden_timeout.rs` can pin timeout
//! verdicts across thread counts.
//!
//! # Example
//!
//! ```
//! use cutelock_attacks::portfolio::Portfolio;
//! use cutelock_attacks::{run_attack, AttackSpec, AttackStrategy};
//! use cutelock_circuits::s27::s27;
//! use cutelock_core::baselines::XorLock;
//!
//! let locked = XorLock::new(4, 3).lock(&s27()).unwrap();
//! // Race 4 diversified solvers per DIP query on 2 worker threads; the
//! // result is identical to what `threads: 1` would produce.
//! let spec = AttackSpec::new(AttackStrategy::ScanSat).with_portfolio(Portfolio::new(4, 2));
//! let report = run_attack(&locked, &spec);
//! assert!(!report.outcome.defense_held() || report.iterations > 0);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cutelock_sat::{merge_exports, SatResult, ShareCap, SharedClause, Solver, SolverConfig};
use cutelock_sim::pool::Pool;

/// Default conflicts per entrant in the first race epoch; later epochs
/// double it. Small enough that easy queries (the common case in a DIP
/// loop) finish in one slice, large enough that the per-epoch barrier is
/// noise on hard ones.
pub(crate) const DEFAULT_EPOCH_BASE: u64 = 2_000;

/// Portfolio settings threaded through every attack entry point.
///
/// [`Portfolio::single`] (the [`Default`]) disables racing entirely: the
/// attack runs its one solver exactly as it did before the portfolio layer
/// existed, bit for bit.
#[derive(Debug, Clone)]
pub struct Portfolio {
    /// Diversified solver entrants raced per query (`<= 1` disables
    /// racing).
    pub k: usize,
    /// Worker threads the race fans entrants across. The answer is
    /// identical for any value; this only buys wall-clock.
    pub threads: usize,
    /// Conflicts per entrant in the first epoch slice (doubled each
    /// epoch). `DEFAULT_EPOCH_BASE` when built via the constructors.
    pub epoch_base: u64,
    /// Epoch-barrier clause sharing: when enabled, every no-winner epoch
    /// ends with each entrant exporting its best learnts
    /// ([`Solver::export_learnts`]), the sets merged in entrant-index
    /// order into one canonical batch
    /// ([`merge_exports`]), and the batch
    /// re-imported into every entrant before the next slice. Off by
    /// default — with sharing off the race is bit-identical to the
    /// pre-sharing portfolio.
    pub share: bool,
    /// Quality caps on each sharing exchange (clause length, LBD, batch
    /// size). Tuning only — never part of a result's identity, exactly
    /// like [`threads`](Portfolio::threads).
    pub share_cap: ShareCap,
    /// Deterministic totals of the sharing traffic this portfolio (and
    /// every clone of it — the ledger is shared) has generated; what the
    /// CLI's verbose output and the daemon's RESULT line report.
    pub ledger: Arc<ShareLedger>,
}

/// Running totals of a portfolio's clause-sharing traffic. Cloned
/// [`Portfolio`]s share one ledger, so an attack's per-query races all
/// accumulate into the spec the caller holds.
///
/// The totals are **deterministic** (thread-count-independent): exchanges
/// happen only in no-winner epochs, where every entrant completed its
/// full conflict slice, so each entrant's export set — and therefore
/// every count below — is a pure function of the epoch index.
#[derive(Debug, Default)]
pub struct ShareLedger {
    exported: AtomicU64,
    imported: AtomicU64,
    dup_dropped: AtomicU64,
}

impl ShareLedger {
    /// `(exported, imported, dup_dropped)` so far.
    pub(crate) fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.exported.load(Ordering::Relaxed),
            self.imported.load(Ordering::Relaxed),
            self.dup_dropped.load(Ordering::Relaxed),
        )
    }

    fn add(&self, exported: u64, imported: u64, dup_dropped: u64) {
        self.exported.fetch_add(exported, Ordering::Relaxed);
        self.imported.fetch_add(imported, Ordering::Relaxed);
        self.dup_dropped.fetch_add(dup_dropped, Ordering::Relaxed);
    }
}

impl Default for Portfolio {
    /// [`Portfolio::single`] — so `..Default::default()` struct updates
    /// inherit sane values (`epoch_base` in particular must never be 0).
    fn default() -> Self {
        Self::single()
    }
}

impl Portfolio {
    /// No racing: the attack behaves exactly as without a portfolio.
    pub fn single() -> Self {
        Self {
            k: 1,
            threads: 1,
            epoch_base: DEFAULT_EPOCH_BASE,
            share: false,
            share_cap: ShareCap::default(),
            ledger: Arc::new(ShareLedger::default()),
        }
    }

    /// Race `k` diversified entrants per query across `threads` workers.
    pub fn new(k: usize, threads: usize) -> Self {
        Self {
            k: k.max(1),
            threads: threads.max(1),
            ..Self::single()
        }
    }

    /// Enables or disables epoch-barrier clause sharing (builder style).
    pub fn with_share(mut self, share: bool) -> Self {
        self.share = share;
        self
    }

    /// `(exported, imported, dup_dropped)` clause-sharing totals across
    /// every race this portfolio (or a clone) has run.
    pub fn share_stats(&self) -> (u64, u64, u64) {
        self.ledger.snapshot()
    }

    /// Races a [`Solver::solve_scoped`] query (every open scope active)
    /// and leaves the winning entrant's state in `solver`.
    pub(crate) fn race_scoped(&self, solver: &mut Solver) -> SatResult {
        self.race_inner(solver, true)
    }

    /// Races a plain [`Solver::solve_with_assumptions`] query (open scopes
    /// *inactive*) and leaves the winning entrant's state in `solver`.
    pub fn race(&self, solver: &mut Solver) -> SatResult {
        self.race_inner(solver, false)
    }

    /// The epoch race. See the module docs for the determinism argument;
    /// in short: entrant budgets are conflict counts (pure functions of
    /// the epoch and config index), an entrant may only cancel entrants
    /// above its own index, and the lowest-index finisher of the first
    /// decisive epoch wins — so scheduling order can never change the
    /// winner or its model.
    fn race_inner(&self, solver: &mut Solver, scoped: bool) -> SatResult {
        let solve = |s: &mut Solver| {
            if scoped {
                s.solve_scoped(&[])
            } else {
                s.solve_with_assumptions(&[])
            }
        };
        if self.k <= 1 {
            return solve(solver);
        }
        let saved_budget = solver.conflict_budget();
        let ticking = solver.clock_ticking();
        // The race gives up once every entrant has spent the solver's own
        // conflict budget — the same surrender point a single solver has.
        let cap = saved_budget.unwrap_or(u64::MAX);
        let configs = SolverConfig::portfolio(self.k);
        let entrants: Vec<Mutex<Solver>> = configs
            .iter()
            .map(|cfg| {
                let mut s = solver.clone();
                s.apply_config(cfg);
                // Entrants must not tick the (shared) clock: which conflicts
                // a retired laggard got to run is scheduling-dependent, so
                // entrant ticks would leak thread timing into virtual time.
                // The race ticks once per epoch slice instead (below) —
                // a pure function of the epoch index.
                s.set_clock_ticking(false);
                Mutex::new(s)
            })
            .collect();
        let pool = Pool::new(self.threads);
        let mut spent = 0u64;
        let mut epoch = 0u32;
        loop {
            // Clamp each slice to the conflicts still unspent under the
            // cap, so the race surrenders at the same total-conflict point
            // a single solver would instead of overshooting by a slice.
            let slice = self
                .epoch_base
                .max(1)
                .saturating_mul(1 << epoch.min(16))
                .min(cap - spent);
            let flags: Vec<Arc<AtomicBool>> = (0..self.k)
                .map(|_| Arc::new(AtomicBool::new(false)))
                .collect();
            let results: Vec<SatResult> = pool.map(self.k, |i| {
                let mut s = entrants[i].lock().expect("entrant lock");
                let stagger = configs[i].conflict_stagger;
                s.set_conflict_budget(Some(slice.saturating_add(stagger).min(cap - spent)));
                // The race flag goes in the solver's second cancellation
                // slot, so the budget's stop flag the entrant cloned from
                // the main solver keeps working mid-slice.
                s.set_race_stop(Some(Arc::clone(&flags[i])));
                let r = solve(&mut s);
                if r != SatResult::Unknown {
                    // Retire only the entrants ABOVE this index: a finisher
                    // must never interrupt a lower-index entrant that would
                    // also finish, or the winner would depend on timing.
                    for f in &flags[i + 1..] {
                        f.store(true, Ordering::Relaxed);
                    }
                }
                r
            });
            // Virtual-clock accounting for the whole epoch: every entrant
            // ran (up to) one `slice`, so the race credits exactly `slice`
            // conflicts of time — deterministic because the slice sizes are
            // pure functions of the epoch index, winner or no winner.
            if ticking {
                solver.clock().tick(slice);
            }
            if let Some(w) = results.iter().position(|&r| r != SatResult::Unknown) {
                let winner = entrants.into_iter().nth(w).expect("winner index in range");
                let mut winner = winner.into_inner().expect("entrant lock");
                winner.set_conflict_budget(saved_budget);
                winner.set_race_stop(None);
                winner.set_clock_ticking(ticking);
                *solver = winner;
                return results[w];
            }
            spent = spent.saturating_add(slice);
            if spent >= cap || solver.interrupted() {
                // Out of conflicts, past the deadline, or cancelled through
                // the budget's stop flag: surrender like a single solver
                // would. `solver` keeps its pre-race state (budgets
                // untouched).
                return SatResult::Unknown;
            }
            if self.share {
                // Epoch-barrier clause exchange. This branch only runs in
                // no-winner epochs, and cancellation only flows from a
                // finisher — so no entrant was interrupted mid-slice here
                // and every export set is a pure function of the epoch
                // index. Exports are gathered in entrant-index order and
                // merged into one canonical batch, keeping the exchange —
                // and therefore the whole race — thread-count-independent
                // (DETERMINISM.md Rule 7).
                let exports: Vec<Vec<SharedClause>> = entrants
                    .iter()
                    .map(|e| {
                        e.lock()
                            .expect("entrant lock")
                            .export_learnts(self.share_cap)
                    })
                    .collect();
                let exported: u64 = exports.iter().map(|s| s.len() as u64).sum();
                let batch = merge_exports(&exports, self.share_cap);
                let (mut imported, mut dups) = (0u64, 0u64);
                for e in &entrants {
                    let (i, d) = e.lock().expect("entrant lock").import_clauses(&batch);
                    imported += i;
                    dups += d;
                }
                self.ledger.add(exported, imported, dups);
            }
            epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_sat::Lit;

    /// A PHP(n+1, n) instance loaded into a fresh solver.
    fn pigeonhole_solver(holes: usize) -> Solver {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let var: Vec<Vec<cutelock_sat::Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in &var {
            let cl: Vec<Lit> = p.iter().map(|&v| Lit::positive(v)).collect();
            s.add_clause(&cl);
        }
        for h in 0..holes {
            let column: Vec<Lit> = var.iter().map(|p| Lit::negative(p[h])).collect();
            for (i, &l1) in column.iter().enumerate() {
                for &l2 in column.iter().skip(i + 1) {
                    s.add_clause(&[l1, l2]);
                }
            }
        }
        s
    }

    #[test]
    fn race_agrees_with_single_on_verdicts() {
        for threads in [1, 2, 4] {
            let mut s = pigeonhole_solver(5);
            let p = Portfolio::new(4, threads);
            assert_eq!(p.race(&mut s), SatResult::Unsat, "{threads} threads");
        }
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
        let p = Portfolio::new(4, 2);
        assert_eq!(p.race(&mut s), SatResult::Sat);
    }

    #[test]
    fn race_model_is_thread_count_independent() {
        // The winner (and hence the adopted model) must be identical for
        // any worker count — the core determinism contract.
        let mut reference: Option<Vec<bool>> = None;
        for threads in [1, 2, 4] {
            let mut s = Solver::new();
            let vars: Vec<_> = (0..12).map(|_| s.new_var()).collect();
            for w in vars.windows(2) {
                s.add_clause(&[Lit::positive(w[0]), Lit::positive(w[1])]);
            }
            s.add_clause(&[Lit::negative(vars[0]), Lit::negative(vars[11])]);
            let p = Portfolio::new(4, threads);
            assert_eq!(p.race(&mut s), SatResult::Sat);
            let model: Vec<bool> = vars.iter().map(|&v| s.value(v) == Some(true)).collect();
            match &reference {
                None => reference = Some(model),
                Some(m) => assert_eq!(&model, m, "{threads} threads"),
            }
        }
    }

    #[test]
    fn race_respects_the_conflict_budget_cap() {
        // A hard instance with a tiny budget must surrender with Unknown,
        // and the pre-race budget must survive on the main solver.
        let mut s = pigeonhole_solver(9);
        s.set_conflict_budget(Some(50));
        let p = Portfolio {
            epoch_base: 10,
            ..Portfolio::new(3, 2)
        };
        assert_eq!(p.race(&mut s), SatResult::Unknown);
        assert_eq!(s.conflict_budget(), Some(50));
    }

    #[test]
    fn race_restores_budget_on_the_winner() {
        let mut s = pigeonhole_solver(4);
        s.set_conflict_budget(Some(400_000));
        let p = Portfolio::new(4, 2);
        assert_eq!(p.race(&mut s), SatResult::Unsat);
        assert_eq!(s.conflict_budget(), Some(400_000));
    }

    #[test]
    fn raised_stop_flag_preempts_the_race() {
        // The flag rides on the solver: every entrant clones it, aborts at
        // once, and the race gives up after the first epoch.
        let mut s = pigeonhole_solver(4);
        s.set_stop(Some(Arc::new(AtomicBool::new(true))));
        let p = Portfolio::new(4, 2);
        assert_eq!(p.race(&mut s), SatResult::Unknown);
    }

    #[test]
    fn single_portfolio_is_transparent() {
        let mut raced = pigeonhole_solver(5);
        let mut plain = pigeonhole_solver(5);
        let p = Portfolio::single();
        assert_eq!(p.race(&mut raced), plain.solve());
        assert_eq!(raced.stats().conflicts, plain.stats().conflicts);
    }

    #[test]
    fn sharing_on_a_single_portfolio_is_transparent() {
        // k <= 1 never reaches an epoch barrier: sharing must be a no-op.
        let mut raced = pigeonhole_solver(5);
        let mut plain = pigeonhole_solver(5);
        let p = Portfolio::single().with_share(true);
        assert_eq!(p.race(&mut raced), plain.solve());
        assert_eq!(raced.stats().conflicts, plain.stats().conflicts);
        assert_eq!(p.share_stats(), (0, 0, 0));
    }

    #[test]
    fn sharing_race_is_thread_count_independent() {
        // With sharing on, the adopted winner's full trajectory AND the
        // sharing ledger must be identical for any worker count — the
        // tentpole determinism contract of the clause exchange.
        let mut reference: Option<(u64, (u64, u64, u64))> = None;
        for threads in [1, 2, 4] {
            let mut s = pigeonhole_solver(6);
            // A small epoch base forces several no-winner epochs, so the
            // exchange actually fires on this instance.
            let p = Portfolio {
                epoch_base: 25,
                ..Portfolio::new(4, threads)
            }
            .with_share(true);
            assert_eq!(p.race(&mut s), SatResult::Unsat, "{threads} threads");
            let ledger = p.share_stats();
            assert!(
                ledger.0 > 0 && ledger.1 > 0,
                "sharing should fire: {ledger:?}"
            );
            let fp = (s.stats().conflicts, ledger);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(&fp, r, "{threads} threads"),
            }
        }
    }

    #[test]
    fn sharing_race_preserves_sat_verdicts_and_models() {
        let mut reference: Option<Vec<bool>> = None;
        for threads in [1, 2, 4] {
            let mut s = Solver::new();
            let vars: Vec<_> = (0..12).map(|_| s.new_var()).collect();
            for w in vars.windows(2) {
                s.add_clause(&[Lit::positive(w[0]), Lit::positive(w[1])]);
            }
            s.add_clause(&[Lit::negative(vars[0]), Lit::negative(vars[11])]);
            let p = Portfolio::new(4, threads).with_share(true);
            assert_eq!(p.race(&mut s), SatResult::Sat);
            let model: Vec<bool> = vars.iter().map(|&v| s.value(v) == Some(true)).collect();
            match &reference {
                None => reference = Some(model),
                Some(m) => assert_eq!(&model, m, "{threads} threads"),
            }
        }
    }

    #[test]
    fn sharing_ledger_accumulates_across_clones() {
        // Spec clones share one ledger, so an attack's per-query races all
        // report into the portfolio the caller holds.
        let p = Portfolio {
            epoch_base: 25,
            ..Portfolio::new(4, 2)
        }
        .with_share(true);
        let clone = p.clone();
        let mut s = pigeonhole_solver(6);
        assert_eq!(clone.race(&mut s), SatResult::Unsat);
        assert_eq!(p.share_stats(), clone.share_stats());
        assert!(p.share_stats().0 > 0);
    }
}
