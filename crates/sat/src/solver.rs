use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cutelock_core::clock::{ClockHandle, Instant};

use crate::config::{splitmix64, PolarityMode, SolverConfig};
use crate::share::{ShareCap, SharedClause};
use crate::{Lit, Var};

/// Result of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The search budget (conflict limit or deadline) was exhausted.
    Unknown,
}

/// Aggregate search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: usize,
    /// Number of problem clauses added.
    pub clauses: usize,
    /// Number of clause-database garbage collections performed.
    pub gc_runs: u64,
    /// Clauses physically reclaimed by GC: retired scoped clauses,
    /// learnts culled by database reduction, and root-satisfied clauses.
    pub gc_freed_clauses: u64,
    /// Literal slots reclaimed by GC (freed clauses plus root-falsified
    /// literals stripped from surviving clauses).
    pub gc_freed_literals: u64,
    /// Learnt clauses handed out by [`Solver::export_learnts`] (portfolio
    /// clause sharing).
    pub shared_exported: u64,
    /// Shared clauses accepted by [`Solver::import_clauses`].
    pub shared_imported: u64,
    /// Shared clauses dropped by [`Solver::import_clauses`] as duplicates
    /// of clauses already in the database.
    pub shared_dup_dropped: u64,
}

const UNDEF_CLAUSE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
    /// Literal-block distance (glue): distinct decision levels in the
    /// clause when it was learnt. 0 for problem clauses; the export
    /// quality gate for portfolio clause sharing.
    lbd: u32,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

/// A CDCL (conflict-driven clause learning) SAT solver.
///
/// Features: two-watched-literal propagation, first-UIP clause learning,
/// VSIDS variable activity with phase saving, Luby restarts, learnt-clause
/// database reduction, incremental solving under assumptions, and optional
/// conflict/time budgets so attacks can enforce the paper's timeout regime.
///
/// The solver is *incremental*: clauses may be added between
/// [`solve`](Solver::solve) calls, and
/// [`solve_with_assumptions`](Solver::solve_with_assumptions) decides the
/// formula under temporary unit assumptions without permanently asserting
/// them. On top of assumptions, activation-literal **scopes**
/// ([`push_scope`](Solver::push_scope) /
/// [`add_scoped_clause`](Solver::add_scoped_clause) /
/// [`pop_scope`](Solver::pop_scope)) make whole clause groups retractable:
/// the attack loops keep one live solver across every BMC bound and DIP
/// iteration, so learnt clauses accumulate instead of being rebuilt.
/// Popped scopes feed the clause-database garbage collector
/// (`garbage_collect`): once enough retired
/// clauses pile up, the database is compacted and every watch list rebuilt,
/// so long multi-scope runs do not drag dead clauses through propagation.
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>, // indexed by Lit::index
    assigns: Vec<i8>,           // per var: 0 undef, 1 true, -1 false
    level: Vec<u32>,
    reason: Vec<u32>, // clause index or UNDEF_CLAUSE
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    polarity: Vec<bool>,
    heap: Vec<Var>,
    heap_pos: Vec<usize>, // usize::MAX when absent
    ok: bool,
    seen: Vec<bool>,
    stats: SolverStats,
    num_learnts: usize,
    conflict_budget: Option<u64>,
    deadline: Option<Instant>,
    /// The time source deadlines are measured against — [`ClockHandle::wall`]
    /// by default, a `VirtualClock` in deterministic-timeout tests and
    /// `--virtual-clock` runs (see `cutelock_core::clock`).
    clock: ClockHandle,
    /// Whether this solver credits its conflicts to the clock
    /// ([`Clock::tick`](cutelock_core::clock::Clock::tick), one unit per
    /// conflict). Enabled by [`set_clock`](Solver::set_clock); the portfolio
    /// turns it **off** for race entrants so cancellation timing cannot
    /// perturb virtual time (the race ticks per epoch slice instead).
    clock_ticks: bool,
    /// Luby restart base multiplier (conflicts before the first restart).
    restart_base: u64,
    /// Cooperative cancellation: when the shared flag reads `true`, the
    /// search loop aborts with [`SatResult::Unknown`] at its next check.
    stop: Option<Arc<AtomicBool>>,
    /// Second cancellation slot, reserved for the portfolio race so an
    /// entrant can be retired by its race *without* masking an installed
    /// attack-level [`stop`](Solver::set_stop) flag — the search polls
    /// both.
    race_stop: Option<Arc<AtomicBool>>,
    /// Activation literals of the currently open scopes (innermost last),
    /// each with the number of clauses added while it was innermost.
    scopes: Vec<(Lit, usize)>,
    /// Estimated garbage: clauses retired by popped scopes plus learnts
    /// marked deleted, pending physical reclamation.
    garbage_estimate: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            polarity: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            ok: true,
            seen: Vec::new(),
            stats: SolverStats::default(),
            num_learnts: 0,
            conflict_budget: None,
            deadline: None,
            clock: ClockHandle::wall(),
            clock_ticks: false,
            restart_base: 100,
            stop: None,
            race_stop: None,
            scopes: Vec::new(),
            garbage_estimate: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(0);
        self.level.push(0);
        self.reason.push(UNDEF_CLAUSE);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(usize::MAX);
        self.heap_insert(v);
        v
    }

    /// Number of allocated variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnts = self.num_learnts;
        s.clauses = self
            .clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count();
        s
    }

    /// Limits the next [`solve`](Solver::solve) calls to roughly `conflicts`
    /// conflicts (`None` removes the limit).
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Aborts searches that run past `timeout` from now (`None` removes it).
    /// "Now" is read from the installed [`ClockHandle`], so under a virtual
    /// clock the deadline is a deterministic point in the search.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        let now = self.clock.now();
        self.deadline = timeout.map(|d| now + d);
    }

    /// Installs the time source deadlines are measured against and starts
    /// crediting this solver's conflicts to it (one
    /// [tick](cutelock_core::clock::Clock::tick) per conflict — a no-op on
    /// wall clocks, the advance mechanism on virtual ones). Cloned solvers
    /// share the installed clock.
    pub fn set_clock(&mut self, clock: ClockHandle) {
        self.clock = clock;
        self.clock_ticks = true;
    }

    /// The time source this solver's deadlines read.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// True when this solver credits its conflicts to the clock.
    pub fn clock_ticking(&self) -> bool {
        self.clock_ticks
    }

    /// Enables or disables per-conflict clock ticking without replacing the
    /// clock. The portfolio race disables ticking on its entrants: which
    /// conflicts a retired laggard got to is scheduling-dependent, so
    /// entrant ticks would leak thread timing into virtual time. The race
    /// advances the clock by whole epoch slices instead (pure functions of
    /// the epoch index), and re-enables ticking when it adopts a winner.
    pub fn set_clock_ticking(&mut self, ticks: bool) {
        self.clock_ticks = ticks;
    }

    /// The currently configured conflict budget (`None` = unlimited).
    ///
    /// Lets callers that temporarily tighten the budget (KC2-style key-bit
    /// probes) verify they restored it on every exit path.
    pub fn conflict_budget(&self) -> Option<u64> {
        self.conflict_budget
    }

    /// True when a deadline set by [`set_timeout`](Solver::set_timeout) has
    /// already passed — the portfolio epoch loop polls this between epochs
    /// so an expired attack budget ends the race instead of another slice.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| self.clock.now() >= d)
    }

    /// Installs (or removes) a shared cooperative-cancellation flag.
    ///
    /// The search loop polls the flag at the same cadence as the deadline —
    /// once per propagate/decide round — and aborts with
    /// [`SatResult::Unknown`] when it reads `true`. This is how a
    /// cancelled job stops its attack: flip one [`AtomicBool`] and every
    /// solver holding it stops at its next check, leaving its clause
    /// database intact. Cloned solvers share the installed flag.
    pub fn set_stop(&mut self, stop: Option<Arc<AtomicBool>>) {
        self.stop = stop;
    }

    /// The currently installed cancellation flag, if any.
    #[cfg(test)]
    pub(crate) fn stop_flag(&self) -> Option<&Arc<AtomicBool>> {
        self.stop.as_ref()
    }

    /// Installs (or removes) the *second* cancellation flag, polled
    /// alongside [`set_stop`](Solver::set_stop)'s. The portfolio race uses
    /// this slot to retire laggard entrants without masking an installed
    /// attack-level stop flag — a raced entrant aborts at its next
    /// propagate/decide round when **either** flag reads `true`.
    pub fn set_race_stop(&mut self, stop: Option<Arc<AtomicBool>>) {
        self.race_stop = stop;
    }

    fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
            || self
                .race_stop
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Applies a portfolio diversification (see [`SolverConfig`]): restart
    /// cadence, initial phases, and a seeded perturbation of the VSIDS
    /// activities (with the ordering heap rebuilt to match). The default
    /// config is a no-op, so entrant 0 of a portfolio behaves exactly like
    /// the undiversified solver. Deterministic: the same config applied to
    /// the same solver state always yields the same search.
    pub fn apply_config(&mut self, cfg: &SolverConfig) {
        self.restart_base = cfg.restart_base.max(1);
        match cfg.polarity {
            PolarityMode::Keep => {}
            PolarityMode::AllTrue => self.polarity.iter_mut().for_each(|p| *p = true),
            PolarityMode::AllFalse => self.polarity.iter_mut().for_each(|p| *p = false),
            PolarityMode::Seeded => {
                let mut s = splitmix64(cfg.var_seed ^ 0x9047_u64);
                for p in &mut self.polarity {
                    s = splitmix64(s);
                    *p = s & 1 == 1;
                }
            }
        }
        if cfg.var_seed != 0 {
            // Nudge every activity by up to half the current increment:
            // enough to reshuffle VSIDS tie-breaking (and recent-history
            // ordering) without drowning the structure already learnt.
            let inc = self.var_inc;
            let mut s = cfg.var_seed;
            for a in &mut self.activity {
                s = splitmix64(s);
                *a += inc * 0.5 * ((s >> 11) as f64 / (1u64 << 53) as f64);
            }
            self.rebuild_heap();
        }
    }

    /// Re-heapifies the branching heap after a bulk activity change.
    fn rebuild_heap(&mut self) {
        for i in (0..self.heap.len() / 2).rev() {
            self.heap_sift_down(i);
        }
    }

    // ------------------------------------------------------------------
    // Activation-literal scopes
    // ------------------------------------------------------------------

    /// Opens a retractable clause scope and returns its activation literal.
    ///
    /// Clauses added through [`add_scoped_clause`](Solver::add_scoped_clause)
    /// while the scope is open are guarded by the activation literal: they
    /// constrain the search only when the literal is assumed, which
    /// [`solve_scoped`](Solver::solve_scoped) does automatically.
    /// [`pop_scope`](Solver::pop_scope) permanently retracts them **without
    /// rebuilding the solver** — everything learnt while the scope was open
    /// (including clauses mentioning the activation literal, which become
    /// satisfied) stays valid. This is the incremental pattern the BMC/DIP
    /// attack loops lean on: the per-bound "some output differs" constraint
    /// lives in a scope, while oracle constraints are added permanently.
    ///
    /// Scopes nest; they must be popped innermost-first.
    pub fn push_scope(&mut self) -> Lit {
        let act = Lit::positive(self.new_var());
        self.scopes.push((act, 0));
        act
    }

    /// Closes the innermost scope, permanently retracting its clauses.
    ///
    /// The unit clause `!act` retires every clause the scope guarded; once
    /// enough garbage has accumulated, the clause database is physically
    /// compacted via `garbage_collect` so
    /// retired clauses stop occupying watch lists and memory.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop_scope(&mut self) {
        let (act, added) = self.scopes.pop().expect("pop_scope without an open scope");
        // The unit clause !act satisfies every clause guarded by this scope,
        // retiring them without touching the clause database structure.
        self.add_clause(&[!act]);
        self.garbage_estimate += added;
        if self.gc_worthwhile() {
            self.garbage_collect();
        }
    }

    /// True when the pending garbage justifies a full database sweep: at
    /// least 64 clauses *and* at least a quarter of the database. Small
    /// retirements (one differ-clause per DIP scope) stay lazy, so frequent
    /// tiny pops do not pay O(database) each time.
    fn gc_worthwhile(&self) -> bool {
        self.garbage_estimate >= 64 && self.garbage_estimate * 4 >= self.clauses.len()
    }

    /// Physically compacts the clause database: drops clauses satisfied at
    /// the root level (retired scoped clauses, subsumed problem clauses),
    /// drops learnts culled by database reduction, strips root-falsified
    /// literals from the survivors, and rebuilds every watch list. Counts
    /// the reclamation in [`SolverStats::gc_runs`],
    /// [`SolverStats::gc_freed_clauses`], and
    /// [`SolverStats::gc_freed_literals`].
    ///
    /// Runs automatically from [`pop_scope`](Solver::pop_scope) once enough
    /// garbage accumulates; safe to call at any time (the solver first
    /// returns to decision level 0).
    pub(crate) fn garbage_collect(&mut self) {
        self.cancel_until(0);
        if !self.ok {
            return;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        // Root-level assignments never need their reason clauses again
        // (conflict analysis only expands literals above level 0), so the
        // reasons must not outlive the compaction that invalidates them.
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var().index()] = UNDEF_CLAUSE;
        }
        let before_clauses = self.clauses.len();
        let before_lits: usize = self.clauses.iter().map(|c| c.lits.len()).sum();
        let mut kept: Vec<Clause> = Vec::with_capacity(before_clauses);
        for mut clause in self.clauses.drain(..) {
            if clause.deleted {
                continue;
            }
            if clause
                .lits
                .iter()
                .any(|&l| root_value(&self.assigns, l) == Some(true))
            {
                // Satisfied forever — this is where popped scopes' clauses
                // (guarded by a root-false activation literal) get freed.
                if clause.learnt {
                    self.num_learnts -= 1;
                }
                continue;
            }
            // Propagation closure at the root guarantees every surviving
            // clause keeps at least two unassigned literals.
            clause
                .lits
                .retain(|&l| root_value(&self.assigns, l).is_none());
            debug_assert!(clause.lits.len() >= 2);
            kept.push(clause);
        }
        self.clauses = kept;
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            self.watches[c.lits[0].index()].push(Watcher {
                cref: i as u32,
                blocker: c.lits[1],
            });
            self.watches[c.lits[1].index()].push(Watcher {
                cref: i as u32,
                blocker: c.lits[0],
            });
        }
        let after_lits: usize = self.clauses.iter().map(|c| c.lits.len()).sum();
        self.stats.gc_runs += 1;
        self.stats.gc_freed_clauses += (before_clauses - self.clauses.len()) as u64;
        self.stats.gc_freed_literals += (before_lits - after_lits) as u64;
        self.garbage_estimate = 0;
    }

    /// Number of currently open scopes.
    #[cfg(test)]
    pub(crate) fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    // ------------------------------------------------------------------
    // Portfolio clause sharing (see crate::share and DETERMINISM.md Rule 7)
    // ------------------------------------------------------------------

    /// Exports the solver's best learnt clauses for a sibling portfolio
    /// entrant, gated by `cap`: only live learnts of at most
    /// [`max_len`](crate::ShareCap::max_len) literals with LBD at most
    /// [`max_lbd`](crate::ShareCap::max_lbd) qualify, and the result is
    /// truncated to [`max_clauses`](crate::ShareCap::max_clauses) after a
    /// best-glue-first canonical sort.
    ///
    /// **Scope safety:** a clause that mentions the activation variable of
    /// any *open* scope is never exported — its meaning is relative to
    /// this solver's scope stack, and importing it into a sibling whose
    /// stack has diverged (or will pop in a different order) would be
    /// unsound. Clauses touching root-assigned variables are also skipped:
    /// their canonical form would depend on this solver's private root
    /// propagations.
    ///
    /// The output is a pure function of the solver's (deterministic)
    /// search history — clause-database index order in, canonical order
    /// out — so portfolio exchanges stay thread-count-independent.
    pub fn export_learnts(&mut self, cap: ShareCap) -> Vec<SharedClause> {
        self.cancel_until(0);
        if !self.ok {
            return Vec::new();
        }
        let open_acts: std::collections::HashSet<usize> = self
            .scopes
            .iter()
            .map(|&(act, _)| act.var().index())
            .collect();
        let mut seen: std::collections::HashSet<Vec<Lit>> = std::collections::HashSet::new();
        let mut out: Vec<SharedClause> = Vec::new();
        for c in &self.clauses {
            if !c.learnt
                || c.deleted
                || c.lits.len() < 2
                || c.lits.len() > cap.max_len
                || c.lbd > cap.max_lbd
            {
                continue;
            }
            if c.lits.iter().any(|&l| {
                open_acts.contains(&l.var().index()) || root_value(&self.assigns, l).is_some()
            }) {
                continue;
            }
            let mut lits = c.lits.clone();
            lits.sort_unstable();
            if seen.insert(lits.clone()) {
                out.push(SharedClause { lits, lbd: c.lbd });
            }
        }
        out.sort_unstable_by(|a, b| {
            (a.lbd, a.lits.len(), &a.lits).cmp(&(b.lbd, b.lits.len(), &b.lits))
        });
        out.truncate(cap.max_clauses);
        self.stats.shared_exported += out.len() as u64;
        out
    }

    /// Imports a batch of shared clauses from sibling portfolio entrants.
    /// Each clause is normalized against the root assignment exactly like
    /// [`add_clause`](Solver::add_clause) (satisfied clauses skipped,
    /// root-false literals stripped), attached as a learnt clause under
    /// its recorded LBD, and counted in
    /// [`SolverStats::shared_imported`]; clauses already present verbatim
    /// are dropped and counted in [`SolverStats::shared_dup_dropped`].
    ///
    /// After the batch the importer applies the same database-pressure
    /// valves the search loop uses: a learnt-DB reduction when imports
    /// push the database past the reduction threshold (feeding the
    /// scope-GC garbage estimate), then a physical
    /// `garbage_collect` once that estimate
    /// says a sweep is worthwhile — so repeated exchanges cannot grow the
    /// database without bound.
    ///
    /// Returns `(imported, dup_dropped)` for the caller's ledger.
    pub fn import_clauses(&mut self, batch: &[SharedClause]) -> (u64, u64) {
        self.cancel_until(0);
        if !self.ok || batch.is_empty() {
            return (0, 0);
        }
        // One canonical snapshot of the live database for duplicate
        // detection, built once per batch.
        let mut existing: std::collections::HashSet<Vec<Lit>> = self
            .clauses
            .iter()
            .filter(|c| !c.deleted)
            .map(|c| {
                let mut lits = c.lits.clone();
                lits.sort_unstable();
                lits
            })
            .collect();
        let mut imported = 0u64;
        let mut dup_dropped = 0u64;
        for shared in batch {
            if shared
                .lits
                .iter()
                .any(|l| l.var().index() >= self.num_vars())
            {
                // Foreign variable space — only possible if a caller mixes
                // unrelated solvers; refuse rather than corrupt.
                continue;
            }
            // Normalize against the root assignment, mirroring add_clause.
            let mut filtered = Vec::with_capacity(shared.lits.len());
            let mut skip = false;
            for &l in &shared.lits {
                match self.lit_value(l) {
                    Some(true) => {
                        skip = true; // already satisfied at the root
                        break;
                    }
                    Some(false) => continue,
                    None => filtered.push(l),
                }
            }
            if skip {
                continue;
            }
            match filtered.len() {
                0 => {
                    // A sibling proved a root conflict we hadn't reached.
                    self.ok = false;
                    imported += 1;
                    break;
                }
                1 => {
                    self.unchecked_enqueue(filtered[0], UNDEF_CLAUSE);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                    imported += 1;
                    if !self.ok {
                        break;
                    }
                }
                _ => {
                    if existing.insert(filtered.clone()) {
                        self.attach_clause(filtered, true, shared.lbd);
                        imported += 1;
                    } else {
                        dup_dropped += 1;
                    }
                }
            }
        }
        self.stats.shared_imported += imported;
        self.stats.shared_dup_dropped += dup_dropped;
        // The same DB-pressure valves the search loop applies: reduce_db
        // marks the worst half deleted (feeding garbage_estimate), and the
        // scope GC sweeps once the estimate crosses its threshold.
        if self.ok && self.num_learnts > 4000 + 2 * self.clauses.len() {
            self.reduce_db();
        }
        if self.ok && self.gc_worthwhile() {
            self.garbage_collect();
        }
        (imported, dup_dropped)
    }

    /// Adds a clause guarded by the innermost open scope (a plain permanent
    /// clause when no scope is open). Same return contract as
    /// [`add_clause`](Solver::add_clause).
    pub fn add_scoped_clause(&mut self, lits: &[Lit]) -> bool {
        match self.scopes.last().map(|&(act, _)| act) {
            Some(act) => {
                let mut guarded = Vec::with_capacity(lits.len() + 1);
                guarded.push(!act);
                guarded.extend_from_slice(lits);
                self.scopes.last_mut().expect("scope open").1 += 1;
                self.add_clause(&guarded)
            }
            None => self.add_clause(lits),
        }
    }

    /// Decides the formula with every open scope active, under additional
    /// temporary `assumptions`.
    pub fn solve_scoped(&mut self, assumptions: &[Lit]) -> SatResult {
        let mut all: Vec<Lit> = self.scopes.iter().map(|&(act, _)| act).collect();
        all.extend_from_slice(assumptions);
        self.solve_with_assumptions(&all)
    }

    /// Adds a clause. Returns `false` when the formula became trivially
    /// unsatisfiable (empty clause, or conflicting units at level 0).
    ///
    /// Adding a clause after a [`SatResult::Sat`] answer invalidates the
    /// model: the solver backtracks to level 0 first.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedup, drop clauses with x and !x, drop false
        // literals, detect satisfied clauses.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort();
        ls.dedup();
        let mut filtered = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology
            }
            if i > 0 && ls[i - 1] == !l {
                return true;
            }
            match self.lit_value(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => continue,   // drop falsified literal
                None => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], UNDEF_CLAUSE);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(filtered, false, 0);
                true
            }
        }
    }

    /// Current model value of `var` (valid after [`SatResult::Sat`]).
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.assigns[var.index()] {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    /// Current model value of a literal.
    pub fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var())
            .map(|b| if lit.is_positive() { b } else { !b })
    }

    /// Decides the formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides the formula under temporary unit `assumptions`.
    ///
    /// Assumptions are not asserted permanently; the solver backtracks to
    /// level 0 before returning, so further clauses can be added and other
    /// assumption sets tried — the incremental pattern the KC2-style attack
    /// depends on.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        // Drop any model left over from a previous call so the new
        // assumptions take effect from a clean root.
        self.cancel_until(0);
        if !self.ok {
            return SatResult::Unsat;
        }
        let budget_start = self.stats.conflicts;
        let mut restart_idx = 0u64;
        let result = loop {
            let limit = self.restart_base * luby(restart_idx);
            restart_idx += 1;
            match self.search(assumptions, limit, budget_start) {
                Some(r) => break r,
                None => {
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        };
        if result != SatResult::Sat {
            self.cancel_until(0);
        }
        result
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Runs CDCL until SAT/UNSAT, the per-restart conflict `limit`, the
    /// global budget, or the deadline. `None` means "restart".
    fn search(&mut self, assumptions: &[Lit], limit: u64, budget_start: u64) -> Option<SatResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.clock_ticks {
                    // One work unit per conflict: under a virtual clock this
                    // is what makes a `--timeout` deadline fire at an exact
                    // conflict count.
                    self.clock.tick(1);
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SatResult::Unsat);
                }
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict within the assumption prefix: UNSAT under
                    // these assumptions (we do not compute a core).
                    return Some(SatResult::Unsat);
                }
                let (learnt, bt_level, lbd) = self.analyze(confl);
                let bt_level = bt_level.max(assumptions.len() as u32).min(
                    // Never backtrack above an assumption that the learnt
                    // clause does not involve; clamping to assumption count
                    // keeps assumption decisions intact when possible.
                    self.decision_level() - 1,
                );
                self.cancel_until(bt_level);
                self.learn(learnt, lbd);
                self.var_decay();
                self.cla_decay();
            } else {
                if conflicts_here >= limit {
                    return None; // restart
                }
                if let Some(b) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= b {
                        return Some(SatResult::Unknown);
                    }
                }
                if let Some(dl) = self.deadline {
                    // Checking the clock is cheap relative to propagation
                    // between conflicts.
                    if self.clock.now() >= dl {
                        return Some(SatResult::Unknown);
                    }
                }
                // Cooperative cancellation (portfolio laggards, raced
                // attack strategies): polled every propagate/decide round,
                // like the deadline.
                if self.stop_requested() {
                    return Some(SatResult::Unknown);
                }
                if self.num_learnts > 4000 + 2 * self.clauses.len() {
                    self.reduce_db();
                }
                // Assumption decisions first.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        Some(true) => {
                            // Already satisfied; open an empty level so the
                            // prefix invariant (level i decided by
                            // assumption i) is preserved.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => return Some(SatResult::Unsat),
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, UNDEF_CLAUSE);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return Some(SatResult::Sat),
                    Some(v) => {
                        self.stats.decisions += 1;
                        let lit = Lit::new(v, self.polarity[v.index()]);
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(lit, UNDEF_CLAUSE);
                    }
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: u32) {
        let v = lit.var().index();
        debug_assert_eq!(self.assigns[v], 0);
        self.assigns[v] = if lit.is_positive() { 1 } else { -1 };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Take the watch list for !p; rebuild it as we go.
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                // Blocker fast path.
                if self.lit_value(w.blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                let cref = w.cref as usize;
                if self.clauses[cref].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Ensure false_lit is at position 1.
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    ws[i] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut found = false;
                {
                    let len = self.clauses[cref].lits.len();
                    for k in 2..len {
                        let lk = self.clauses[cref].lits[k];
                        if self.lit_value(lk) != Some(false) {
                            self.clauses[cref].lits.swap(1, k);
                            self.watches[lk.index()].push(Watcher {
                                cref: w.cref,
                                blocker: first,
                            });
                            found = true;
                            break;
                        }
                    }
                }
                if found {
                    ws.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == Some(false) {
                    // Conflict: restore remaining watches and bail.
                    self.watches[false_lit.index()].append(&mut ws.split_off(i));
                    // Put back what we kept so far.
                    let mut kept = ws;
                    self.watches[false_lit.index()].append(&mut kept);
                    self.qhead = self.trail.len();
                    return Some(w.cref);
                }
                self.unchecked_enqueue(first, w.cref);
                i += 1;
            }
            self.watches[false_lit.index()].append(&mut ws);
            // Note: append leaves `ws` empty; ordering within the list is
            // irrelevant for correctness.
        }
        None
    }

    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut path = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            debug_assert_ne!(confl, UNDEF_CLAUSE);
            self.bump_clause(confl as usize);
            let start = usize::from(p.is_some());
            // Iterate literals of the conflicting/reason clause.
            for k in start..self.clauses[confl as usize].lits.len() {
                let q = self.clauses[confl as usize].lits[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal on the trail to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            path -= 1;
            if path == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var().index()];
        }
        // Cheap self-subsumption minimization: drop literals whose reason
        // clause is entirely covered by the learnt clause.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.redundant(l, &learnt))
            .collect();
        let mut out = vec![learnt[0]];
        out.extend(keep);
        // Clear seen flags.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        // Compute backtrack level: second-highest level in the clause.
        let bt = if out.len() == 1 {
            0
        } else {
            // Move the max-level literal (other than UIP) to position 1.
            let mut max_i = 1;
            for i in 2..out.len() {
                if self.level[out[i].var().index()] > self.level[out[max_i].var().index()] {
                    max_i = i;
                }
            }
            out.swap(1, max_i);
            self.level[out[1].var().index()]
        };
        // LBD (glue): distinct decision levels among the clause's literals,
        // measured before backtracking while every level is still current.
        // The portfolio's export cap filters on it.
        let mut levels: Vec<u32> = out.iter().map(|&l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        (out, bt, levels.len() as u32)
    }

    /// True when `l`'s reason clause contains only literals already in the
    /// learnt clause (marked seen) or assigned at level 0.
    fn redundant(&self, l: Lit, _learnt: &[Lit]) -> bool {
        let r = self.reason[l.var().index()];
        if r == UNDEF_CLAUSE {
            return false;
        }
        self.clauses[r as usize].lits.iter().all(|&q| {
            q.var() == l.var() || self.seen[q.var().index()] || self.level[q.var().index()] == 0
        })
    }

    fn learn(&mut self, learnt: Vec<Lit>, lbd: u32) {
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], UNDEF_CLAUSE);
        } else {
            let first = learnt[0];
            let cref = self.attach_clause(learnt, true, lbd);
            self.unchecked_enqueue(first, cref);
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        self.watches[lits[0].index()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].index()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: if learnt { self.cla_inc } else { 0.0 },
            lbd,
        });
        if learnt {
            self.num_learnts += 1;
        } else {
            self.stats.clauses += 1;
        }
        cref
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let until = self.trail_lim[level as usize];
        for i in (until..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.index()] = 0;
            self.polarity[v.index()] = self.trail[i].is_positive();
            self.reason[v.index()] = UNDEF_CLAUSE;
            if self.heap_pos[v.index()] == usize::MAX {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(until);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn reduce_db(&mut self) {
        // Collect learnt clause indices not currently used as reasons.
        let locked: std::collections::HashSet<u32> = self
            .trail
            .iter()
            .map(|l| self.reason[l.var().index()])
            .filter(|&r| r != UNDEF_CLAUSE)
            .collect();
        let mut learnt_idx: Vec<usize> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                c.learnt && !c.deleted && c.lits.len() > 2 && !locked.contains(&(*i as u32))
            })
            .map(|(i, _)| i)
            .collect();
        learnt_idx.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let kill = learnt_idx.len() / 2;
        for &i in &learnt_idx[..kill] {
            self.clauses[i].deleted = true;
            self.num_learnts -= 1;
        }
        // Deleted clauses are pruned lazily from watch lists in propagate()
        // and freed for good by the next garbage_collect().
        self.garbage_estimate += kill;
    }

    // ------------------------------------------------------------------
    // VSIDS
    // ------------------------------------------------------------------

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v.index()] != usize::MAX {
            self.heap_sift_up(self.heap_pos[v.index()]);
        }
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn bump_clause(&mut self, c: usize) {
        if !self.clauses[c].learnt {
            return;
        }
        self.clauses[c].activity += self.cla_inc;
        if self.clauses[c].activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn cla_decay(&mut self) {
        self.cla_inc /= 0.999;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == 0 {
                return Some(v);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Activity-ordered binary max-heap.
    // ------------------------------------------------------------------

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        debug_assert_eq!(self.heap_pos[v.index()], usize::MAX);
        self.heap.push(v);
        self.heap_pos[v.index()] = self.heap.len() - 1;
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = usize::MAX;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = i;
        self.heap_pos[self.heap[j].index()] = j;
    }
}

/// Value of `lit` looking only at the assignment array — usable while the
/// clause database is mid-compaction and `self` is partially borrowed.
fn root_value(assigns: &[i8], lit: Lit) -> Option<bool> {
    match assigns[lit.var().index()] {
        1 => Some(lit.is_positive()),
        -1 => Some(!lit.is_positive()),
        _ => None,
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, …
fn luby(mut i: u64) -> u64 {
    // Find the subsequence containing index i.
    let mut size = 1u64;
    let mut seq = 0u64;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: i32) -> Lit {
        let v = solver_vars[(i.unsigned_abs() as usize) - 1];
        Lit::new(v, i > 0)
    }

    fn solve_clauses(n: usize, clauses: &[&[i32]]) -> (SatResult, Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for c in clauses {
            let cl: Vec<Lit> = c.iter().map(|&i| lit(&vars, i)).collect();
            s.add_clause(&cl);
        }
        let r = s.solve();
        (r, s, vars)
    }

    #[test]
    fn trivial_sat() {
        let (r, s, vars) = solve_clauses(2, &[&[1, 2], &[-1]]);
        assert_eq!(r, SatResult::Sat);
        assert_eq!(s.value(vars[0]), Some(false));
        assert_eq!(s.value(vars[1]), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let (r, _, _) = solve_clauses(1, &[&[1], &[-1]]);
        assert_eq!(r, SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn xor_chain_sat() {
        // x1 ^ x2 = 1 encoded in CNF; satisfiable.
        let (r, s, vars) = solve_clauses(2, &[&[1, 2], &[-1, -2]]);
        assert_eq!(r, SatResult::Sat);
        let m = (
            s.value(vars[0]).expect("assigned"),
            s.value(vars[1]).expect("assigned"),
        );
        assert!(m.0 != m.1);
    }

    /// Pigeonhole principle PHP(n+1, n) is UNSAT and exercises learning.
    fn pigeonhole(holes: usize) -> (SatResult, u64) {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let mut var = vec![vec![Var(0); holes]; pigeons];
        for p in var.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        // Every pigeon is in some hole.
        for p in &var {
            let cl: Vec<Lit> = p.iter().map(|&v| Lit::positive(v)).collect();
            s.add_clause(&cl);
        }
        // No two pigeons share a hole.
        for h in 0..holes {
            let column: Vec<Lit> = var.iter().map(|p| Lit::negative(p[h])).collect();
            for (i, &l1) in column.iter().enumerate() {
                for &l2 in column.iter().skip(i + 1) {
                    s.add_clause(&[l1, l2]);
                }
            }
        }
        let r = s.solve();
        (r, s.stats().conflicts)
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=6 {
            let (r, _) = pigeonhole(holes);
            assert_eq!(r, SatResult::Unsat, "PHP({}, {holes})", holes + 1);
        }
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
        // Under assumption !a & !b: UNSAT.
        assert_eq!(
            s.solve_with_assumptions(&[Lit::negative(a), Lit::negative(b)]),
            SatResult::Unsat
        );
        // Without assumptions, still SAT.
        assert_eq!(s.solve(), SatResult::Sat);
        // Under a single assumption, the other var is forced.
        assert_eq!(
            s.solve_with_assumptions(&[Lit::negative(a)]),
            SatResult::Sat
        );
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn repeated_assumption_solves_respect_new_assumptions() {
        // Regression: a second solve_with_assumptions on the same solver
        // must not return the previous model.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
        assert_eq!(
            s.solve_with_assumptions(&[Lit::positive(a)]),
            SatResult::Sat
        );
        assert_eq!(s.value(a), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[Lit::negative(a)]),
            SatResult::Sat
        );
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::positive(vars[0]), Lit::positive(vars[1])]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[Lit::negative(vars[0])]);
        s.add_clause(&[Lit::negative(vars[1])]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard instance with a tiny budget must return Unknown.
        let pigeons = 9;
        let holes = 8;
        let mut s = Solver::new();
        let mut var = vec![vec![Var(0); holes]; pigeons];
        for p in var.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
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
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), SatResult::Unknown);
        s.set_conflict_budget(None);
    }

    #[test]
    fn scoped_clauses_bind_only_while_scope_is_active() {
        let mut s = Solver::new();
        let a = s.new_var();
        let scope = s.push_scope();
        assert_eq!(s.scope_depth(), 1);
        // In scope: a must be true.
        s.add_scoped_clause(&[Lit::positive(a)]);
        assert_eq!(s.solve_scoped(&[]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        // The scoped clause is retractable: assuming !a with the scope
        // inactive is still satisfiable.
        assert_eq!(
            s.solve_with_assumptions(&[Lit::negative(a)]),
            SatResult::Sat
        );
        assert_eq!(s.lit_value(scope), Some(false));
        // In scope, !a is contradictory.
        assert_eq!(s.solve_scoped(&[Lit::negative(a)]), SatResult::Unsat);
        s.pop_scope();
        assert_eq!(s.scope_depth(), 0);
        // After pop the clause is gone for good.
        s.add_clause(&[Lit::negative(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(false));
    }

    #[test]
    fn scopes_nest_and_retract_independently() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.push_scope();
        s.add_scoped_clause(&[Lit::positive(a)]);
        s.push_scope();
        s.add_scoped_clause(&[Lit::positive(b)]);
        assert_eq!(s.solve_scoped(&[]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(true));
        // Popping the inner scope keeps the outer constraint live.
        s.pop_scope();
        assert_eq!(s.solve_scoped(&[Lit::negative(b)]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.solve_scoped(&[Lit::negative(a)]), SatResult::Unsat);
        s.pop_scope();
        assert_eq!(
            s.solve_with_assumptions(&[Lit::negative(a)]),
            SatResult::Sat
        );
    }

    #[test]
    fn scoped_clause_without_scope_is_permanent() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_scoped_clause(&[Lit::positive(a)]);
        assert_eq!(
            s.solve_with_assumptions(&[Lit::negative(a)]),
            SatResult::Unsat
        );
    }

    #[test]
    fn learnt_clauses_survive_scope_retraction() {
        // Solve a hard-ish instance inside a scope, pop it, and confirm the
        // solver keeps functioning with its accumulated state.
        let holes = 5;
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let mut var = vec![vec![Var(0); holes]; pigeons];
        for p in var.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        s.push_scope();
        for p in &var {
            let cl: Vec<Lit> = p.iter().map(|&v| Lit::positive(v)).collect();
            s.add_scoped_clause(&cl);
        }
        for h in 0..holes {
            let column: Vec<Lit> = var.iter().map(|p| Lit::negative(p[h])).collect();
            for (i, &l1) in column.iter().enumerate() {
                for &l2 in column.iter().skip(i + 1) {
                    s.add_scoped_clause(&[l1, l2]);
                }
            }
        }
        assert_eq!(s.solve_scoped(&[]), SatResult::Unsat);
        let learnt_before = s.stats().conflicts;
        assert!(learnt_before > 0, "PHP should conflict");
        s.pop_scope();
        // The contradiction lived in the scope: the formula is SAT again,
        // and fresh permanent clauses still work.
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[Lit::positive(var[0][0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(var[0][0]), Some(true));
    }

    /// A scope loaded with every pairwise clause over `n` fresh variables —
    /// enough garbage to trip the automatic GC threshold on pop.
    fn load_big_scope(s: &mut Solver, n: usize) -> (Vec<Var>, usize) {
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        s.push_scope();
        let mut added = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                s.add_scoped_clause(&[Lit::positive(vars[i]), Lit::positive(vars[j])]);
                added += 1;
            }
        }
        (vars, added)
    }

    #[test]
    fn pop_scope_garbage_collects_retired_clauses() {
        let mut s = Solver::new();
        let (vars, added) = load_big_scope(&mut s, 40);
        assert_eq!(s.solve_scoped(&[]), SatResult::Sat);
        assert_eq!(s.stats().gc_runs, 0);
        let db_before = s.stats().clauses;
        assert!(db_before >= added, "scoped clauses live in the database");
        s.pop_scope();
        let st = s.stats();
        assert_eq!(st.gc_runs, 1, "big pop must trigger a collection");
        assert!(
            st.gc_freed_clauses >= added as u64,
            "retired scoped clauses reclaimed: freed {} of {added}",
            st.gc_freed_clauses
        );
        assert!(st.gc_freed_literals >= 2 * added as u64);
        assert_eq!(st.clauses, 0, "database is empty after reclamation");
        // The solver keeps functioning on fresh permanent clauses.
        s.add_clause(&[Lit::negative(vars[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(vars[0]), Some(false));
    }

    #[test]
    fn small_pops_stay_lazy_but_forced_gc_reclaims() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.push_scope();
        s.add_scoped_clause(&[Lit::positive(a)]);
        s.pop_scope();
        // One retired clause is below the sweep threshold…
        assert_eq!(s.stats().gc_runs, 0);
        assert_eq!(s.stats().clauses, 1, "retired clause still parked");
        // …but a forced collection frees it.
        s.garbage_collect();
        let st = s.stats();
        assert_eq!(st.gc_runs, 1);
        assert_eq!(st.gc_freed_clauses, 1);
        assert_eq!(st.clauses, 0);
    }

    #[test]
    fn gc_preserves_answers_across_scopes() {
        // Solve PHP in a scope (hard, UNSAT), pop + collect, then solve an
        // easy formula over the same variables: results must stay sound.
        let holes = 5;
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let mut var = vec![vec![Var(0); holes]; pigeons];
        for p in var.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        s.push_scope();
        for p in &var {
            let cl: Vec<Lit> = p.iter().map(|&v| Lit::positive(v)).collect();
            s.add_scoped_clause(&cl);
        }
        for h in 0..holes {
            let column: Vec<Lit> = var.iter().map(|p| Lit::negative(p[h])).collect();
            for (i, &l1) in column.iter().enumerate() {
                for &l2 in column.iter().skip(i + 1) {
                    s.add_scoped_clause(&[l1, l2]);
                }
            }
        }
        assert_eq!(s.solve_scoped(&[]), SatResult::Unsat);
        s.pop_scope();
        s.garbage_collect();
        assert!(s.stats().gc_freed_clauses > 0);
        // Learnt clauses that outlived the scope are still sound: the
        // formula without the scope is SAT, and units still propagate.
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[Lit::positive(var[0][0])]);
        s.add_clause(&[Lit::negative(var[0][0]), Lit::positive(var[1][1])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(var[0][0]), Some(true));
        assert_eq!(s.value(var[1][1]), Some(true));
    }

    #[test]
    fn gc_strips_root_falsified_literals() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[Lit::positive(a), Lit::positive(b), Lit::positive(c)]);
        s.add_clause(&[Lit::negative(a)]); // root unit: a = false
        s.garbage_collect();
        let st = s.stats();
        // The ternary clause shrank to (b | c): one literal slot freed, no
        // clause freed.
        assert_eq!(st.gc_freed_clauses, 0);
        assert_eq!(st.gc_freed_literals, 1);
        assert_eq!(st.clauses, 1);
        s.add_clause(&[Lit::negative(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(c), Some(true));
    }

    #[test]
    fn conflict_budget_getter_reflects_setting() {
        let mut s = Solver::new();
        assert_eq!(s.conflict_budget(), None);
        s.set_conflict_budget(Some(42));
        assert_eq!(s.conflict_budget(), Some(42));
        s.set_conflict_budget(None);
        assert_eq!(s.conflict_budget(), None);
    }

    #[test]
    fn stop_flag_aborts_with_unknown() {
        // A pre-set stop flag must abort a hard instance immediately; after
        // clearing the flag the same solver finishes the proof.
        let holes = 7;
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let mut var = vec![vec![Var(0); holes]; pigeons];
        for p in var.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
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
        let flag = Arc::new(AtomicBool::new(true));
        s.set_stop(Some(Arc::clone(&flag)));
        assert_eq!(s.solve(), SatResult::Unknown);
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SatResult::Unsat);
        s.set_stop(None);
        assert!(s.stop_flag().is_none());
    }

    #[test]
    fn either_cancellation_slot_aborts_the_search() {
        // The attack-level flag must keep working while a race flag is
        // installed in the second slot, and vice versa.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
        let outer = Arc::new(AtomicBool::new(false));
        let race = Arc::new(AtomicBool::new(false));
        s.set_stop(Some(Arc::clone(&outer)));
        s.set_race_stop(Some(Arc::clone(&race)));
        assert_eq!(s.solve(), SatResult::Sat, "both flags low: solves");
        outer.store(true, Ordering::Relaxed);
        assert_eq!(s.solve(), SatResult::Unknown, "outer flag alone aborts");
        outer.store(false, Ordering::Relaxed);
        race.store(true, Ordering::Relaxed);
        assert_eq!(s.solve(), SatResult::Unknown, "race flag alone aborts");
        s.set_race_stop(None);
        assert_eq!(s.solve(), SatResult::Sat, "cleared race slot solves again");
    }

    #[test]
    fn cloned_solvers_share_the_stop_flag() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::positive(a)]);
        let flag = Arc::new(AtomicBool::new(false));
        s.set_stop(Some(Arc::clone(&flag)));
        let clone = s.clone();
        assert!(Arc::ptr_eq(clone.stop_flag().expect("flag cloned"), &flag));
    }

    #[test]
    fn default_config_is_a_no_op() {
        // Applying the default config must not disturb the search: the
        // model of a deterministic instance stays identical.
        let build = || {
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
            s.add_clause(&[Lit::positive(vars[0]), Lit::positive(vars[1])]);
            s.add_clause(&[Lit::negative(vars[0]), Lit::positive(vars[2])]);
            s.add_clause(&[Lit::negative(vars[3]), Lit::negative(vars[4])]);
            (s, vars)
        };
        let (mut plain, vars) = build();
        assert_eq!(plain.solve(), SatResult::Sat);
        let plain_model: Vec<_> = vars.iter().map(|&v| plain.value(v)).collect();
        let (mut configured, vars2) = build();
        configured.apply_config(&SolverConfig::default());
        assert_eq!(configured.solve(), SatResult::Sat);
        let conf_model: Vec<_> = vars2.iter().map(|&v| configured.value(v)).collect();
        assert_eq!(plain_model, conf_model);
        assert_eq!(plain.stats().decisions, configured.stats().decisions);
    }

    #[test]
    fn diversified_configs_stay_sound() {
        // Every member of the standard family must agree with the plain
        // solver on verdicts (models may differ — that is the point).
        for i in 0..6 {
            let cfg = SolverConfig::diversified(i);
            let r = {
                let mut s = Solver::new();
                let vars: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
                s.apply_config(&cfg);
                s.add_clause(&[Lit::positive(vars[0]), Lit::positive(vars[1])]);
                s.add_clause(&[Lit::negative(vars[0])]);
                s.add_clause(&[Lit::negative(vars[1]), Lit::positive(vars[2])]);
                s.solve()
            };
            assert_eq!(r, SatResult::Sat, "config {i}");
            // UNSAT side: PHP(5, 4) must stay a proof under the perturbed
            // heuristics — the config is applied to THIS solver, not a
            // fresh one.
            let holes = 4;
            let mut s = Solver::new();
            let var: Vec<Vec<Var>> = (0..holes + 1)
                .map(|_| (0..holes).map(|_| s.new_var()).collect())
                .collect();
            for p in &var {
                let cl: Vec<Lit> = p.iter().map(|&v| Lit::positive(v)).collect();
                s.add_clause(&cl);
            }
            for h in 0..holes {
                let column: Vec<Lit> = var.iter().map(|p| Lit::negative(p[h])).collect();
                for (j, &l1) in column.iter().enumerate() {
                    for &l2 in column.iter().skip(j + 1) {
                        s.add_clause(&[l1, l2]);
                    }
                }
            }
            s.apply_config(&cfg);
            assert_eq!(s.solve(), SatResult::Unsat, "config {i} pigeonhole");
        }
    }

    #[test]
    fn seeded_polarity_differs_from_keep() {
        let mut s = Solver::new();
        for _ in 0..64 {
            s.new_var();
        }
        let before: Vec<bool> = (0..64).map(|i| s.polarity[i]).collect();
        s.apply_config(&SolverConfig {
            var_seed: 42,
            polarity: PolarityMode::Seeded,
            restart_base: 100,
            conflict_stagger: 0,
        });
        let after: Vec<bool> = (0..64).map(|i| s.polarity[i]).collect();
        assert_ne!(before, after, "64 seeded phases should not all match");
        assert!(after.iter().any(|&p| p) && after.iter().any(|&p| !p));
    }

    #[test]
    fn deadline_expired_tracks_set_timeout() {
        let mut s = Solver::new();
        assert!(!s.deadline_expired());
        s.set_timeout(Some(Duration::ZERO));
        assert!(s.deadline_expired());
        s.set_timeout(None);
        assert!(!s.deadline_expired());
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::positive(a), Lit::negative(a)]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::positive(a), Lit::positive(a)]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn stats_accumulate() {
        let (_, s, _) = solve_clauses(3, &[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3]]);
        let st = s.stats();
        assert!(st.clauses >= 3);
    }

    /// Brute-force reference check on small random 3-SAT instances.
    #[test]
    fn agrees_with_brute_force() {
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..60 {
            let n = 4 + (next() % 6) as usize; // 4..=9 vars
            let m = n * 4;
            let mut clauses: Vec<Vec<i32>> = Vec::new();
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % n as u64) as i32 + 1;
                    let s = if next() & 1 == 0 { v } else { -v };
                    c.push(s);
                }
                clauses.push(c);
            }
            // Brute force.
            let mut any = false;
            'outer: for m_bits in 0..(1u32 << n) {
                for c in &clauses {
                    let sat = c.iter().any(|&l| {
                        let v = l.unsigned_abs() as usize - 1;
                        let val = m_bits >> v & 1 == 1;
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    });
                    if !sat {
                        continue 'outer;
                    }
                }
                any = true;
                break;
            }
            let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
            let (r, s, vars) = solve_clauses(n, &refs);
            let expect = if any {
                SatResult::Sat
            } else {
                SatResult::Unsat
            };
            assert_eq!(r, expect, "round {round}: {clauses:?}");
            if r == SatResult::Sat {
                // Verify the model actually satisfies the clauses.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| {
                            let val = s
                                .value(vars[l.unsigned_abs() as usize - 1])
                                .unwrap_or(false);
                            if l > 0 {
                                val
                            } else {
                                !val
                            }
                        }),
                        "model violates {c:?}"
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Clause sharing (export_learnts / import_clauses)
    // ------------------------------------------------------------------

    /// A PHP(holes+1, holes) instance loaded as permanent clauses.
    fn php_solver(holes: usize) -> Solver {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let var: Vec<Vec<Var>> = (0..pigeons)
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
    fn export_respects_caps_and_canonical_order() {
        let mut s = php_solver(7);
        s.set_conflict_budget(Some(400));
        assert_eq!(s.solve(), SatResult::Unknown);
        // PHP learnts are long and high-glue; a widened cap still exercises
        // the gates while leaving something to export.
        let cap = ShareCap::with_limit(24);
        let exported = s.export_learnts(cap);
        assert!(!exported.is_empty(), "a budgeted PHP run learns clauses");
        for c in &exported {
            assert!(c.lits.len() >= 2 && c.lits.len() <= cap.max_len);
            assert!(c.lbd <= cap.max_lbd);
            assert!(c.lits.windows(2).all(|w| w[0] < w[1]), "lits sorted");
        }
        assert!(
            exported
                .windows(2)
                .all(|w| (w[0].lbd, w[0].lits.len(), &w[0].lits)
                    <= (w[1].lbd, w[1].lits.len(), &w[1].lits)),
            "batch in canonical order"
        );
        assert!(exported.len() <= cap.max_clauses);
        assert_eq!(s.stats().shared_exported, exported.len() as u64);
    }

    #[test]
    fn export_never_leaks_open_scope_clauses() {
        // Load the contradiction inside a scope: learnt clauses that pin
        // the scope's activation variable must stay private.
        let mut s = Solver::new();
        let act_var_index = s.num_vars(); // push_scope allocates it next
        s.push_scope();
        let holes = 5;
        let pigeons = holes + 1;
        let var: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in &var {
            let cl: Vec<Lit> = p.iter().map(|&v| Lit::positive(v)).collect();
            s.add_scoped_clause(&cl);
        }
        for h in 0..holes {
            let column: Vec<Lit> = var.iter().map(|p| Lit::negative(p[h])).collect();
            for (i, &l1) in column.iter().enumerate() {
                for &l2 in column.iter().skip(i + 1) {
                    s.add_scoped_clause(&[l1, l2]);
                }
            }
        }
        s.set_conflict_budget(Some(200));
        let _ = s.solve_scoped(&[]);
        let exported = s.export_learnts(ShareCap {
            max_len: 64,
            max_lbd: 1000,
            max_clauses: 100_000,
        });
        assert!(
            exported
                .iter()
                .all(|c| c.lits.iter().all(|l| l.var().index() != act_var_index)),
            "exported clause mentions an open scope's activation variable"
        );
    }

    #[test]
    fn import_attaches_dedups_and_stays_sound() {
        // Learn on one entrant, import into a fresh clone of the same
        // formula: the verdict must be unchanged and re-imports must be
        // recognized as duplicates.
        let mut teacher = php_solver(6);
        teacher.set_conflict_budget(Some(600));
        assert_eq!(teacher.solve(), SatResult::Unknown);
        let batch = teacher.export_learnts(ShareCap::default());
        assert!(!batch.is_empty());

        let mut student = php_solver(6);
        let (imported, dups) = student.import_clauses(&batch);
        assert_eq!(imported + dups, batch.len() as u64);
        assert!(imported > 0, "fresh student should accept shared clauses");
        let (again_imported, again_dups) = student.import_clauses(&batch);
        assert_eq!(again_imported, 0, "second import is all duplicates");
        assert!(again_dups > 0);
        let st = student.stats();
        assert_eq!(st.shared_imported, imported);
        assert_eq!(st.shared_dup_dropped, dups + again_dups);
        // Shared clauses from the same formula are implied: PHP stays
        // unsatisfiable.
        student.set_conflict_budget(None);
        assert_eq!(student.solve(), SatResult::Unsat);
    }

    #[test]
    fn import_unit_propagates_at_the_root() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::negative(a), Lit::positive(b)]);
        let unit = SharedClause {
            lits: vec![Lit::positive(a)],
            lbd: 1,
        };
        let (imported, _) = s.import_clauses(&[unit]);
        assert_eq!(imported, 1);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(true));
    }
}
