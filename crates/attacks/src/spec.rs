//! The unified attack-request API: one spec type, one entry point.
//!
//! [`AttackSpec`] names the [`AttackStrategy`], carries the
//! [`AttackBudget`], and carries the [`Portfolio`], and [`run_attack`] is
//! the **one door** every caller — the CLI, the table bins, the job
//! daemon, the goldens — drives an attack through. The `LockedCircuit`
//! argument bundles the locked netlist with its oracle (the original), so
//! a spec plus a circuit fully determines a run.
//!
//! Two attacks keep a public function of their own because they return
//! more than an [`AttackReport`]: [`fall_attack_with`] (its confirmed key
//! list) and [`dana_attack_with_budget`](crate::dana::dana_attack_with_budget)
//! (register clustering, not a spec strategy).
//!
//! # Example
//!
//! ```
//! use cutelock_attacks::{run_attack, AttackSpec, AttackStrategy};
//! use cutelock_circuits::s27::s27;
//! use cutelock_core::baselines::XorLock;
//!
//! let locked = XorLock::new(4, 3).lock(&s27()).unwrap();
//! let spec = AttackSpec::new(AttackStrategy::ScanSat);
//! let report = run_attack(&locked, &spec);
//! assert!(!report.outcome.defense_held(), "XOR locks fall to the SAT attack");
//! ```

use cutelock_core::LockedCircuit;

use crate::appsat::{appsat_attack_with, double_dip_attack_with, AppSatConfig};
use crate::bmc::bmc_attack_with;
use crate::fall::fall_attack_with;
use crate::kc2::kc2_attack_with;
use crate::portfolio::Portfolio;
use crate::rane::rane_attack_with;
use crate::sat_attack::scan_sat_attack_with;
use crate::{AttackBudget, AttackOutcome, AttackReport};

/// Every attack the unified entry point can run, by CLI/table name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AttackStrategy {
    /// The combinational oracle-guided SAT attack through the scan view
    /// (`sat`).
    ScanSat,
    /// Sequential unrolling, NEOS `bbo` mode (`bbo`).
    Bbo,
    /// Sequential unrolling, NEOS `int` mode (`int`).
    Int,
    /// Key-condition crunching (`kc2`).
    Kc2,
    /// The RANE model: secret initial state (`rane`).
    Rane,
    /// AppSAT approximate attack with the default settle policy
    /// (`appsat`).
    AppSat,
    /// Double-DIP: two wrong keys eliminated per iteration
    /// (`double-dip`).
    DoubleDip,
    /// FALL: structural comparator analysis plus SAT confirmation
    /// (`fall`).
    Fall,
}

impl AttackStrategy {
    /// Every strategy, in canonical (CLI help) order.
    pub const ALL: [AttackStrategy; 8] = [
        AttackStrategy::ScanSat,
        AttackStrategy::Bbo,
        AttackStrategy::Int,
        AttackStrategy::Kc2,
        AttackStrategy::Rane,
        AttackStrategy::AppSat,
        AttackStrategy::DoubleDip,
        AttackStrategy::Fall,
    ];

    /// The CLI/table/wire name of this strategy.
    pub fn name(self) -> &'static str {
        match self {
            AttackStrategy::ScanSat => "sat",
            AttackStrategy::Bbo => "bbo",
            AttackStrategy::Int => "int",
            AttackStrategy::Kc2 => "kc2",
            AttackStrategy::Rane => "rane",
            AttackStrategy::AppSat => "appsat",
            AttackStrategy::DoubleDip => "double-dip",
            AttackStrategy::Fall => "fall",
        }
    }

    /// Parses a CLI/wire mode name (the inverse of
    /// [`AttackStrategy::name`]).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for AttackStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete attack request: which attack, under what budget, raced how.
///
/// This is the request type shared by the CLI subcommands, the table
/// bins, and the `cutelock serve` job daemon — see [`run_attack`].
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// The attack to run.
    pub strategy: AttackStrategy,
    /// Search budget (wall-clock, bound, iterations, conflicts, stop flag).
    pub budget: AttackBudget,
    /// Query-level portfolio settings ([`Portfolio::single`] disables
    /// racing).
    pub portfolio: Portfolio,
    /// Run the netlist simplification engine
    /// ([`cutelock_netlist::simplify()`], state-preserving configuration)
    /// over both the locked netlist and the oracle before attacking.
    ///
    /// Defaults **on** everywhere ([`AttackSpec::new`], the CLI, the table
    /// bins, the daemon); `with_simplify(false)` runs the raw netlists.
    /// Ignored by [`AttackStrategy::Fall`] (its comparator analysis reads
    /// the locked structure as-built).
    pub simplify: bool,
}

impl AttackSpec {
    /// A spec with the default budget, no portfolio racing, and
    /// simplification on.
    pub fn new(strategy: AttackStrategy) -> Self {
        Self {
            strategy,
            budget: AttackBudget::default(),
            portfolio: Portfolio::single(),
            simplify: true,
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: AttackBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the portfolio.
    pub fn with_portfolio(mut self, portfolio: Portfolio) -> Self {
        self.portfolio = portfolio;
        self
    }

    /// Sets the simplification switch.
    pub fn with_simplify(mut self, simplify: bool) -> Self {
        self.simplify = simplify;
        self
    }

    /// True when the report's verdict is *decisive*: a verified key (the
    /// lock is broken) or a CNS proof (no constant key exists for this
    /// model). A refuted key, a FAIL, or a timeout settles nothing —
    /// the CLI maps decisive to exit 0 and everything else to exit 2.
    pub fn is_decisive(outcome: &AttackOutcome) -> bool {
        matches!(outcome, AttackOutcome::KeyFound(_) | AttackOutcome::Cns)
    }
}

/// Runs the attack a spec describes against a locked circuit (which
/// bundles its own oracle netlist) — the single entry point behind the
/// CLI `attack` subcommand, the table bins, and the job daemon.
///
/// Oracle-guided strategies return the familiar [`AttackReport`];
/// [`AttackStrategy::Fall`] reports its candidate count in
/// [`AttackReport::iterations`] (use [`fall_attack_with`] when the
/// confirmed key list itself is needed).
pub fn run_attack(locked: &LockedCircuit, spec: &AttackSpec) -> AttackReport {
    let prepared;
    let locked = if spec.simplify && spec.strategy != AttackStrategy::Fall {
        prepared = simplify_locked(locked);
        &prepared
    } else {
        locked
    };
    let (budget, p) = (&spec.budget, &spec.portfolio);
    match spec.strategy {
        AttackStrategy::ScanSat => scan_sat_attack_with(locked, budget, p),
        AttackStrategy::Bbo | AttackStrategy::Int => bmc_attack_with(locked, budget, p),
        AttackStrategy::Kc2 => kc2_attack_with(locked, budget, p),
        AttackStrategy::Rane => rane_attack_with(locked, budget, p),
        AttackStrategy::AppSat => appsat_attack_with(locked, budget, &AppSatConfig::default(), p),
        AttackStrategy::DoubleDip => double_dip_attack_with(locked, budget, p),
        AttackStrategy::Fall => AttackReport::from(&fall_attack_with(locked, budget, p)),
    }
}

/// Returns a copy of `locked` with both netlists run through the
/// state-preserving netlist simplifier
/// ([`cutelock_netlist::simplify::SimplifyConfig::preserving_state`]) —
/// what [`run_attack`] does when [`AttackSpec::simplify`] is set, exposed
/// for the CLI `verify`/`certify` paths and the bench harness.
///
/// State preservation keeps flip-flop count, order, instance names and
/// q-net names, so [`LockedCircuit::counter_ffs`] / `locked_ffs` indices
/// and the scan model's name-based FF mapping stay valid. Schedule,
/// scheme, and FF index lists are carried over verbatim. A simplifier
/// error (a bug on a valid netlist) falls back to the unsimplified copy
/// rather than failing the attack.
pub fn simplify_locked(locked: &LockedCircuit) -> LockedCircuit {
    let cfg = cutelock_netlist::simplify::SimplifyConfig::preserving_state();
    let run = |nl: &cutelock_netlist::Netlist| match cutelock_netlist::simplify::simplify(nl, &cfg)
    {
        Ok((out, _)) => out,
        Err(_) => nl.clone(),
    };
    LockedCircuit {
        netlist: run(&locked.netlist),
        original: run(&locked.original),
        schedule: locked.schedule.clone(),
        scheme: locked.scheme,
        counter_ffs: locked.counter_ffs.clone(),
        locked_ffs: locked.locked_ffs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in AttackStrategy::ALL {
            assert_eq!(AttackStrategy::parse(s.name()), Some(s), "{s}");
        }
        assert_eq!(AttackStrategy::parse("dana"), None, "dana is not a spec");
        assert_eq!(AttackStrategy::parse("race"), None, "no attack-level race");
        assert_eq!(AttackStrategy::parse(""), None);
    }

    #[test]
    fn decisive_matches_the_race_rule() {
        use cutelock_core::KeyValue;
        assert!(AttackSpec::is_decisive(&AttackOutcome::KeyFound(
            KeyValue::from_u64(1, 2)
        )));
        assert!(AttackSpec::is_decisive(&AttackOutcome::Cns));
        assert!(!AttackSpec::is_decisive(&AttackOutcome::WrongKey(
            KeyValue::from_u64(1, 2)
        )));
        assert!(!AttackSpec::is_decisive(&AttackOutcome::Fail));
        assert!(!AttackSpec::is_decisive(&AttackOutcome::Timeout));
    }

    #[test]
    fn builders_compose() {
        let spec = AttackSpec::new(AttackStrategy::Int)
            .with_budget(AttackBudget {
                timeout: std::time::Duration::from_secs(5),
                ..AttackBudget::default()
            })
            .with_portfolio(Portfolio::new(4, 2))
            .with_simplify(false);
        assert_eq!(spec.strategy, AttackStrategy::Int);
        assert_eq!(spec.budget.timeout.as_secs(), 5);
        assert_eq!(spec.portfolio.k, 4);
        assert!(!spec.simplify);
    }

    #[test]
    fn simplify_defaults_on() {
        // One default for every entry point: the CLI, the table bins and
        // the daemon build on `AttackSpec::new` and never flip it.
        for s in AttackStrategy::ALL {
            assert!(AttackSpec::new(s).simplify, "{s}");
        }
    }

    #[test]
    fn simplify_locked_preserves_the_attack_interface() {
        use cutelock_circuits::s27::s27;
        use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 6,
            schedule: None,
            ..Default::default()
        })
        .lock(&s27())
        .expect("locks");
        let simplified = simplify_locked(&lc);
        // Interface invariants the attacks depend on.
        assert_eq!(simplified.netlist.input_count(), lc.netlist.input_count());
        assert_eq!(simplified.netlist.output_count(), lc.netlist.output_count());
        assert_eq!(simplified.netlist.dff_count(), lc.netlist.dff_count());
        assert_eq!(simplified.original.dff_count(), lc.original.dff_count());
        assert_eq!(simplified.key_input_ids().len(), lc.key_input_ids().len());
        assert_eq!(simplified.counter_ffs, lc.counter_ffs);
        assert_eq!(simplified.locked_ffs, lc.locked_ffs);
        // FF q-net names survive (the scan model maps state by name).
        for (a, b) in lc.netlist.dffs().iter().zip(simplified.netlist.dffs()) {
            assert_eq!(
                lc.netlist.net_name(a.q()),
                simplified.netlist.net_name(b.q())
            );
        }
        // And the simplified lock still verifies under the correct key.
        assert!(simplified.verify_equivalence(32, 7).unwrap());
    }
}
