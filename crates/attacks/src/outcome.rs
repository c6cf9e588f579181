use std::fmt;
use std::time::Duration;

use cutelock_core::clock::{ClockHandle, Instant};
use cutelock_core::{KeyValue, LockedCircuit};

/// Result of an attack run, mirroring the paper's table legend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack recovered a key and it verified against the oracle
    /// (the paper's green "Equal" cells).
    KeyFound(KeyValue),
    /// The attack reported a key but it does **not** match the oracle
    /// (the paper's `x..x` cells).
    WrongKey(KeyValue),
    /// The attack proved its own model unsatisfiable — no constant key is
    /// consistent with the oracle (the paper's "CNS" cells).
    Cns,
    /// The attack completed but found nothing to extract (the paper's
    /// "FAIL" cells, e.g. FALL with zero candidates).
    Fail,
    /// The attack exhausted its time/conflict budget (the paper's "N/A").
    Timeout,
}

impl AttackOutcome {
    /// True when the defense held (anything but a verified key).
    pub fn defense_held(&self) -> bool {
        !matches!(self, Self::KeyFound(_))
    }

    /// The paper's cell label for this outcome.
    pub fn label(&self) -> &'static str {
        match self {
            Self::KeyFound(_) => "Equal",
            Self::WrongKey(_) => "x..x",
            Self::Cns => "CNS",
            Self::Fail => "FAIL",
            Self::Timeout => "N/A",
        }
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::KeyFound(k) => write!(f, "Equal({k})"),
            Self::WrongKey(k) => write!(f, "x..x({k})"),
            other => f.write_str(other.label()),
        }
    }
}

/// Search budgets an attack must respect (the paper ran with a 20-hour
/// wall-clock limit; the reproduction defaults are scaled down).
///
/// The `timeout` is measured on the budget's [`clock`](AttackBudget::clock)
/// — a wall clock by default, so behavior matches the pre-clock tree
/// bit-for-bit; a `VirtualClock` in deterministic-timeout tests and
/// `--virtual-clock` runs, where the deadline fires at an exact point in
/// the search (see `cutelock_core::clock`).
#[derive(Debug, Clone)]
pub struct AttackBudget {
    /// Time limit for the whole attack, on [`clock`](AttackBudget::clock).
    pub timeout: Duration,
    /// Maximum unrolling depth for BMC-family attacks.
    pub max_bound: usize,
    /// Maximum DIP iterations.
    pub max_iterations: usize,
    /// SAT conflict budget per solver call (`None` = unlimited).
    pub conflict_budget: Option<u64>,
    /// The time source the timeout is measured against. Every solver an
    /// attack under this budget creates inherits this clock.
    pub clock: ClockHandle,
}

impl AttackBudget {
    /// The smoke-run budget `--quick` means in every front end: bound 4,
    /// 48 iterations, 200 000 conflicts per solver call and a 10 s
    /// timeout, which an explicit `--timeout` replaces.
    pub fn quick() -> Self {
        Self {
            timeout: Duration::from_secs(10),
            max_bound: 4,
            max_iterations: 48,
            conflict_budget: Some(200_000),
            ..Self::default()
        }
    }

    /// The budget's idea of "now" — what attacks record as their start
    /// instant and what `remaining` measures against.
    pub(crate) fn start(&self) -> Instant {
        self.clock.now()
    }

    /// Time still unspent by an attack that started at `start` (`None`
    /// once the deadline has passed) — the single deadline check every
    /// attack loop polls.
    pub(crate) fn remaining(&self, start: Instant) -> Option<Duration> {
        self.timeout
            .checked_sub(self.clock.now().duration_since(start))
    }
}

/// Budget equality compares the numeric limits and requires both budgets
/// to read the **same clock instance**: two budgets that time out at the
/// same duration on different clocks are not interchangeable.
impl PartialEq for AttackBudget {
    fn eq(&self, other: &Self) -> bool {
        self.timeout == other.timeout
            && self.max_bound == other.max_bound
            && self.max_iterations == other.max_iterations
            && self.conflict_budget == other.conflict_budget
            && self.clock.same_clock(&other.clock)
    }
}

impl Eq for AttackBudget {}

impl Default for AttackBudget {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(60),
            max_bound: 8,
            max_iterations: 256,
            conflict_budget: Some(2_000_000),
            clock: ClockHandle::wall(),
        }
    }
}

/// Deterministic solver-side counters carried out of an attack — the
/// columns `--store` persists alongside the verdict. Every field is a
/// function of the search, not the machine: two runs of the same spec
/// produce identical stats at any thread count (`docs/DETERMINISM.md`
/// Rule 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// SAT conflicts across the attack's final solver.
    pub conflicts: u64,
    /// Unit propagations across the attack's final solver.
    pub propagations: u64,
    /// Learnt-clause garbage collections performed.
    pub gc_runs: u64,
    /// Learnt clauses freed by garbage collection.
    pub gc_freed_clauses: u64,
}

impl From<cutelock_sat::SolverStats> for RunStats {
    fn from(s: cutelock_sat::SolverStats) -> Self {
        RunStats {
            conflicts: s.conflicts,
            propagations: s.propagations,
            gc_runs: s.gc_runs,
            gc_freed_clauses: s.gc_freed_clauses,
        }
    }
}

/// An attack outcome with bookkeeping, one table cell's worth of data.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// The verdict.
    pub outcome: AttackOutcome,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// DIP iterations performed (0 for structural attacks).
    pub iterations: usize,
    /// Final unrolling bound reached (0 for combinational attacks).
    pub bound: usize,
    /// Deterministic solver counters (zeroed for attacks that never touch
    /// a SAT solver, e.g. FALL/DANA).
    pub stats: RunStats,
}

impl AttackReport {
    /// Formats the elapsed time like the paper (`6m25.446s`).
    pub fn time_string(&self) -> String {
        let total = self.elapsed.as_secs_f64();
        let minutes = (total / 60.0).floor() as u64;
        let seconds = total - minutes as f64 * 60.0;
        if minutes >= 60 {
            let hours = minutes / 60;
            let mins = minutes % 60;
            format!("{hours}h{mins}m{seconds:.0}s")
        } else {
            format!("{minutes}m{seconds:.3}s")
        }
    }
}

impl fmt::Display for AttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {}", self.outcome, self.time_string())
    }
}

/// Verifies a candidate key against the original circuit by 64-lane
/// random simulation: the locked circuit driven with the candidate applied
/// **constantly** must match the original on every lane of every cycle.
///
/// Built on [`LockedCircuit::wide_key_matches`], so one call checks
/// `cycles × 64` independent stimulus sequences and stops at the first
/// diverging cycle: the many wrong candidates the DIP loops produce are
/// cheap to reject.
pub(crate) fn verify_candidate_key(
    locked: &LockedCircuit,
    key: &KeyValue,
    cycles: usize,
    seed: u64,
) -> bool {
    locked
        .wide_key_matches(key, cycles, seed ^ 0x4b56_4552) // "KVER"
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(AttackOutcome::Cns.label(), "CNS");
        assert_eq!(AttackOutcome::Fail.label(), "FAIL");
        assert_eq!(AttackOutcome::Timeout.label(), "N/A");
        assert_eq!(
            AttackOutcome::KeyFound(KeyValue::from_u64(1, 1)).label(),
            "Equal"
        );
        assert_eq!(
            AttackOutcome::WrongKey(KeyValue::from_u64(0, 2)).label(),
            "x..x"
        );
    }

    #[test]
    fn defense_held_semantics() {
        assert!(!AttackOutcome::KeyFound(KeyValue::from_u64(1, 1)).defense_held());
        assert!(AttackOutcome::WrongKey(KeyValue::from_u64(1, 1)).defense_held());
        assert!(AttackOutcome::Cns.defense_held());
        assert!(AttackOutcome::Timeout.defense_held());
    }

    #[test]
    fn time_formatting() {
        let r = AttackReport {
            outcome: AttackOutcome::Cns,
            elapsed: Duration::from_millis(385_446),
            iterations: 3,
            bound: 2,
            stats: RunStats::default(),
        };
        assert_eq!(r.time_string(), "6m25.446s");
        let hours = AttackReport {
            outcome: AttackOutcome::Timeout,
            elapsed: Duration::from_secs(7 * 3600 + 56 * 60 + 45),
            iterations: 0,
            bound: 0,
            stats: RunStats::default(),
        };
        assert_eq!(hours.time_string(), "7h56m45s");
    }

    #[test]
    fn budget_defaults_are_sane() {
        let b = AttackBudget::default();
        assert!(b.max_bound >= 2);
        assert!(b.timeout.as_secs() > 0);
    }
}
