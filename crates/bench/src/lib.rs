//! Shared machinery for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary   | paper artifact | content |
//! |----------|----------------|---------|
//! | `table1` | Table I        | Cute-Lock-Beh validation trace (`bcomp`) |
//! | `table2` | Table II       | Cute-Lock-Str validation trace (`s27`) |
//! | `table3` | Table III      | Cute-Lock-Beh vs. BBO/INT/KC2 (Synthezza) |
//! | `table4` | Table IV       | Cute-Lock-Str vs. BBO/INT/KC2/RANE (ISCAS'89 + ITC'99) |
//! | `table5` | Table V        | DANA NMI + FALL on ITC'99 |
//! | `fig4`   | Fig. 4         | Overhead vs. DK-Lock on ITC'99 |
//!
//! Every binary accepts `--quick` (subset of circuits, smaller budgets),
//! rejects any flag it does not read, and prints machine-grep-friendly
//! rows. The attack-suite bins (`table3`, `table4`, `table5`) schedule
//! (circuit × entrant-slice) units onto **one**
//! [`cutelock_sim::pool::Pool`] via [`Pool::map_units`]: each
//! circuit job declares its `--portfolio K` entrants as inner units and is
//! handed a race width sized so the plan never oversubscribes
//! `--threads`. Finished rows merge **in table order**, so the printed
//! table is identical for any `--threads` count; `--no-times` additionally
//! masks the wall-clock columns, making the output byte-for-byte
//! reproducible (the CI determinism check diffs a 1-thread against an
//! N-thread run — with and without `--portfolio`/`--share`). See
//! `crates/bench/README.md` for per-binary invocations and expected
//! runtimes.
//!
//! # Example
//!
//! ```
//! use cutelock_bench::{params, Options};
//!
//! let argv = ["table4", "--quick", "--only", "b10", "--threads", "2", "--no-times"]
//!     .map(String::from);
//! let reads = ["quick", "only", "threads", "no-times"];
//! let opt = Options::parse(argv.into_iter(), "usage", &reads);
//! assert!(opt.quick && opt.selected("b10") && !opt.selected("b12"));
//! // --quick caps the attack budget so a smoke run stays bounded.
//! assert!(opt.budget().timeout.as_secs() <= 10);
//! assert_eq!(opt.pool().threads(), 2);
//! assert!(opt.no_times);
//! assert!(params::in_quick_set("b10"));
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![warn(missing_docs)]

pub mod params;

use std::time::Duration;

use cutelock_attacks::{AttackBudget, AttackReport, AttackSpec, AttackStrategy, Portfolio};
use cutelock_sim::pool::Pool;

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run a reduced circuit set with smaller budgets.
    pub quick: bool,
    /// Reduce every schedule to a single repeated key (paper §IV.A
    /// validation: attacks must then succeed).
    pub single_key: bool,
    /// Only this circuit (by name), if given.
    pub only: Option<String>,
    /// Per-attack timeout in seconds.
    pub timeout_secs: u64,
    /// Include baseline-scheme contrast rows where applicable.
    pub baselines: bool,
    /// Worker threads for whole-circuit attack dispatch (`None` = one per
    /// core).
    pub threads: Option<usize>,
    /// Mask wall-clock columns so output is byte-for-byte reproducible.
    pub no_times: bool,
    /// Diversified solver entrants raced per SAT query inside each attack
    /// (1 = no racing). The table bins schedule (circuit × entrant-slice)
    /// units onto **one** pool via [`Pool::map_units`]: each circuit job
    /// declares `portfolio_k` inner units and receives a race width sized
    /// so outer workers times inner entrants never oversubscribe
    /// `--threads`. The raced result is bit-identical for any width, so
    /// `--portfolio` never breaks the `--threads` determinism diff.
    pub portfolio_k: usize,
    /// Epoch-barrier clause sharing between portfolio entrants
    /// (`--share`). Deterministic — exchange batches are merged in
    /// entrant-index order — so sharing never breaks the `--threads`
    /// determinism diff either.
    pub share: bool,
    /// Run the netlist simplification engine in front of every encoding
    /// (default **on**, as everywhere; `--no-simplify` turns it off).
    /// Simplification is itself deterministic, so it never breaks the
    /// `--threads` determinism diff — but it can change which wrong key
    /// survives a capped search, so CI diffs on-vs-off at the verdict
    /// level only.
    pub simplify: bool,
    /// `--store FILE`: append one [`cutelock_attacks::RunRecord`] per
    /// attack run to a `cutelock_store` run database after the table
    /// prints. Records are written in table order regardless of
    /// `--threads`, and the bins run on the wall clock so the `elapsed_ns`
    /// column is recorded as 0 — the store file is byte-for-byte
    /// reproducible (`docs/DETERMINISM.md` Rule 9).
    pub store: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            quick: false,
            single_key: false,
            only: None,
            timeout_secs: 60,
            baselines: false,
            threads: None,
            no_times: false,
            portfolio_k: 1,
            share: false,
            simplify: true,
            store: None,
        }
    }
}

impl Options {
    /// Parses `std::env::args`-style flags. `reads` names the flags the
    /// calling bin reads, without their `--`: any other flag, or a
    /// missing or malformed value, aborts with exit code 2 and the usage
    /// message. `--help` prints the usage.
    pub fn parse(args: impl Iterator<Item = String>, usage: &str, reads: &[&str]) -> Self {
        let args: Vec<String> = args.skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        Self::from_flags(&args, reads).unwrap_or_else(|e| {
            eprintln!("{e}\n{usage}");
            std::process::exit(2);
        })
    }

    /// [`Options::parse`] without the process exits, over the arguments
    /// after the program name.
    fn from_flags(args: &[String], reads: &[&str]) -> Result<Self, String> {
        let mut opt = Self::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--").filter(|n| reads.contains(n)) else {
                return Err(format!("unknown flag {arg}"));
            };
            let mut value = || args.next().ok_or_else(|| format!("--{name} needs a value"));
            match name {
                "quick" => {
                    opt.quick = true;
                    opt.timeout_secs = opt.timeout_secs.min(10);
                }
                "single-key" => opt.single_key = true,
                "baselines" => opt.baselines = true,
                "only" => opt.only = Some(value()?.clone()),
                "timeout" => opt.timeout_secs = number(name, value()?)?,
                "threads" => opt.threads = Some(number::<usize>(name, value()?)?.max(1)),
                "no-times" => opt.no_times = true,
                "portfolio" => opt.portfolio_k = number::<usize>(name, value()?)?.max(1),
                "share" => opt.share = true,
                "no-simplify" => opt.simplify = false,
                "store" => opt.store = Some(value()?.clone()),
                other => return Err(format!("unknown flag --{other}")),
            }
        }
        Ok(opt)
    }

    /// The attack budget implied by the options.
    pub fn budget(&self) -> AttackBudget {
        AttackBudget {
            timeout: Duration::from_secs(self.timeout_secs),
            max_bound: if self.quick { 4 } else { 8 },
            max_iterations: if self.quick { 48 } else { 192 },
            conflict_budget: Some(if self.quick { 200_000 } else { 2_000_000 }),
            ..AttackBudget::default()
        }
    }

    /// Whether this circuit should run.
    pub fn selected(&self, name: &str) -> bool {
        self.only.as_deref().is_none_or(|only| only == name)
    }

    /// The query-level portfolio implied by `--portfolio`/`--share`,
    /// racing entrants across `width` threads — the width a
    /// [`Pool::map_units`] job was allocated. `portfolio_with(1)` races
    /// entrants serially on the calling worker; every width produces the
    /// same answer (see [`Options::portfolio_k`]).
    pub(crate) fn portfolio_with(&self, width: usize) -> Portfolio {
        Portfolio::new(self.portfolio_k, width.max(1)).with_share(self.share)
    }

    /// The unit counts a table bin hands to [`Pool::map_units`]: each of
    /// the `n` circuit jobs declares [`portfolio_k`](Options::portfolio_k)
    /// inner entrant slices. A pure function of the options, so the
    /// resulting width plan is deterministic.
    pub fn units(&self, n: usize) -> Vec<usize> {
        vec![self.portfolio_k; n]
    }

    /// The full attack request implied by the options for one strategy and
    /// an allocated race `width` — the [`AttackSpec`] the table bins hand
    /// to [`run_attack`](cutelock_attacks::run_attack), same door as the
    /// CLI and the job daemon.
    pub fn spec_with(&self, strategy: AttackStrategy, width: usize) -> AttackSpec {
        AttackSpec::new(strategy)
            .with_budget(self.budget())
            .with_portfolio(self.portfolio_with(width))
            .with_simplify(self.simplify)
    }

    /// [`Options::spec_with`] at width 1.
    pub fn spec(&self, strategy: AttackStrategy) -> AttackSpec {
        self.spec_with(strategy, 1)
    }

    /// The worker pool implied by `--threads` (one worker per core when the
    /// flag is absent). Results dispatched through [`Pool::map`] come back
    /// in index order, so table output is deterministic for any width.
    pub fn pool(&self) -> Pool {
        match self.threads {
            Some(n) => Pool::new(n),
            None => Pool::auto(),
        }
    }

    /// Formats one attack-report table cell: outcome label plus wall-clock,
    /// or the label alone under `--no-times` (the reproducible-output mode).
    pub fn cell(&self, r: &AttackReport) -> String {
        if self.no_times {
            r.outcome.label().to_string()
        } else {
            format!("{} {}", r.outcome.label(), r.time_string())
        }
    }

    /// Appends `records` to the `--store` database, if one was requested.
    /// The bins call this once, after the table prints, with records
    /// already merged in table order — so the store file is identical for
    /// any `--threads` count. A write failure aborts the bin: a silently
    /// missing store file would defeat the perf-trajectory gate.
    pub fn store_records(&self, records: &[cutelock_attacks::RunRecord]) {
        let Some(path) = &self.store else { return };
        match cutelock_attacks::write_records(path, records) {
            Ok(()) => eprintln!("recorded {} run(s) in {path}", records.len()),
            Err(e) => {
                eprintln!("--store {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Formats a seconds column, masked under `--no-times`.
    pub fn secs(&self, d: Duration) -> String {
        if self.no_times {
            "-".to_string()
        } else {
            format!("{:.1}", d.as_secs_f64())
        }
    }
}

/// Parses the value of flag `--name`.
fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{name}: `{value}` is not a number"))
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_sat::ShareCap;

    const ALL: &[&str] = &[
        "quick",
        "single-key",
        "only",
        "timeout",
        "baselines",
        "threads",
        "no-times",
        "portfolio",
        "share",
        "no-simplify",
        "store",
    ];

    fn try_parse(args: &[&str], reads: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::from_flags(&args, reads)
    }

    fn parse(args: &[&str]) -> Options {
        try_parse(args, ALL).unwrap()
    }

    #[test]
    fn bins_reject_flags_they_do_not_read() {
        assert!(try_parse(&["--quick"], &["quick"]).unwrap().quick);
        assert_eq!(
            try_parse(&["--quick", "--store", "t1.clk"], &["quick"]).unwrap_err(),
            "unknown flag --store"
        );
        assert_eq!(
            try_parse(&["--single-key"], &["quick", "only", "baselines"]).unwrap_err(),
            "unknown flag --single-key"
        );
        assert_eq!(try_parse(&["b10"], ALL).unwrap_err(), "unknown flag b10");
        assert_eq!(
            try_parse(&["--only"], ALL).unwrap_err(),
            "--only needs a value"
        );
        assert_eq!(
            try_parse(&["--threads", "two"], ALL).unwrap_err(),
            "--threads: `two` is not a number"
        );
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert!(!o.quick);
        assert!(!o.single_key);
        assert!(o.only.is_none());
        assert_eq!(o.timeout_secs, 60);
        assert!(o.selected("anything"));
    }

    #[test]
    fn quick_caps_timeout() {
        let o = parse(&["--quick"]);
        assert!(o.quick);
        assert!(o.timeout_secs <= 10);
        let b = o.budget();
        assert_eq!(b.max_bound, 4);
    }

    #[test]
    fn only_filters_circuits() {
        let o = parse(&["--only", "b05", "--single-key", "--baselines"]);
        assert!(o.selected("b05"));
        assert!(!o.selected("b06"));
        assert!(o.single_key);
        assert!(o.baselines);
    }

    #[test]
    fn timeout_flag_parses() {
        let o = parse(&["--timeout", "7"]);
        assert_eq!(o.timeout_secs, 7);
        assert_eq!(o.budget().timeout.as_secs(), 7);
    }

    #[test]
    fn threads_flag_sizes_the_pool() {
        let o = parse(&[]);
        assert!(o.threads.is_none());
        assert!(o.pool().threads() >= 1);
        let o = parse(&["--threads", "3"]);
        assert_eq!(o.pool().threads(), 3);
        // Zero clamps to one worker rather than erroring.
        let o = parse(&["--threads", "0"]);
        assert_eq!(o.pool().threads(), 1);
    }

    #[test]
    fn portfolio_flag_builds_a_race() {
        let o = parse(&[]);
        assert_eq!(o.portfolio_k, 1);
        assert_eq!(o.portfolio_with(1).k, 1, "default is single-solver");
        let o = parse(&["--portfolio", "4"]);
        assert_eq!(o.portfolio_with(1).k, 4);
        assert_eq!(
            o.portfolio_with(1).threads,
            1,
            "width-1 portfolio races serially"
        );
        assert_eq!(o.portfolio_with(3).threads, 3, "allocated width carries");
        // Zero clamps to the single-solver path rather than erroring.
        let o = parse(&["--portfolio", "0"]);
        assert_eq!(o.portfolio_with(1).k, 1);
    }

    #[test]
    fn share_flags_configure_the_exchange() {
        let o = parse(&[]);
        assert!(!o.share);
        assert!(!o.portfolio_with(1).share);
        let o = parse(&["--share", "--portfolio", "4"]);
        assert!(o.portfolio_with(1).share);
        assert_eq!(o.portfolio_with(1).share_cap, ShareCap::default());
    }

    #[test]
    fn simplify_flags_flow_into_the_spec() {
        let o = parse(&[]);
        assert!(o.simplify, "table bins simplify by default");
        assert!(o.spec(AttackStrategy::Int).simplify);
        let o = parse(&["--no-simplify"]);
        assert!(!o.spec(AttackStrategy::Int).simplify);
        // The bins and the library share one default.
        for s in AttackStrategy::ALL {
            assert_eq!(
                Options::default().spec(s).simplify,
                AttackSpec::new(s).simplify,
                "{s}"
            );
        }
    }

    #[test]
    fn store_flag_carries_the_path() {
        let o = parse(&[]);
        assert!(o.store.is_none());
        // store_records without --store is a no-op, not an error.
        o.store_records(&[]);
        let o = parse(&["--store", "runs.clk"]);
        assert_eq!(o.store.as_deref(), Some("runs.clk"));
    }

    #[test]
    fn units_declare_one_entrant_set_per_circuit() {
        let o = parse(&["--portfolio", "4"]);
        assert_eq!(o.units(3), vec![4, 4, 4]);
        let o = parse(&[]);
        assert_eq!(o.units(2), vec![1, 1]);
    }

    #[test]
    fn spec_bundles_budget_and_portfolio() {
        let o = parse(&["--quick", "--portfolio", "3"]);
        let s = o.spec(AttackStrategy::Kc2);
        assert_eq!(s.strategy, AttackStrategy::Kc2);
        assert_eq!(s.budget.max_bound, o.budget().max_bound);
        assert_eq!(s.budget.timeout, o.budget().timeout);
        assert_eq!(s.portfolio.k, 3);
        assert_eq!(s.portfolio.threads, 1, "width-1 spec races serially");
        let wide = o.spec_with(AttackStrategy::Kc2, 3);
        assert_eq!(wide.portfolio.threads, 3, "map_units width carries");
    }

    #[test]
    fn no_times_masks_wall_clock_columns() {
        use cutelock_attacks::{AttackOutcome, AttackReport, RunStats};
        let r = AttackReport {
            outcome: AttackOutcome::Cns,
            elapsed: Duration::from_millis(1234),
            iterations: 1,
            bound: 1,
            stats: RunStats::default(),
        };
        let o = parse(&["--no-times"]);
        assert_eq!(o.cell(&r), "CNS");
        assert_eq!(o.secs(r.elapsed), "-");
        let o = parse(&[]);
        assert!(o.cell(&r).starts_with("CNS 0m1."));
        assert_eq!(o.secs(r.elapsed), "1.2");
    }

    #[test]
    fn quick_set_membership() {
        assert!(params::in_quick_set("b01"));
        assert!(!params::in_quick_set("b19"));
        // Every quick-set Synthezza/ISCAS/ITC name exists in a params table.
        for name in params::QUICK_SET {
            let known = params::TABLE3.iter().any(|(n, _, _)| n == name)
                || params::TABLE4_ISCAS.iter().any(|(n, _, _)| n == name)
                || params::TABLE4_ITC.iter().any(|(n, _, _)| n == name)
                || *name == "s27";
            assert!(known, "{name} not in any table");
        }
    }

    #[test]
    fn paper_tables_have_expected_row_counts() {
        assert_eq!(params::TABLE3.len(), 33);
        assert_eq!(params::TABLE4_ISCAS.len(), 14);
        assert_eq!(params::TABLE4_ITC.len(), 20);
        assert_eq!(params::TABLE5.len(), 20);
        assert_eq!(params::FIG4_RUNS.len(), 3);
    }
}
