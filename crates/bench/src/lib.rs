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
//! rejects any flag it does not read or gets twice, and prints
//! machine-grep-friendly rows. `table3` and `table4` share one driver:
//! [`Options::attack_rows`] runs every attack column on each circuit, one
//! [`Pool`] job per circuit, and [`Options::finish_attack_table`] writes
//! `--store`, the tally and the exit code. Under `--portfolio K` every job
//! races at one width, sized so the run never oversubscribes `--threads`
//! (see [`Options::portfolio_k`]).
//! Finished rows merge **in table order**, so the printed table is
//! identical for any `--threads` count; `--no-times` additionally masks
//! the wall-clock columns, making the output byte-for-byte reproducible
//! (the CI determinism check diffs a 1-thread against an N-thread run —
//! with and without `--portfolio`/`--share`). See
//! `crates/bench/README.md` for per-binary invocations and expected
//! runtimes.
//!
//! # Example
//!
//! ```
//! use cutelock_bench::Options;
//!
//! let argv = ["table4", "--quick", "--threads", "2", "--no-times"].map(String::from);
//! let reads = ["quick", "threads", "no-times"];
//! let opt = Options::parse(argv.into_iter(), "usage", &reads);
//! // --quick keeps the small circuits and lowers the attack timeout to 10 s.
//! assert!(opt.quick && opt.selected("b10") && !opt.selected("b19"));
//! assert_eq!(opt.budget().timeout.as_secs(), 10);
//! assert_eq!(opt.pool().threads(), 2);
//! assert!(opt.no_times);
//! ```
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![warn(missing_docs)]

pub mod params;

use std::time::Duration;

use cutelock_attacks::{
    run_attack, AttackBudget, AttackReport, AttackSpec, AttackStrategy, Portfolio, RunRecord,
};
use cutelock_core::args::Flags;
use cutelock_core::{KeySchedule, KeyValue, LockedCircuit};
use cutelock_sim::pool::Pool;

/// The flags a bin may read that take a value; the rest are bool flags.
const VALUE_FLAGS: &[&str] = &["only", "timeout", "threads", "portfolio", "store"];

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run the quick circuit set with smaller budgets (and a 10 s default
    /// timeout).
    pub quick: bool,
    /// Reduce every schedule to a single repeated key (paper §IV.A
    /// validation: attacks must then succeed).
    pub single_key: bool,
    /// Only this circuit (by name), if given.
    pub only: Option<String>,
    /// Per-attack timeout in seconds: `--timeout`, else 10 under
    /// `--quick`, else 60.
    pub timeout_secs: u64,
    /// Include baseline-scheme contrast rows where applicable.
    pub baselines: bool,
    /// Worker threads for whole-circuit attack dispatch (`None` = one per
    /// core).
    pub threads: Option<usize>,
    /// Mask wall-clock columns so output is byte-for-byte reproducible.
    pub no_times: bool,
    /// Diversified solver entrants raced per SAT query inside each attack
    /// (`1..=64`; 1 = no racing). The table bins run one circuit per job
    /// on **one** pool, and every job races at the same width: `--threads`
    /// split across the jobs that run at once, at most `portfolio_k`, so
    /// outer workers times race threads never oversubscribe `--threads`.
    /// The raced result is bit-identical for any width, so `--portfolio`
    /// never breaks the `--threads` determinism diff.
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
            timeout_secs: AttackBudget::default().timeout.as_secs(),
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
    /// calling bin reads, without their `--`: any other flag, a repeated
    /// one, a missing or malformed value, or `--portfolio` outside
    /// `1..=64` aborts with exit code 2 and the usage. `--help` prints it.
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
        let (values, bools): (Vec<&str>, Vec<&str>) =
            reads.iter().partition(|f| VALUE_FLAGS.contains(f));
        let flags = Flags::parse(args, &values, &bools)?;
        let quick = flags.has("quick");
        // An explicit --timeout wins in either order; --quick only lowers
        // the default.
        let timeout = quick.then(AttackBudget::quick).unwrap_or_default().timeout;
        let threads = flags.opt("threads").map(|_| flags.num("threads", 1));
        Ok(Self {
            quick,
            single_key: flags.has("single-key"),
            only: flags.opt("only").map(String::from),
            timeout_secs: flags.num("timeout", timeout.as_secs())?,
            baselines: flags.has("baselines"),
            threads: threads.transpose()?.map(|n: usize| n.max(1)),
            no_times: flags.has("no-times"),
            portfolio_k: flags.bounded("portfolio", 1)?,
            share: flags.has("share"),
            simplify: !flags.has("no-simplify"),
            store: flags.opt("store").map(String::from),
        })
    }

    /// The attack budget implied by the options: under `--quick`,
    /// [`AttackBudget::quick`].
    pub fn budget(&self) -> AttackBudget {
        let limits = if self.quick {
            AttackBudget::quick()
        } else {
            AttackBudget {
                max_iterations: 192,
                ..AttackBudget::default()
            }
        };
        AttackBudget {
            timeout: Duration::from_secs(self.timeout_secs),
            ..limits
        }
    }

    /// Whether this circuit should run: it matches `--only` (if given) and,
    /// under `--quick`, belongs to the quick set.
    pub fn selected(&self, name: &str) -> bool {
        self.only.as_deref().is_none_or(|only| only == name)
            && (!self.quick || params::in_quick_set(name))
    }

    /// The query-level portfolio implied by `--portfolio`/`--share`,
    /// racing entrants across `width` threads. `portfolio_with(1)` races
    /// entrants serially on the calling worker; every width produces the
    /// same answer (see [`Options::portfolio_k`]).
    pub(crate) fn portfolio_with(&self, width: usize) -> Portfolio {
        Portfolio::new(self.portfolio_k, width.max(1)).with_share(self.share)
    }

    /// The race width of each of `jobs` jobs dispatched on
    /// [`Options::pool`]: the threads left to each job when as many jobs
    /// run at once as the pool allows, at least 1 and at most
    /// `--portfolio`. A pure function of the options and the job count, so
    /// the width plan never depends on scheduling.
    fn race_width(&self, jobs: usize) -> usize {
        let threads = self.pool().threads();
        (threads / threads.min(jobs.max(1)))
            .min(self.portfolio_k)
            .max(1)
    }

    /// The full attack request implied by the options for one strategy,
    /// racing at `width` threads.
    fn spec_with(&self, strategy: AttackStrategy, width: usize) -> AttackSpec {
        AttackSpec::new(strategy)
            .with_budget(self.budget())
            .with_portfolio(self.portfolio_with(width))
            .with_simplify(self.simplify)
    }

    /// The [`AttackSpec`] the options imply for one strategy, racing
    /// serially (width 1): a request for [`run_attack`], the same door the
    /// CLI and the job daemon use.
    pub fn spec(&self, strategy: AttackStrategy) -> AttackSpec {
        self.spec_with(strategy, 1)
    }

    /// [`Options::spec`] for one of `jobs` jobs dispatched on
    /// [`Options::pool`]: the race gets the threads the other jobs leave
    /// free.
    pub fn spec_for(&self, strategy: AttackStrategy, jobs: usize) -> AttackSpec {
        self.spec_with(strategy, self.race_width(jobs))
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

    /// Locks each `(name, k, ki)` row and runs every attack column on it —
    /// the body of Tables III and IV. One [`Pool`] job per row; results
    /// come back in row order.
    ///
    /// `lock(name, k, ki, schedule)` locks one circuit with the bin's
    /// scheme and `seed`, or returns the whole error line the bin prints.
    /// `schedule` is `Some` under `--single-key`: one key value repeated `k`
    /// times, which the lock must use.
    pub fn attack_rows<F>(
        &self,
        rows: &[(&'static str, usize, usize)],
        columns: &[AttackStrategy],
        seed: u64,
        lock: F,
    ) -> Vec<Result<AttackRow, String>>
    where
        F: Fn(&'static str, usize, usize, Option<KeySchedule>) -> Result<LockedCircuit, String>
            + Sync,
    {
        let width = self.race_width(rows.len());
        self.pool().map(rows.len(), |i| {
            let (name, k, ki) = rows[i];
            let schedule = self.single_key.then(|| {
                let bits = (0..ki).map(|j| j < 64 && 0x5a5a_5a5a_u64 >> j & 1 == 1);
                KeySchedule::constant(KeyValue::from_bits(bits.collect()), k)
            });
            let locked = lock(name, k, ki, schedule)?;
            let (mut reports, mut records) = (Vec::new(), Vec::new());
            for &strategy in columns {
                let spec = self.spec_with(strategy, width);
                let report = run_attack(&locked, &spec);
                records.push(RunRecord::from_run(name, seed, &locked, &spec, &report));
                reports.push(report);
            }
            Ok(AttackRow {
                name,
                k,
                ki,
                reports,
                records,
            })
        })
    }

    /// Ends a Table III/IV run after its rows printed: writes `--store` in
    /// row order, prints the tally line, and exits 1 if an attack recovered
    /// a key outside `--single-key`. Rows that failed to lock are skipped;
    /// the bin already printed their error line.
    pub fn finish_attack_table(&self, rows: &[Result<AttackRow, String>]) {
        let ran: Vec<&AttackRow> = rows.iter().filter_map(|r| r.as_ref().ok()).collect();
        let records: Vec<RunRecord> = ran.iter().flat_map(|r| r.records.clone()).collect();
        self.store_records(&records);
        let reports = ran.iter().flat_map(|r| &r.reports);
        let recovered = reports.filter(|r| !r.outcome.defense_held()).count();
        let (runs, circuits) = (records.len(), ran.len());
        if self.single_key {
            println!(
                "single-key reduction: {recovered}/{runs} attack runs recovered the key across \
                 {circuits} circuits (paper §IV.A expects recovery)"
            );
        } else {
            println!(
                "defense held in {}/{runs} attack runs across {circuits} circuits \
                 (paper: all runs end in CNS / wrong key / timeout)",
                runs - recovered
            );
            if recovered > 0 {
                std::process::exit(1);
            }
        }
    }

    /// Appends `records` to the `--store` database, if one was requested.
    /// The bins call this once, after the table prints, with records
    /// already merged in table order — so the store file is identical for
    /// any `--threads` count. A write failure aborts the bin: a silently
    /// missing store file would defeat the perf-trajectory gate.
    pub fn store_records(&self, records: &[RunRecord]) {
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

/// One circuit of Table III or IV after every attack column ran on it.
#[derive(Debug)]
pub struct AttackRow {
    /// Circuit name.
    pub name: &'static str,
    /// Keys in the schedule.
    pub k: usize,
    /// Bits per key value.
    pub ki: usize,
    /// One report per attack column, in column order.
    pub reports: Vec<AttackReport>,
    /// One `--store` record per attack column, in column order.
    records: Vec<RunRecord>,
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
        assert_eq!(
            try_parse(&["b10"], ALL).unwrap_err(),
            "unexpected positional argument `b10`"
        );
        assert_eq!(
            try_parse(&["--quick", "--only", "b01", "--only", "b02"], ALL).unwrap_err(),
            "--only given twice"
        );
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
        // An explicit --timeout wins over --quick's default in either order.
        for args in [
            ["--quick", "--timeout", "60"],
            ["--timeout", "60", "--quick"],
        ] {
            assert_eq!(parse(&args).timeout_secs, 60, "{args:?}");
        }
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
        // Each entrant is a solver clone, so the width is bounded.
        for k in ["0", "65"] {
            assert_eq!(
                try_parse(&["--portfolio", k], ALL).unwrap_err(),
                "--portfolio must be between 1 and 64"
            );
        }
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
    fn race_width_splits_the_pool_across_jobs() {
        for threads in [1, 2, 3, 4, 8] {
            let o = parse(&["--threads", &threads.to_string(), "--portfolio", "8"]);
            // A lone job gets the whole pool.
            assert_eq!(o.race_width(1), threads);
            for jobs in [0, 2, 3, 5, 20] {
                // Never oversubscribes: the jobs that run at once, times
                // their width, fit in the pool.
                let w = o.race_width(jobs);
                assert!(w >= 1 && threads.min(jobs.max(1)) * w <= threads);
                assert_eq!(o.spec_for(AttackStrategy::Int, jobs).portfolio.threads, w);
            }
        }
        // Clamped to --portfolio: no thread without an entrant to run.
        let o = parse(&["--threads", "8", "--portfolio", "3"]);
        assert_eq!(o.race_width(1), 3);
        assert_eq!(parse(&["--threads", "8"]).race_width(1), 1);
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
        assert_eq!(wide.portfolio.threads, 3, "allocated width carries");
    }

    #[test]
    fn attack_rows_come_back_in_row_order_with_error_lines() {
        let o = parse(&["--quick", "--threads", "2"]);
        let rows = [("s27", 1, 3), ("zzz", 1, 3), ("s27", 1, 4)];
        let out = o.attack_rows(&rows, &[AttackStrategy::ScanSat], 7, |name, _, ki, _| {
            let circuit = cutelock_circuits::iscas89(name).map_err(|e| format!("{name}: {e}"))?;
            let lock = cutelock_core::baselines::XorLock::new(ki, 7);
            lock.lock(&circuit.netlist).map_err(|e| e.to_string())
        });
        assert!(out[1].as_ref().unwrap_err().starts_with("zzz: "));
        for i in [0, 2] {
            let row = out[i].as_ref().unwrap();
            let bits = row.records[0].key_bits as usize;
            assert_eq!(
                (row.name, row.k, row.ki, bits),
                ("s27", 1, rows[i].2, rows[i].2)
            );
        }
    }

    #[test]
    fn single_key_schedules_wider_than_64_bits_build() {
        // Table III's `absurd` row has ki = 65: the mask's 64 bits, then 0.
        // The lock checks the schedule and refuses, so no attack runs.
        let o = parse(&["--single-key"]);
        let out = o.attack_rows(
            &[("absurd", 21, 65)],
            &[AttackStrategy::Bbo],
            0,
            |_, _, _, s| {
                let s = s.expect("--single-key hands the lock a schedule");
                let mask = KeyValue::from_u64(0x5a5a_5a5a, 64);
                assert!(s.is_constant() && s.num_keys() == 21);
                assert_eq!(s.key_at_time(0).bits(), [mask.bits(), &[false]].concat());
                Err("refused".into())
            },
        );
        assert_eq!(out[0].as_ref().unwrap_err(), "refused");
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
