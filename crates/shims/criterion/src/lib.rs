//! Minimal, dependency-free stand-in for the subset of `criterion` used by the
//! workspace benches: `criterion_group!`/`criterion_main!`, benchmark groups,
//! `bench_function`/`bench_with_input`, `Bencher::iter`, throughput labels,
//! and `black_box`.
//!
//! The build container has no network access, so the real crate cannot be
//! vendored. This shim keeps every bench target compiling (`cargo bench
//! --no-run` is a CI job) and, when actually run, measures each benchmark
//! with a bounded statistical protocol:
//!
//! * **warm-up** — the closure runs untimed until
//!   [`Criterion::warm_up_time`] is spent (at least once), so caches,
//!   allocators, and branch predictors settle before anything is recorded;
//! * **per-sample timing** — each of the `sample_size` timed iterations is
//!   measured individually;
//! * **median with min/max spread** — the reported figure is the
//!   median-of-samples (robust to scheduler outliers in a way the old
//!   whole-loop mean was not), printed alongside the min–max range so a
//!   noisy run is visible as a wide spread rather than a silent lie;
//! * **IQR outlier rejection** — with five or more samples, samples
//!   outside Tukey's fences (`[Q1 − 1.5·IQR, Q3 + 1.5·IQR]`) are dropped
//!   before the median is taken, and the report says how many were
//!   rejected. The raw min–max spread is still printed, so a run that
//!   needed rejection is visibly noisy rather than silently smoothed.
//!
//! Beyond per-benchmark timing, a [`BenchmarkGroup`] records every
//! [`Measurement`] it takes and prints a **comparison table** when it
//! finishes: each entry's speedup relative to the group's first entry (the
//! baseline), spreads included. That is how the workspace's
//! `portfolio_vs_single` and `clause_sharing` groups report
//! defensible — measured, spread-qualified — numbers without the real
//! criterion's baseline files.
//!
//! The full pipeline walkthrough and crate map live in
//! `docs/ARCHITECTURE.md` at the repository root; the thread-count
//! independence rules are codified in `docs/DETERMINISM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::Duration;

use cutelock_core::clock::ClockHandle;

/// Prevent the optimizer from deleting a computed value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Units for reporting throughput alongside timings.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// An identifier naming one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id made of a parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// One benchmark's timing summary: median of the individual samples
/// (after IQR outlier rejection) with the raw min–max spread.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Median of the per-iteration samples that survived outlier
    /// rejection.
    pub median: Duration,
    /// Fastest sample (raw, before rejection).
    pub min: Duration,
    /// Slowest sample (raw, before rejection).
    pub max: Duration,
    /// Number of timed samples taken (raw, before rejection).
    pub samples: usize,
    /// Samples rejected as outliers by Tukey's IQR fences. Rejection only
    /// runs with five or more samples (quartiles of fewer are noise).
    pub outliers: usize,
    /// Number of untimed warm-up iterations that preceded them.
    pub warm_up_iters: u64,
}

impl Measurement {
    fn from_samples(samples: Vec<Duration>, warm_up_iters: u64) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        // The order statistics live in `cutelock_store::agg` (which the
        // `cutelock report` command also uses), so bench output and saved
        // baselines can never disagree on what a median is. `agg` widens
        // internally to u128, matching Duration's own nanosecond math.
        let mut nanos: Vec<u64> = samples
            .iter()
            .map(|s| u64::try_from(s.as_nanos()).unwrap_or(u64::MAX))
            .collect();
        nanos.sort_unstable();
        let n = nanos.len();
        // Tukey fences: reject samples outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR]
        // so one scheduler hiccup cannot drag the median of a small sample
        // set. The quartile samples themselves always sit inside the
        // fences, so the kept set is never empty.
        let kept = cutelock_store::agg::tukey_keep_u64(&nanos);
        let median = cutelock_store::agg::median_u64(kept).expect("kept set non-empty");
        Some(Self {
            median: Duration::from_nanos(median),
            min: Duration::from_nanos(nanos[0]),
            max: Duration::from_nanos(nanos[n - 1]),
            samples: n,
            outliers: n - kept.len(),
            warm_up_iters,
        })
    }

    /// The `median (min…max)` form used in reports, flagging how many
    /// samples the IQR rejection dropped.
    pub fn spread_string(&self) -> String {
        if self.outliers > 0 {
            format!(
                "{:?} ({:?}…{:?}, {} outlier{} dropped)",
                self.median,
                self.min,
                self.max,
                self.outliers,
                if self.outliers == 1 { "" } else { "s" }
            )
        } else {
            format!("{:?} ({:?}…{:?})", self.median, self.min, self.max)
        }
    }
}

/// Drives the timing loop of one benchmark.
pub struct Bencher {
    sample_size: u64,
    warm_up_time: Duration,
    result: Option<Measurement>,
}

impl Bencher {
    /// Measures `f`: warms up untimed until the configured warm-up budget
    /// is spent (at least one call), then times `sample_size` individual
    /// iterations and records median/min/max.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let clock = ClockHandle::wall();
        let warm_start = clock.now();
        let mut warm_up_iters = 0u64;
        while warm_up_iters == 0 || clock.now().duration_since(warm_start) < self.warm_up_time {
            black_box(f());
            warm_up_iters += 1;
        }
        let mut samples = Vec::with_capacity(self.sample_size as usize);
        for _ in 0..self.sample_size {
            let start = clock.now();
            black_box(f());
            samples.push(clock.now().duration_since(start));
        }
        self.result = Measurement::from_samples(samples, warm_up_iters);
    }
}

/// The top-level benchmark driver, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_millis(200),
        }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the target measurement budget (advisory in this shim).
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Set the untimed warm-up budget each benchmark runs before sampling
    /// (at least one warm-up iteration always runs).
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            results: Vec::new(),
            unmeasured: 0,
        }
    }

    /// Run a single standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(
            &id.id,
            self.sample_size as u64,
            self.warm_up_time,
            None,
            &mut f,
        );
        self
    }
}

/// A named group of benchmarks sharing throughput settings.
///
/// The group remembers every measurement; when at least two benchmarks ran,
/// [`BenchmarkGroup::finish`] prints each entry's speedup (by median)
/// relative to the **first** entry, the group's baseline, with both
/// entries' min–max spreads.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
    results: Vec<(String, Measurement)>,
    unmeasured: usize,
}

impl BenchmarkGroup<'_> {
    /// Attach a throughput label to subsequent benchmarks in the group.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.id);
        let m = run_one(
            &full,
            self.criterion.sample_size as u64,
            self.criterion.warm_up_time,
            self.throughput,
            &mut f,
        );
        match m {
            Some(m) => self.results.push((id.id, m)),
            None => self.unmeasured += 1,
        }
        self
    }

    /// Run one benchmark in the group, passing a borrowed input through.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.id);
        let m = run_one(
            &full,
            self.criterion.sample_size as u64,
            self.criterion.warm_up_time,
            self.throughput,
            &mut |b| f(b, input),
        );
        match m {
            Some(m) => self.results.push((id.id, m)),
            None => self.unmeasured += 1,
        }
        self
    }

    /// Measured `(benchmark id, summary)` pairs so far, in run order.
    pub fn measurements(&self) -> &[(String, Measurement)] {
        &self.results
    }

    /// Close the group, printing the comparison against the group's first
    /// (baseline) entry when two or more benchmarks were measured. If any
    /// benchmark in the group never called [`Bencher::iter`], the
    /// comparison is withheld rather than silently promoting a later entry
    /// to baseline.
    pub fn finish(self) {
        if self.unmeasured > 0 {
            println!(
                "{}: {} benchmark(s) produced no measurement; comparison skipped",
                self.name, self.unmeasured
            );
            return;
        }
        let Some(((base_id, base), rest)) = self.results.split_first() else {
            return;
        };
        if rest.is_empty() {
            return;
        }
        println!(
            "{}: comparison vs `{base_id}` {}",
            self.name,
            base.spread_string()
        );
        for (id, m) in rest {
            println!(
                "  {id}: {} — {}",
                speedup_label(base.median, m.median),
                m.spread_string()
            );
        }
    }
}

/// Formats `candidate` against `baseline` the way the comparison table
/// prints it: `x2.13 faster`, `x1.52 slower`, or `no change`.
pub fn speedup_label(baseline: Duration, candidate: Duration) -> String {
    let (b, c) = (baseline.as_secs_f64(), candidate.as_secs_f64());
    if b <= 0.0 || c <= 0.0 {
        return "no change".to_string();
    }
    let ratio = b / c;
    if ratio >= 1.005 {
        format!("x{ratio:.2} faster")
    } else if ratio <= 0.995 {
        format!("x{:.2} slower", 1.0 / ratio)
    } else {
        "no change".to_string()
    }
}

fn run_one(
    name: &str,
    sample_size: u64,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) -> Option<Measurement> {
    let mut b = Bencher {
        sample_size,
        warm_up_time,
        result: None,
    };
    f(&mut b);
    match &b.result {
        Some(m) => {
            let rate = throughput.map(|t| match t {
                Throughput::Elements(n) => {
                    format!("  ({:.0} elem/s)", n as f64 / m.median.as_secs_f64())
                }
                Throughput::Bytes(n) => {
                    format!("  ({:.0} B/s)", n as f64 / m.median.as_secs_f64())
                }
            });
            println!(
                "{name}: median {} over {} samples (+{} warm-up){}",
                m.spread_string(),
                m.samples,
                m.warm_up_iters,
                rate.unwrap_or_default()
            );
        }
        None => println!("{name}: no measurement (Bencher::iter never called)"),
    }
    if let (Some(m), Ok(path)) = (&b.result, std::env::var("CUTELOCK_BENCH_STORE")) {
        if let Err(e) = store_measurement(&path, name, m) {
            eprintln!("warning: CUTELOCK_BENCH_STORE={path}: {e}");
        }
    }
    b.result
}

/// The store schema bench measurements persist under when
/// `CUTELOCK_BENCH_STORE` points at a store file. Wall-clock nanoseconds
/// are inherently machine-dependent; these rows feed trend reports, not
/// byte-identity goldens (`docs/DETERMINISM.md` Rule 9).
pub fn bench_store_schema() -> cutelock_store::Schema {
    use cutelock_store::ColumnType;
    cutelock_store::Schema::new(&[
        ("group", ColumnType::Str),
        ("bench", ColumnType::Str),
        ("median_ns", ColumnType::U64),
        ("min_ns", ColumnType::U64),
        ("max_ns", ColumnType::U64),
        ("samples", ColumnType::U64),
        ("outliers", ColumnType::U64),
        ("warm_up_iters", ColumnType::U64),
    ])
}

fn store_measurement(
    path: &str,
    name: &str,
    m: &Measurement,
) -> Result<(), cutelock_store::StoreError> {
    use cutelock_store::Value;
    let (group, bench) = match name.split_once('/') {
        Some((g, b)) => (g, b),
        None => ("", name),
    };
    let mut w = cutelock_store::format::Writer::open(path, bench_store_schema())?;
    w.push(&[
        Value::str(group),
        Value::str(bench),
        Value::U64(u64::try_from(m.median.as_nanos()).unwrap_or(u64::MAX)),
        Value::U64(u64::try_from(m.min.as_nanos()).unwrap_or(u64::MAX)),
        Value::U64(u64::try_from(m.max.as_nanos()).unwrap_or(u64::MAX)),
        Value::U64(m.samples as u64),
        Value::U64(m.outliers as u64),
        Value::U64(m.warm_up_iters),
    ])?;
    w.finish()
}

/// Bundle benchmark functions into a runnable group, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Emit a `main` that runs the given groups, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Criterion {
        Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(1))
            .warm_up_time(Duration::from_micros(50))
    }

    #[test]
    fn group_and_function_run() {
        let mut c = quick();
        c.bench_function("standalone", |b| b.iter(|| black_box(2 + 2)));
        let mut g = c.benchmark_group("grp");
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::from_parameter("x"), &3u32, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        g.bench_function("plain", |b| b.iter(|| black_box(1)));
        g.finish();
    }

    #[test]
    fn group_records_measurements_for_comparison() {
        let mut c = quick();
        let mut g = c.benchmark_group("cmp");
        g.bench_function("baseline", |b| b.iter(|| black_box(1 + 1)));
        g.bench_function("candidate", |b| b.iter(|| black_box(2 + 2)));
        let ids: Vec<&str> = g.measurements().iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, vec!["baseline", "candidate"]);
        for (_, m) in g.measurements() {
            assert!(m.min <= m.median && m.median <= m.max);
            assert_eq!(m.samples, 3);
            assert!(m.warm_up_iters >= 1, "warm-up always runs at least once");
        }
        g.finish(); // prints the comparison; must not panic
    }

    #[test]
    fn warm_up_respects_budget_for_slow_benchmarks() {
        // A benchmark slower than the warm-up budget runs exactly one
        // warm-up iteration.
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_micros(1));
        let mut g = c.benchmark_group("slow");
        g.bench_function("sleepy", |b| {
            b.iter(|| std::thread::sleep(Duration::from_micros(200)))
        });
        let (_, m) = &g.measurements()[0];
        assert_eq!(m.warm_up_iters, 1);
        assert!(m.median >= Duration::from_micros(200));
        g.finish();
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        // Synthetic check of the summary math itself. Under five samples
        // the IQR rejection stays off (quartiles of three are noise), but
        // the median alone already shrugs off the hiccup.
        let m = Measurement::from_samples(
            vec![
                Duration::from_millis(10),
                Duration::from_millis(11),
                Duration::from_millis(500), // scheduler hiccup
            ],
            1,
        )
        .unwrap();
        assert_eq!(m.median, Duration::from_millis(11));
        assert_eq!(m.min, Duration::from_millis(10));
        assert_eq!(m.max, Duration::from_millis(500));
        assert_eq!(m.outliers, 0, "no rejection under five samples");
        // Even sample counts average the two middle samples.
        let even = Measurement::from_samples(
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(30),
                Duration::from_millis(40),
            ],
            1,
        )
        .unwrap();
        assert_eq!(even.median, Duration::from_millis(25));
        assert!(Measurement::from_samples(Vec::new(), 0).is_none());
    }

    #[test]
    fn iqr_rejection_drops_the_hiccup_from_the_median() {
        // With an even sample count, one huge sample shifts the plain
        // median ((12+13)/2 = 12.5 ms here); Tukey rejection restores the
        // honest center while the raw spread still shows the hiccup.
        let m = Measurement::from_samples(
            vec![
                Duration::from_millis(10),
                Duration::from_millis(11),
                Duration::from_millis(12),
                Duration::from_millis(13),
                Duration::from_millis(14),
                Duration::from_millis(500), // scheduler hiccup
            ],
            1,
        )
        .unwrap();
        assert_eq!(m.outliers, 1);
        assert_eq!(m.median, Duration::from_millis(12));
        assert_eq!(m.max, Duration::from_millis(500), "raw spread survives");
        assert_eq!(m.samples, 6, "sample count stays raw");
        assert!(
            m.spread_string().contains("1 outlier dropped"),
            "got {}",
            m.spread_string()
        );
    }

    #[test]
    fn iqr_rejection_keeps_clean_runs_untouched() {
        let samples: Vec<Duration> = (0..10).map(|i| Duration::from_millis(20 + i)).collect();
        let m = Measurement::from_samples(samples, 1).unwrap();
        assert_eq!(m.outliers, 0);
        assert_eq!(m.median, Duration::from_micros(24_500));
        assert!(!m.spread_string().contains("outlier"));
    }

    #[test]
    fn speedup_label_direction() {
        let ms = Duration::from_millis;
        assert_eq!(speedup_label(ms(100), ms(50)), "x2.00 faster");
        assert_eq!(speedup_label(ms(50), ms(100)), "x2.00 slower");
        assert_eq!(speedup_label(ms(100), ms(100)), "no change");
        assert_eq!(speedup_label(Duration::ZERO, ms(1)), "no change");
    }

    #[test]
    fn store_measurement_appends_bench_rows() {
        // Call the store hook directly (rather than through the
        // `CUTELOCK_BENCH_STORE` env var, which would race with the other
        // tests running benches in parallel).
        use cutelock_store::Value;
        let path = std::env::temp_dir().join(format!(
            "cutelock-shim-store-{}-{:?}.clk",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_str = path.to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&path);

        let m = Measurement {
            median: Duration::from_nanos(1_234),
            min: Duration::from_nanos(1_000),
            max: Duration::from_nanos(9_999),
            samples: 7,
            outliers: 1,
            warm_up_iters: 3,
        };
        store_measurement(&path_str, "grp/bench_name", &m).unwrap();
        store_measurement(&path_str, "bare", &m).unwrap(); // no '/': empty group

        let t = cutelock_store::format::read_table(&path_str).unwrap();
        assert_eq!(t.schema(), &bench_store_schema());
        assert_eq!(t.rows(), 2, "re-opening the store appends");
        assert_eq!(t.value(0, 0), Value::str("grp"));
        assert_eq!(t.value(0, 1), Value::str("bench_name"));
        assert_eq!(t.value(0, 2), Value::U64(1_234));
        assert_eq!(t.value(0, 3), Value::U64(1_000));
        assert_eq!(t.value(0, 4), Value::U64(9_999));
        assert_eq!(t.value(0, 5), Value::U64(7));
        assert_eq!(t.value(0, 6), Value::U64(1));
        assert_eq!(t.value(0, 7), Value::U64(3));
        assert_eq!(t.value(1, 0), Value::str(""));
        assert_eq!(t.value(1, 1), Value::str("bare"));

        let _ = std::fs::remove_file(&path);
    }
}
