//! The Cute-Lock workspace benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload held|serve|fresh --seed N --seconds S --trace 0|1
//! ```
//!
//! * `held` — the paper's Tables III–IV campaign: Cute-Lock-Str on seqgen
//!   circuits × {bbo, int, kc2, rane} and Cute-Lock-Beh on random FSMs ×
//!   {bbo, int, kc2}, at the paper's (k, ki), full table budget, one cell
//!   at a time on one thread. Every cell must hold. It is not listed in
//!   `BENCHMARK.json`: its timings are bound by the processor, and on a
//!   shared host they move with the machine's speed by more than the
//!   bounds allow.
//! * `serve` — an in-process job daemon under a batch and an express
//!   client, one line in three a repeat that reads the result cache (see
//!   `serve.rs`).
//! * `fresh` — the same daemon and clients with every line new, so the
//!   result cache is never read.
//!
//! The seed salts circuit generation and sets the lock seeds. The run
//! sets up (several times; `setup_s` is the median), measures for
//! `--seconds`, then checks every output outside the timed phase. The
//! last line of standard output is one JSON object: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. A traced run
//! measures an untraced half, replays the same operations with spans on,
//! prints the per-layer table and the tracing overhead, and writes the
//! spans to `perfbench/out/`.

mod held;
mod probe;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::Duration;

use stats::{median_f64, summarize};
use trace::Tracer;

/// Number of times set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload held|serve|fresh [--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("{flag}: `{value}` is not valid");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if !["held", "serve", "fresh"].contains(&args.workload.as_str()) {
            return Err(format!("unknown workload `{}`", args.workload));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// What a workload run measured and checked.
pub struct Measured {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each operation of the timed phase.
    pub op_ns: Vec<u64>,
    /// Latency of each express operation of the timed phase.
    pub express_ns: Vec<u64>,
    /// The time `ops_per_s` divides the operations by: the timed phase's
    /// wall time on `serve`, the summed cell latencies on `held`.
    pub timed: Duration,
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed output check.
    pub problems: Vec<String>,
    /// One line per distinct operation: its deterministic result.
    pub digest: Vec<String>,
    /// `(untraced, traced, ops)`: summed op latency of the same ops in the
    /// untraced and the traced phase.
    pub overhead: Option<(Duration, Duration, usize)>,
    pub notes: Vec<String>,
}

fn run(args: &Args, tr: &Tracer) -> Result<Measured, String> {
    let mut m = match args.workload.as_str() {
        "held" => held::run(&held::plan(args.seed), args, tr)?,
        "serve" => serve::run(args, tr, true)?,
        _ => serve::run(args, tr, false)?,
    };
    if tr.on() {
        m.problems.extend(probe::share(tr).err());
        m.notes
            .push("attacks.share_* from the clause-sharing probe (s510 XorLock(12, 3))".into());
    }
    if tr.on() && args.workload == "held" {
        // The daemon is not on this workload's path; a short fixed connection
        // still measures the jobs layer.
        m.problems.extend(serve::jobs_probe(args.seed, tr)?);
        m.notes
            .push("jobs.* from a 9-line probe connection (no daemon on this path)".into());
    }
    Ok(m)
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(name, value, unit)` triples of one JSON metrics object.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(m: &Measured) -> Result<Metrics, String> {
    let op = summarize(&m.op_ns).ok_or("no operation completed")?;
    let ex = summarize(&m.express_ns).ok_or("no express operation completed")?;
    let setup_s = median_f64(&m.setup_s).unwrap_or(0.0);
    let ops_per_s = m.op_ns.len() as f64 / m.timed.as_secs_f64();
    println!(
        "setup_s        {setup_s:>10.4} s    median of {} set-ups {:?}",
        m.setup_s.len(),
        m.setup_s
    );
    println!(
        "ops_per_s      {ops_per_s:>10.4} ops/s {} ops in {:.3} s",
        m.op_ns.len(),
        m.timed.as_secs_f64()
    );
    println!("op_p50_ms      {:>10.4} ms   n={}", op.p50_ms, op.n);
    println!(
        "op_tail_ms     {:>10.4} ms   {} n={}",
        op.tail_ms,
        op.tail_label(),
        op.n
    );
    println!("express_p50_ms {:>10.4} ms   n={}", ex.p50_ms, ex.n);
    println!(
        "express_tail_ms{:>10.4} ms   {} n={}",
        ex.tail_ms,
        ex.tail_label(),
        ex.n
    );
    println!(
        "fail_frac      {:>10.4}      {} failed / {} attempted",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
    // Printed, not gated: on `serve` it moved 13.6–18.4 MB across seeds
    // with the timing of the daemon's threads.
    println!("peak_rss_mb    {:>10.4} MB", peak_rss_mb());
    Ok(vec![
        ("setup_s".into(), setup_s, "s"),
        ("ops_per_s".into(), ops_per_s, "ops/s"),
        ("op_p50_ms".into(), op.p50_ms, "ms"),
        ("op_tail_ms".into(), op.tail_ms, "ms"),
        ("express_p50_ms".into(), ex.p50_ms, "ms"),
        ("express_tail_ms".into(), ex.tail_ms, "ms"),
    ])
}

/// Median of a span's durations in ms, with its sample count.
fn span_ms(tr: &Tracer, name: &str) -> (f64, usize) {
    let d = tr.durations(name);
    (summarize(&d).map_or(0.0, |s| s.p50_ms), d.len())
}

/// Mean of a counter, with its sum and samples as the base.
fn mean(tr: &Tracer, name: &str) -> (f64, String) {
    let (sum, n) = tr.counter(name);
    let v = if n == 0 { 0.0 } else { sum / n as f64 };
    (v, format!("mean: {sum} / {n} samples"))
}

fn per_layer(m: &Measured, tr: &Tracer) -> Metrics {
    println!("per-layer spans (busy = span time, self = span minus its child spans):");
    println!(
        "  {:<22} {:>7} {:>12} {:>12}",
        "span", "calls", "busy ms", "self ms"
    );
    for (name, (calls, busy, own)) in tr.table() {
        println!(
            "  {name:<22} {calls:>7} {:>12.3} {:>12.3}",
            busy.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
    let mut out: Metrics = Vec::new();
    let mut line = |name: &str, v: f64, unit: &'static str, base: String| {
        println!("  {name:<24} {v:>14.4} {unit:<6} {base}");
        out.push((name.to_string(), v, unit));
    };
    println!("per-layer metrics (value, unit, base):");
    for (metric, span) in [
        ("circuits.generate_ms", "circuits.generate"),
        ("core.lock_ms", "core.lock"),
        ("netlist.simplify_ms", "netlist.simplify"),
        ("sat.encode_ms", "sat.encode"),
        ("attacks.attack_ms", "attacks.run_attack"),
        ("attacks.certify_ms", "attacks.certify"),
        ("sim.corruption_ms", "sim.corruption"),
        ("jobs.submit_hit_ms", "jobs.submit_hit"),
        ("jobs.submit_miss_ms", "jobs.submit_miss"),
        ("jobs.rtt_ms", "jobs.status"),
        ("jobs.work_ms", "jobs.work"),
    ] {
        let (v, n) = span_ms(tr, span);
        line(metric, v, "ms", format!("median of {n} `{span}` spans"));
    }
    for (metric, unit) in [
        ("core.locked_gates", "count"),
        ("netlist.gates_removed", "count"),
        ("sat.clauses", "count"),
        ("sat.conflicts", "count"),
        ("sat.propagations", "count"),
        ("attacks.iterations", "count"),
        ("attacks.bound", "count"),
        ("attacks.share_exported", "count"),
        ("jobs.queue_wait_ms", "ms"),
        ("jobs.cache_hit_frac", "frac"),
    ] {
        let (v, base) = mean(tr, metric);
        line(metric, v, unit, base);
    }
    // Printed, not a metric: no solver of these workloads collects
    // garbage (their queries stay far below the database-reduction limit).
    let (gc, gc_n) = mean(tr, "sat.gc_runs");
    println!(
        "  {:<24} {gc:>14.4} {:<6} {gc_n} (not in the JSON)",
        "sat.gc_runs", "count"
    );
    let (props, _) = tr.counter("sat.propagations");
    let attack_ms: f64 = tr
        .durations("attacks.run_attack")
        .iter()
        .map(|&d| d as f64 / 1e6)
        .sum();
    line(
        "sat.props_per_ms",
        if attack_ms > 0.0 {
            props / attack_ms
        } else {
            0.0
        },
        "1/ms",
        format!("{props} propagations / {attack_ms:.3} ms in attacks.run_attack"),
    );
    let (exported, _) = tr.counter("attacks.share_exported");
    let (imported, _) = tr.counter("attacks.share_imported");
    line(
        "attacks.share_imported",
        if exported > 0.0 {
            imported / exported
        } else {
            0.0
        },
        "ratio",
        format!("{imported} imported / {exported} exported clauses, sharing probe"),
    );
    if let Some((untraced, traced, n)) = m.overhead {
        let d = traced.as_secs_f64() - untraced.as_secs_f64();
        println!(
            "tracing overhead: {:+.3} ms ({:+.3}%) = traced {:.3} ms - untraced {:.3} ms, same {n} ops",
            d * 1e3,
            100.0 * d / untraced.as_secs_f64().max(1e-9),
            traced.as_secs_f64() * 1e3,
            untraced.as_secs_f64() * 1e3
        );
    }
    out
}

fn write_spans(args: &Args, tr: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    std::fs::write(&path, tr.spans_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn json(correct: bool, m: &Measured, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.attempted.max(1),
        m.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let tr = Tracer::new(args.trace);
    let m = match run(&args, &tr) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for d in &m.digest {
        println!("digest {d}");
    }
    for n in &m.notes {
        println!("note: {n}");
    }
    for p in &m.problems {
        println!("CHECK FAILED: {p}");
    }
    let metrics = if args.trace {
        let metrics = per_layer(&m, &tr);
        match write_spans(&args, &tr) {
            Ok(path) => println!("spans: {} written to {path}", tr.span_count()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        metrics
    } else {
        match end_to_end(&m) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    };
    let correct = m.problems.is_empty() && m.failed == 0;
    println!("{}", json(correct, &m, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;
    use held::Plan;

    fn args(workload: &str, seconds: f64) -> Args {
        Args {
            workload: workload.into(),
            seed: 5,
            seconds,
            trace: false,
        }
    }

    /// The first `n` operations of a plan and the locks up to the last
    /// one they use.
    fn reduced(mut plan: Plan, n: usize) -> Plan {
        plan.ops.truncate(n);
        let last = plan
            .ops
            .iter()
            .map(|op| match *op {
                held::Op::Cell { lock, .. } | held::Op::Verify { lock } => lock,
            })
            .max()
            .expect("ops use locks");
        plan.locks.truncate(last + 1);
        plan
    }

    #[test]
    fn same_seed_same_operations_and_fingerprints() {
        let (a, b, c) = (held::plan(9), held::plan(9), held::plan(10));
        assert_eq!(a.ops, b.ops);
        let labels = |p: &Plan| p.locks.iter().map(|l| l.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b));
        let quiet = Tracer::new(false);
        let fps = |p: &Plan| {
            p.locks[..8]
                .iter()
                .map(|s| held::build(s, &quiet).unwrap().fingerprint())
                .collect::<Vec<_>>()
        };
        assert_eq!(fps(&a), fps(&b), "same seed, same locks");
        assert_ne!(fps(&a), fps(&c), "another seed salts the circuits");
        let lines = |seed, express| {
            serve::stream(seed, express, true, 60)
                .into_iter()
                .map(|l| l.text)
                .collect::<Vec<_>>()
        };
        for express in [false, true] {
            assert_eq!(lines(3, express), lines(3, express));
            assert_ne!(lines(3, express), lines(4, express));
        }
    }

    #[test]
    fn repeats_point_at_earlier_bursts() {
        let lines = serve::stream(2, false, true, 90);
        let mut repeats = 0;
        for (i, l) in lines.iter().enumerate() {
            if let Some(j) = l.repeat_of {
                assert!(
                    j < i - i % serve::BURST,
                    "line {i} repeats {j} of its own burst"
                );
                assert_eq!(l.text, lines[j].text);
                repeats += 1;
            }
        }
        assert!(
            repeats >= 25,
            "about one line in three repeats, got {repeats}"
        );
        let fresh = serve::stream(2, false, false, 90);
        assert!(fresh.iter().all(|l| l.repeat_of.is_none()));
        let texts: std::collections::BTreeSet<_> = fresh.iter().map(|l| &l.text).collect();
        assert_eq!(texts.len(), fresh.len(), "fresh lines never repeat");
    }

    #[test]
    fn smoke_held() {
        let m = held::run(
            &reduced(held::plan(5), 12),
            &args("held", 0.5),
            &Tracer::new(false),
        )
        .unwrap();
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert_eq!(m.failed, 0);
        assert!(!m.op_ns.is_empty() && m.setup_s.len() == SETUP_REPS);
        assert!(
            m.digest.iter().all(|d| !d.contains("Equal(")),
            "held cells must hold"
        );
    }

    #[test]
    fn smoke_held_traced() {
        let tr = Tracer::new(true);
        let m = held::run(&reduced(held::plan(6), 8), &args("held", 0.5), &tr).unwrap();
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert!(m.overhead.is_some());
        let table = tr.table();
        for span in [
            "op.cell",
            "netlist.simplify",
            "attacks.run_attack",
            "core.lock",
            "sat.encode",
        ] {
            assert!(table.contains_key(span), "no `{span}` span");
        }
    }

    #[test]
    fn sharing_probe_exchanges_clauses() {
        let tr = Tracer::new(true);
        probe::share(&tr).unwrap();
        assert!(tr.counter("attacks.share_exported").0 > 0.0);
        assert!(tr.counter("attacks.share_imported").0 > 0.0);
    }

    #[test]
    fn smoke_serve_and_fresh() {
        for (workload, repeats) in [("serve", true), ("fresh", false)] {
            let m = serve::run(&args(workload, 1.0), &Tracer::new(false), repeats).unwrap();
            assert!(m.problems.is_empty(), "{workload}: {:?}", m.problems);
            assert!(m.op_ns.len() >= serve::BURST && !m.express_ns.is_empty());
        }
    }
}
