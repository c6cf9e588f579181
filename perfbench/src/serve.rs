//! The `serve` and `fresh` workloads: an in-process `cutelock_jobs`
//! daemon (two workers, the default) driven over TCP by two closed-loop
//! clients.
//!
//! * The batch connection submits attack jobs in bursts of [`BURST`]:
//!   every SUBMIT of the burst, then `RESULT --wait` on each.
//! * The express connection submits one verify job at a time.
//!
//! On `serve` one line in three repeats an earlier line of its stream, so
//! repeats read the result cache while fresh lines write it. On `fresh`
//! every line is new, so the cache is written but never read. A job is
//! timed from its SUBMIT being sent to its `RESULT --wait` being answered.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cutelock_attacks::{AttackOutcome, AttackSpec, AttackStrategy, Portfolio};
use cutelock_circuits::{iscas89, itc99};
use cutelock_core::baselines::XorLock;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::{KeySchedule, LockedCircuit};
use cutelock_jobs::{parse_submit, Client, Limits, ServeConfig, Server};
use cutelock_sat::equiv::EquivResult;

use crate::held::derive;
use crate::probe::{self, CERTIFY_FRAMES};
use crate::trace::Tracer;
use crate::{Args, Measured, SETUP_REPS};

/// Jobs per batch burst.
pub const BURST: usize = 4;
/// With repeats on, every `REPEAT_EVERY`-th line of a stream repeats an
/// earlier one.
const REPEAT_EVERY: usize = 3;
/// Lines generated per stream; a run uses a prefix.
const STREAM_LEN: usize = 3000;
/// Distinct lines per stream replayed in-process by a traced run.
const REPLAYED: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Str,
    Xor,
}

/// One job, as the benchmark generated it.
#[derive(Debug, Clone)]
pub struct Job {
    /// `None` for a verify job.
    pub mode: Option<AttackStrategy>,
    pub circuit: &'static str,
    pub scheme: Scheme,
    pub keys: usize,
    pub key_bits: usize,
    pub seed: u64,
}

impl Job {
    /// The SUBMIT operand.
    pub fn line(&self) -> String {
        let lock = match self.scheme {
            Scheme::Str => format!(
                "--scheme str --keys {} --key-bits {} --ffs 1",
                self.keys, self.key_bits
            ),
            Scheme::Xor => format!("--scheme xor --key-bits {}", self.key_bits),
        };
        let race = match self.scheme {
            Scheme::Str => "",
            Scheme::Xor => " --portfolio 2 --share on",
        };
        match self.mode {
            Some(m) => format!(
                "attack --mode {m} --circuit {} {lock} --seed {}{race}",
                self.circuit, self.seed
            ),
            None => format!(
                "verify --circuit {} {lock} --seed {} --frames {CERTIFY_FRAMES}",
                self.circuit, self.seed
            ),
        }
    }

    /// The attack spec the daemon builds for this job.
    fn spec(&self, mode: AttackStrategy) -> AttackSpec {
        let portfolio = match self.scheme {
            Scheme::Str => Portfolio::single(),
            Scheme::Xor => Portfolio::new(2, 1).with_share(true),
        };
        AttackSpec::new(mode).with_portfolio(portfolio)
    }

    /// The lock the daemon builds for this job (its `lock_builtin`).
    fn lock(&self, tr: &Tracer) -> Result<LockedCircuit, String> {
        let nl = tr
            .time("circuits.generate", None, None, |_| {
                iscas89(self.circuit).or_else(|_| itc99(self.circuit))
            })
            .map_err(|e| e.to_string())?
            .netlist;
        probe::lock(tr, || match self.scheme {
            Scheme::Str => CuteLockStr::new(CuteLockStrConfig {
                keys: self.keys,
                key_bits: self.key_bits,
                locked_ffs: 1,
                seed: self.seed,
                schedule: None,
                ..Default::default()
            })
            .lock(&nl),
            Scheme::Xor => XorLock::new(self.key_bits, self.seed).lock(&nl),
        })
    }
}

/// Batch templates `(scheme, circuit, keys, key_bits, mode)`: Cute-Lock
/// cells that hold and XOR cells that break, on circuits small enough
/// that a job's latency is the daemon's own cost. XOR attacks race a
/// 2-entrant sharing portfolio. Left out: `attack int` on b03 (seconds)
/// and XOR cells on b03, b08, b10 and s349 (up to a quarter second on
/// some lock seeds).
const BATCH: &[(Scheme, &str, usize, usize, &str)] = &[
    (Scheme::Str, "s27", 4, 2, "int"),
    (Scheme::Xor, "s298", 0, 12, "sat"),
    (Scheme::Str, "b01", 2, 2, "kc2"),
    (Scheme::Xor, "s27", 0, 4, "appsat"),
    (Scheme::Str, "b02", 2, 2, "bbo"),
    (Scheme::Xor, "s27", 0, 4, "double-dip"),
    (Scheme::Str, "s27", 4, 2, "kc2"),
    (Scheme::Xor, "b01", 0, 8, "sat"),
    (Scheme::Str, "b06", 2, 1, "rane"),
    (Scheme::Xor, "s27", 0, 4, "int"),
    (Scheme::Str, "b02", 2, 2, "kc2"),
    (Scheme::Xor, "b01", 0, 8, "appsat"),
];

/// Express templates `(scheme, circuit, keys, key_bits)`: verifies of a
/// few milliseconds. Left out: s5378 (its verify took 63 s), s832 (half
/// a second), s349, b08 and b10 (up to 190 ms).
const EXPRESS: &[(Scheme, &str, usize, usize)] = &[
    (Scheme::Str, "s27", 4, 2),
    (Scheme::Xor, "s298", 0, 12),
    (Scheme::Str, "b01", 2, 2),
    (Scheme::Str, "s298", 2, 3),
    (Scheme::Xor, "b01", 0, 8),
    (Scheme::Str, "b06", 2, 1),
    (Scheme::Xor, "s27", 0, 4),
    (Scheme::Str, "b02", 2, 2),
];

/// One stream line: the job and, for a repeat, the index of the line it
/// repeats.
#[derive(Debug, Clone)]
pub struct Line {
    pub job: Job,
    pub text: String,
    pub repeat_of: Option<usize>,
}

/// The seeded line stream of one connection. Repeats only point at lines
/// of earlier bursts, whose results are already cached.
pub fn stream(seed: u64, express: bool, repeats: bool, len: usize) -> Vec<Line> {
    let (tag, burst) = if express {
        ("express", 1)
    } else {
        ("batch", BURST)
    };
    let mut lines: Vec<Line> = Vec::with_capacity(len);
    let mut fresh: Vec<usize> = Vec::new();
    for i in 0..len {
        let done = fresh.iter().filter(|&&f| f < i - i % burst).count();
        if repeats && i % REPEAT_EVERY == REPEAT_EVERY - 1 && done > 0 {
            let pick =
                fresh[(derive(seed, &[tag, "repeat", &i.to_string()]) % done as u64) as usize];
            lines.push(Line {
                repeat_of: Some(pick),
                ..lines[pick].clone()
            });
            continue;
        }
        let f = fresh.len();
        let seed = derive(seed, &[tag, &f.to_string()]) % 1_000_000;
        let job = if express {
            let (scheme, circuit, keys, key_bits) = EXPRESS[f % EXPRESS.len()];
            Job {
                mode: None,
                circuit,
                scheme,
                keys,
                key_bits,
                seed,
            }
        } else {
            let (scheme, circuit, keys, key_bits, mode) = BATCH[f % BATCH.len()];
            Job {
                mode: AttackStrategy::parse(mode),
                circuit,
                scheme,
                keys,
                key_bits,
                seed,
            }
        };
        fresh.push(i);
        lines.push(Line {
            text: job.line(),
            job,
            repeat_of: None,
        });
    }
    lines
}

/// A daemon serving on an ephemeral localhost port from its own thread.
struct Daemon {
    addr: std::net::SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> Result<Self, String> {
        let server =
            Server::bind("127.0.0.1:0", ServeConfig::default()).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Self { addr, thread })
    }

    /// Connects a client and sends its one untimed request.
    fn connect(&self) -> Result<Client, String> {
        let mut c = Client::connect(self.addr).map_err(|e| e.to_string())?;
        c.request("STATUS 0").map_err(|e| e.to_string())?;
        Ok(c)
    }

    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr).map_err(|e| e.to_string())?;
        c.request("SHUTDOWN").map_err(|e| e.to_string())?;
        match self.thread.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
pub struct JobRun {
    pub line: usize,
    pub sent: Instant,
    pub submitted: Instant,
    pub wait_sent: Instant,
    pub done: Instant,
    pub response: String,
}

impl JobRun {
    pub fn latency(&self) -> Duration {
        self.done - self.sent
    }

    fn field(&self, key: &str) -> Option<&str> {
        self.response
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
    }

    pub fn cached(&self) -> bool {
        self.field("cached") == Some("true")
    }

    /// The response without the fields that legitimately differ between a
    /// computation and its cached replay.
    pub fn payload(&self) -> String {
        self.response
            .split_whitespace()
            .filter(|t| {
                !["id=", "cached=", "worker="]
                    .iter()
                    .any(|p| t.starts_with(p))
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn request(c: &mut Client, line: &str) -> Result<String, String> {
    c.request(line).map_err(|e| format!("`{line}`: {e}"))
}

/// Drives one connection: bursts of `burst` SUBMITs, then `RESULT --wait`
/// on each, while `more(lines sent so far)` holds. A traced drive also
/// sends one `STATUS` per finished job after each burst, outside every
/// job's span.
fn drive(
    c: &mut Client,
    lines: &[Line],
    burst: usize,
    express: bool,
    tr: &Tracer,
    mut more: impl FnMut(usize) -> bool,
) -> Result<Vec<JobRun>, String> {
    let mut runs = Vec::new();
    while more(runs.len()) && runs.len() + burst <= lines.len() {
        let mut sent = Vec::with_capacity(burst);
        let first = runs.len();
        for (li, line) in lines.iter().enumerate().skip(first).take(burst) {
            let t0 = Instant::now();
            let r = request(c, &format!("SUBMIT {}", line.text))?;
            let id = r
                .strip_prefix("OK id=")
                .ok_or_else(|| format!("SUBMIT {}: {r}", line.text))?
                .to_string();
            sent.push((li, t0, Instant::now(), id));
        }
        let mut ids = Vec::with_capacity(burst);
        for (line, sent, submitted, id) in sent {
            let wait_sent = Instant::now();
            let response = request(c, &format!("RESULT {id} --wait"))?;
            let run = JobRun {
                line,
                sent,
                submitted,
                wait_sent,
                done: Instant::now(),
                response,
            };
            if tr.on() {
                let op = Some(line as u64 + if express { 1 << 32 } else { 0 });
                let kind = if express { "op.express" } else { "op.job" };
                let parent = tr.record(kind, op, None, run.sent, run.done);
                let submit = if run.cached() {
                    "jobs.submit_hit"
                } else {
                    "jobs.submit_miss"
                };
                tr.record(submit, op, parent, run.sent, run.submitted);
                tr.record("jobs.result_wait", op, parent, run.wait_sent, run.done);
            }
            ids.push((id, line));
            runs.push(run);
        }
        if tr.on() {
            for (id, line) in ids {
                let op = Some(line as u64 + if express { 1 << 32 } else { 0 });
                let t0 = Instant::now();
                request(c, &format!("STATUS {id}"))?;
                tr.record("jobs.status", op, None, t0, Instant::now());
            }
        }
    }
    Ok(runs)
}

/// Output checks of one stream; returns the failed line indices with why.
fn check(lines: &[Line], runs: &[JobRun]) -> HashMap<usize, String> {
    let mut bad = HashMap::new();
    let mut first: HashMap<&str, String> = HashMap::new();
    for run in runs {
        let line = &lines[run.line];
        let payload = run.payload();
        let verdict = run.field("verdict").unwrap_or("");
        let problem = if run.field("state") != Some("done") {
            Some(format!("ended `{}`", run.response))
        } else {
            match (line.job.mode, line.job.scheme) {
                (None, _) if !payload.contains("equivalent frames=") => {
                    Some(format!("verify read `{payload}`"))
                }
                (Some(_), Scheme::Str) if verdict.is_empty() || verdict.starts_with("Equal") => {
                    Some(format!("Cute-Lock did not hold: `{payload}`"))
                }
                (Some(_), Scheme::Xor) if !verdict.starts_with("Equal") => {
                    Some(format!("XOR attack did not break: `{payload}`"))
                }
                _ => match first.get(line.text.as_str()) {
                    Some(p) if *p != payload => {
                        Some(format!("replay `{payload}` differs from `{p}`"))
                    }
                    Some(_) => None,
                    None => {
                        first.insert(&line.text, payload);
                        None
                    }
                },
            }
        };
        if let Some(p) = problem {
            bad.insert(run.line, format!("{}: {p}", line.text));
        }
    }
    bad
}

/// Both streams, each on its own connection, until `budget` runs out or,
/// with `counts`, for exactly that many lines of each.
fn load(
    (cb, ce): (&mut Client, &mut Client),
    batch: &[Line],
    express: &[Line],
    tr: &Tracer,
    budget: Duration,
    counts: Option<(usize, usize)>,
) -> Result<(Vec<JobRun>, Vec<JobRun>, Duration), String> {
    let start = Instant::now();
    let (b, e) = std::thread::scope(|s| {
        let bt = s.spawn(|| {
            drive(cb, batch, BURST, false, tr, |n| match counts {
                Some((nb, _)) => n < nb,
                None => start.elapsed() < budget,
            })
        });
        let et = s.spawn(|| {
            drive(ce, express, 1, true, tr, |n| match counts {
                Some((_, ne)) => n < ne,
                None => start.elapsed() < budget,
            })
        });
        (bt.join(), et.join())
    });
    let wall = start.elapsed();
    let b = b.map_err(|_| "batch client panicked".to_string())??;
    let e = e.map_err(|_| "express client panicked".to_string())??;
    Ok((b, e, wall))
}

/// Runs the workload; `repeats` selects `serve` (on) or `fresh` (off).
pub fn run(args: &Args, tr: &Tracer, repeats: bool) -> Result<Measured, String> {
    let batch = stream(args.seed, false, repeats, STREAM_LEN);
    let express = stream(args.seed, true, repeats, STREAM_LEN);
    let quiet = Tracer::new(false);

    // Set-up: bind, spawn workers, connect both clients, one untimed
    // request each. The last daemon and its clients serve the timed phase.
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        if let Some((d, cb, ce)) = served.take() {
            drop((cb, ce));
            Daemon::stop(d)?;
        }
        let t0 = Instant::now();
        let d = Daemon::start()?;
        let (cb, ce) = (d.connect()?, d.connect()?);
        setup_s.push(t0.elapsed().as_secs_f64());
        served = Some((d, cb, ce));
    }
    let (daemon, mut cb, mut ce) = served.expect("set-up ran");

    let budget = Duration::from_secs_f64(args.seconds);
    let phase_budget = if tr.on() { budget / 2 } else { budget };
    let (b, e, wall) = load(
        (&mut cb, &mut ce),
        &batch,
        &express,
        &quiet,
        phase_budget,
        None,
    )?;
    drop((cb, ce));
    daemon.stop()?;

    let mut bad = check(&batch, &b);
    let bad_express = check(&express, &e);
    let failed = b.iter().filter(|r| bad.contains_key(&r.line)).count()
        + e.iter()
            .filter(|r| bad_express.contains_key(&r.line))
            .count();
    let mut digest: Vec<String> = b
        .iter()
        .map(|r| format!("batch {:4} {}", r.line, r.payload()))
        .chain(
            e.iter()
                .map(|r| format!("express {:4} {}", r.line, r.payload())),
        )
        .collect();
    digest.sort();
    digest.dedup();

    let mut overhead = None;
    let mut notes = vec![format!(
        "{} batch jobs ({} cached), {} express jobs ({} cached), burst {BURST}",
        b.len(),
        b.iter().filter(|r| r.cached()).count(),
        e.len(),
        e.iter().filter(|r| r.cached()).count()
    )];
    if tr.on() {
        // The same lines again on a fresh daemon (empty cache), traced.
        let d = Daemon::start()?;
        let (mut cb, mut ce) = (d.connect()?, d.connect()?);
        let counts = Some((b.len(), e.len()));
        let (tb, te, _) = load((&mut cb, &mut ce), &batch, &express, tr, budget, counts)?;
        drop((cb, ce));
        d.stop()?;
        let sum = |runs: &[JobRun]| runs.iter().map(JobRun::latency).sum::<Duration>();
        overhead = Some((sum(&b) + sum(&e), sum(&tb) + sum(&te), tb.len() + te.len()));
        for (lines, runs) in [(&batch, &tb), (&express, &te)] {
            for (li, why) in check(lines, runs) {
                bad.insert(li, format!("traced replay: {why}"));
            }
            for r in runs.iter() {
                tr.count("jobs.cache_hit_frac", f64::from(u8::from(r.cached())));
            }
            replay(lines, runs, tr, &mut bad);
        }
        notes.push(format!(
            "in-process replay of up to {REPLAYED} distinct lines per stream"
        ));
    }
    let mut problems: Vec<String> = bad.into_values().chain(bad_express.into_values()).collect();
    problems.sort();
    Ok(Measured {
        setup_s,
        op_ns: b.iter().map(|r| r.latency().as_nanos() as u64).collect(),
        express_ns: e.iter().map(|r| r.latency().as_nanos() as u64).collect(),
        timed: wall,
        attempted: b.len() + e.len(),
        failed,
        problems,
        digest,
        overhead,
        notes,
    })
}

/// Runs the first [`REPLAYED`] distinct fresh lines of a traced stream
/// in-process: `parse_submit` plus the job's work (span `jobs.work`),
/// then the same job call by call through the layers. Queue wait is a
/// job's latency minus its in-process work.
fn replay(lines: &[Line], runs: &[JobRun], tr: &Tracer, bad: &mut HashMap<usize, String>) {
    let stop = Arc::new(AtomicBool::new(false));
    let fresh = runs
        .iter()
        .filter(|r| lines[r.line].repeat_of.is_none() && !r.cached())
        .take(REPLAYED);
    for run in fresh {
        let line = &lines[run.line];
        let t0 = Instant::now();
        let work = tr.time("jobs.work", None, None, |_| {
            parse_submit(&line.text, &Limits::default()).and_then(|req| (req.work)(&stop))
        });
        let work_time = t0.elapsed();
        tr.count(
            "jobs.queue_wait_ms",
            run.latency().saturating_sub(work_time).as_secs_f64() * 1e3,
        );
        match work {
            Ok(text) if run.response.contains(&text) => {}
            other => {
                bad.insert(
                    run.line,
                    format!("{}: in-process work gave {other:?}", line.text),
                );
            }
        }
        if let Err(e) = layers(&line.job, tr) {
            bad.insert(run.line, format!("{}: {e}", line.text));
        }
    }
}

/// One job's work, call by call: lock, simplify, attack, encode probe,
/// then the key check (a found key must corrupt nothing and certify, an
/// x..x key must corrupt); or, for a verify, the certification.
fn layers(job: &Job, tr: &Tracer) -> Result<(), String> {
    let certify = |lc: &LockedCircuit| match probe::certify(tr, lc, None, None)? {
        EquivResult::Equivalent => Ok(()),
        other => Err(format!("certification gave {other:?}")),
    };
    let lc = job.lock(tr)?;
    let Some(mode) = job.mode else {
        return certify(&lc);
    };
    let (simple, report) = probe::attack_cell(tr, &lc, &job.spec(mode), None, None);
    probe::encode(tr, &simple);
    let key = match &report.outcome {
        AttackOutcome::KeyFound(k) | AttackOutcome::WrongKey(k) => k.clone(),
        _ => return Ok(()),
    };
    let rate = probe::corruption(tr, &lc, &key, job.seed)?;
    match (&report.outcome, rate == 0.0) {
        (AttackOutcome::KeyFound(_), true) => {
            let mut fixed = lc.clone();
            fixed.schedule = KeySchedule::constant(key, lc.schedule.num_keys());
            certify(&fixed)
        }
        (AttackOutcome::KeyFound(_), false) => Err(format!("found key corrupts {rate}")),
        (_, true) => Err("x..x key corrupts nothing".into()),
        _ => Ok(()),
    }
}

/// A small fixed daemon connection for workloads whose operations do not go
/// through the daemon: express verify lines on one connection, one at a
/// time, traced like `serve`, then replayed in-process.
pub fn jobs_probe(seed: u64, tr: &Tracer) -> Result<Vec<String>, String> {
    const N: usize = 9;
    let lines = stream(seed, true, true, N);
    let d = Daemon::start()?;
    let mut c = d.connect()?;
    let runs = drive(&mut c, &lines, 1, true, tr, |n| n < N)?;
    drop(c);
    d.stop()?;
    for r in &runs {
        tr.count("jobs.cache_hit_frac", f64::from(u8::from(r.cached())));
    }
    let mut bad = check(&lines, &runs);
    replay(&lines, &runs, tr, &mut bad);
    Ok(bad.into_values().collect())
}
