//! The `held` workload: the paper's Tables III–IV lock-vs-attack campaign.
//!
//! An operation is one attack cell at the paper's (k, ki) and the full
//! table budget, run the way `run_attack` runs it with simplification on:
//! `simplify_locked`, then `run_attack` with simplification off. An
//! express operation is one SAT certification of a lock under its own
//! schedule (`prove_locked_equivalence`), the work the daemon's express
//! lane does for a `verify` job. Cells run one at a time on one thread,
//! with no portfolio.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cutelock_attacks::{simplify_locked, AttackOutcome, AttackReport, AttackStrategy};
use cutelock_bench::params::{TABLE3, TABLE4_ISCAS, TABLE4_ITC};
use cutelock_circuits::{iscas89, itc99, seqgen, synthezza, Profile};
use cutelock_core::beh::{CuteLockBeh, CuteLockBehConfig, WrongfulPolicy};
use cutelock_core::fingerprint::Fingerprint;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
use cutelock_core::LockedCircuit;
use cutelock_fsm::random::{random_fsm, RandomFsmConfig};
use cutelock_sat::equiv::EquivResult;

use crate::trace::Tracer;
use crate::{probe, Args, Measured, SETUP_REPS};

/// A cell whose elapsed time reaches this share of its wall budget counts
/// as having met the wall clock rather than a search cap.
const WALL_SHARE: f64 = 0.9;
/// Generations of fresh circuits in the operation list: each repeats the
/// selection with its own salts, so a run samples many distinct circuits
/// of each profile.
const GENERATIONS: usize = 24;

/// Cell selection. Kept: Table IV circuits and Table III machines whose
/// cells ended on a verdict or a search cap within about 150 ms on every
/// seed tried, so a run samples hundreds of cells and its slowest cells
/// are not a handful of outliers. Left out for reaching the 60 s wall
/// clock in a full table run: s5378, s9234, s13207, s15850, s35932, b04,
/// b12–b22, RANE on b05/b07/b09/b11, and the machines absurd, bulln and
/// lion. Left out for multi-second cells on some seeds: s349, s510–s1488,
/// b03, b05, b07, b08, b10, b11, and the machines alf, ball, camel,
/// codec, cow, e17, exxm and tiger. Left out for cells of 150 ms to 1 s
/// on some seeds: s298 and the machines acdl, amtz, big, codec1, cyr,
/// dav, e10 and e15.
const STR: &[&str] = &["b01", "b02", "b06", "b09"];
const BEH: &[&str] = &[
    "bcomp", "bech", "bridge", "cat", "checker9", "cpu", "dmac", "e16", "e161", "bens", "berg",
    "bib", "bs", "doron",
];

/// How one lock is built.
#[derive(Debug, Clone)]
pub enum Design {
    /// Cute-Lock-Str on a seqgen circuit of a Table IV profile.
    Str {
        profile: Profile,
        k: usize,
        ki: usize,
    },
    /// Cute-Lock-Beh on a random FSM of a Synthezza profile's size.
    Beh {
        name: &'static str,
        states: usize,
        inputs: usize,
        outputs: usize,
        k: usize,
        ki: usize,
    },
}

/// One lock of the workload, with the seeds derived from the run seed.
#[derive(Debug, Clone)]
pub struct LockSpec {
    pub label: String,
    pub design: Design,
    pub circuit_salt: u64,
    pub lock_seed: u64,
}

/// One entry of the operation list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Cell {
        lock: usize,
        strategy: AttackStrategy,
    },
    Verify {
        lock: usize,
    },
}

/// The workload's locks and operation list.
pub struct Plan {
    pub locks: Vec<LockSpec>,
    pub ops: Vec<Op>,
}

/// A 64-bit value derived from the run seed and a name.
pub fn derive(seed: u64, parts: &[&str]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update_u64(seed);
    for p in parts {
        fp.update_str(p);
    }
    fp.finish()
}

fn str_lock(seed: u64, name: &str, g: usize) -> LockSpec {
    let (_, k, ki) = TABLE4_ISCAS
        .iter()
        .chain(TABLE4_ITC)
        .copied()
        .find(|r| r.0 == name)
        .expect("circuit is in Table IV");
    let profile = iscas89(name)
        .or_else(|_| itc99(name))
        .expect("Table IV circuit is built in")
        .profile;
    LockSpec {
        label: format!("{name}/str#{g}"),
        design: Design::Str { profile, k, ki },
        circuit_salt: derive(seed, &["seqgen", name]),
        lock_seed: derive(seed, &["lock", name]),
    }
}

fn beh_lock(seed: u64, name: &'static str, g: usize) -> LockSpec {
    let (_, k, ki) = TABLE3
        .iter()
        .copied()
        .find(|r| r.0 == name)
        .expect("machine is in Table III");
    let stg = synthezza(name).expect("Synthezza profile exists");
    LockSpec {
        label: format!("{name}/beh#{g}"),
        design: Design::Beh {
            name,
            states: stg.num_states(),
            inputs: stg.num_inputs(),
            outputs: stg.num_outputs(),
            k,
            ki,
        },
        circuit_salt: derive(seed, &["fsm", name]),
        lock_seed: derive(seed, &["lock", name]),
    }
}

/// Spreads several operation lists evenly over one list, so any prefix
/// holds each list in proportion.
fn interleave(lists: Vec<Vec<Op>>) -> Vec<Op> {
    let mut keyed: Vec<(f64, usize, Op)> = Vec::new();
    for (li, list) in lists.iter().enumerate() {
        let n = list.len() as f64;
        for (i, &op) in list.iter().enumerate() {
            keyed.push(((i as f64 + 0.5) / n, li, op));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, op)| op).collect()
}

/// Attack-major cells over `locks`: every lock once per attack.
fn cells(locks: std::ops::Range<usize>, attacks: &[AttackStrategy]) -> Vec<Op> {
    attacks
        .iter()
        .flat_map(|&strategy| locks.clone().map(move |lock| Op::Cell { lock, strategy }))
        .collect()
}

/// The operation list of a seed: [`GENERATIONS`] generations, each
/// Cute-Lock-Str × {bbo, int, kc2, rane} (RANE only on b01, b02 and b06),
/// Cute-Lock-Beh × {bbo, int, kc2}, and one verify per lock, interleaved.
pub fn plan(seed: u64) -> Plan {
    use AttackStrategy::{Bbo, Int, Kc2, Rane};
    let (mut locks, mut ops) = (Vec::new(), Vec::new());
    for g in 0..GENERATIONS {
        let gseed = derive(seed, &["generation", &g.to_string()]);
        let base = locks.len();
        locks.extend(STR.iter().map(|n| str_lock(gseed, n, g)));
        let beh = locks.len();
        locks.extend(BEH.iter().map(|n| beh_lock(gseed, n, g)));
        let rane = (base..beh).filter(|&l| ["b01", "b02", "b06"].contains(&STR[l - base]));
        let str_cells = cells(base..beh, &[Bbo, Int, Kc2])
            .into_iter()
            .chain(rane.map(|lock| Op::Cell {
                lock,
                strategy: Rane,
            }))
            .collect();
        let beh_cells = cells(beh..locks.len(), &[Bbo, Int, Kc2]);
        let verifies = (base..locks.len())
            .map(|lock| Op::Verify { lock })
            .collect();
        ops.extend(interleave(vec![str_cells, beh_cells, verifies]));
    }
    Plan { locks, ops }
}

/// Generates and locks one design (spans `circuits.generate`, `core.lock`).
pub fn build(spec: &LockSpec, tr: &Tracer) -> Result<LockedCircuit, String> {
    let lc = match &spec.design {
        Design::Str { profile, k, ki } => {
            let c = tr
                .time("circuits.generate", None, None, |_| {
                    seqgen::generate(profile, spec.circuit_salt)
                })
                .map_err(|e| e.to_string());
            let cfg = CuteLockStrConfig {
                keys: *k,
                key_bits: *ki,
                locked_ffs: 1,
                seed: spec.lock_seed,
                schedule: None,
                ..Default::default()
            };
            c.and_then(|c| probe::lock(tr, || CuteLockStr::new(cfg).lock(&c.netlist)))
        }
        Design::Beh {
            name,
            states,
            inputs,
            outputs,
            k,
            ki,
        } => {
            let cfg = RandomFsmConfig {
                num_states: *states,
                num_inputs: *inputs,
                num_outputs: *outputs,
                max_depth: 3,
                seed: spec.circuit_salt,
            };
            let stg = tr.time("circuits.generate", None, None, |_| random_fsm(*name, &cfg));
            let cfg = CuteLockBehConfig {
                keys: *k,
                key_bits: *ki,
                wrongful: WrongfulPolicy::Auto,
                seed: spec.lock_seed,
                schedule: None,
            };
            probe::lock(tr, || CuteLockBeh::new(cfg).lock(&stg))
        }
    };
    lc.map_err(|e| format!("{}: {e}", spec.label))
}

/// What one operation produced.
#[derive(Debug, Clone)]
pub enum OpResult {
    Attack {
        report: AttackReport,
        timeout: Duration,
    },
    Verify(Result<EquivResult, String>),
}

impl OpResult {
    /// The deterministic part of a result: verdict, iterations, bound and
    /// conflicts of a cell; the certification verdict of a verify.
    pub fn digest(&self) -> String {
        match self {
            OpResult::Attack { report, .. } => format!(
                "{} iters={} bound={} conflicts={}",
                report.outcome, report.iterations, report.bound, report.stats.conflicts
            ),
            OpResult::Verify(Ok(EquivResult::Equivalent)) => "equivalent".into(),
            OpResult::Verify(Ok(EquivResult::Counterexample(c))) => {
                format!("counterexample frames={}", c.len())
            }
            OpResult::Verify(Ok(EquivResult::Unknown)) => "unknown".into(),
            OpResult::Verify(Err(e)) => format!("error {e}"),
        }
    }
}

/// Runs one operation; returns its result and latency.
fn run_op(locks: &[LockedCircuit], op: Op, id: u64, tr: &Tracer) -> (OpResult, Duration) {
    let t0 = Instant::now();
    let result = match op {
        Op::Cell { lock, strategy } => tr.time("op.cell", Some(id), None, |sid| {
            // The paper tables' full budget, as the table bins run it.
            let spec = cutelock_bench::Options::default().spec(strategy);
            let (_, report) = probe::attack_cell(tr, &locks[lock], &spec, Some(id), sid);
            OpResult::Attack {
                report,
                timeout: spec.budget.timeout,
            }
        }),
        Op::Verify { lock } => tr.time("op.express", Some(id), None, |sid| {
            OpResult::Verify(probe::certify(tr, &locks[lock], Some(id), sid))
        }),
    };
    (result, t0.elapsed())
}

/// The ops one timed phase ran.
struct Phase {
    /// `(list index, latency)` per executed op.
    runs: Vec<(usize, Duration)>,
    /// First result per list index, and whether every replay matched it.
    first: BTreeMap<usize, (OpResult, bool)>,
}

/// Runs ops in list order, wrapping around, while `more(ops run, start)`.
fn phase(
    plan: &Plan,
    locks: &[LockedCircuit],
    tr: &Tracer,
    mut more: impl FnMut(usize, Instant) -> bool,
) -> Phase {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut first: BTreeMap<usize, (OpResult, bool)> = BTreeMap::new();
    while more(runs.len(), start) {
        let idx = runs.len() % plan.ops.len();
        let (result, lat) = run_op(locks, plan.ops[idx], runs.len() as u64, tr);
        runs.push((idx, lat));
        match first.get_mut(&idx) {
            Some((r, same)) => *same &= r.digest() == result.digest(),
            None => {
                first.insert(idx, (result, true));
            }
        }
    }
    Phase { runs, first }
}

/// The output check of one distinct operation: a verify must certify; a
/// cell must hold, end before its wall deadline, and any x..x key must
/// corrupt a fresh stimulus.
fn check(
    plan: &Plan,
    locks: &[LockedCircuit],
    idx: usize,
    result: &OpResult,
    seed: u64,
    tr: &Tracer,
) -> Result<(), String> {
    match (plan.ops[idx], result) {
        (Op::Verify { .. }, OpResult::Verify(Ok(EquivResult::Equivalent))) => Ok(()),
        (Op::Verify { .. }, _) => Err(format!("certification: {}", result.digest())),
        (Op::Cell { lock, .. }, OpResult::Attack { report, timeout }) => {
            if report.elapsed.as_secs_f64() >= WALL_SHARE * timeout.as_secs_f64() {
                return Err(format!(
                    "reached its wall deadline after {:?}",
                    report.elapsed
                ));
            }
            match &report.outcome {
                AttackOutcome::KeyFound(_) => Err("the attack recovered a key".into()),
                AttackOutcome::WrongKey(key) => {
                    let stimulus = derive(seed, &["stimulus", &idx.to_string()]);
                    if probe::corruption(tr, &locks[lock], key, stimulus)? > 0.0 {
                        Ok(())
                    } else {
                        Err(format!("x..x key {key} corrupts nothing"))
                    }
                }
                _ => Ok(()),
            }
        }
        (Op::Cell { .. }, OpResult::Verify(_)) => unreachable!("cells return attack results"),
    }
}

pub fn run(plan: &Plan, args: &Args, tr: &Tracer) -> Result<Measured, String> {
    let quiet = Tracer::new(false);
    // Set-up: generate and lock every circuit, several times; the last
    // build is the one attacked. Only the first build is traced.
    let mut setup_s = Vec::new();
    let mut locks = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = if rep == 0 { tr } else { &quiet };
        let t0 = Instant::now();
        locks = plan
            .locks
            .iter()
            .map(|s| build(s, t))
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let (timed, traced) = if tr.on() {
        // An untraced half, then the same ops again with spans on.
        let untraced = phase(plan, &locks, &quiet, |_, t0| t0.elapsed() < budget / 2);
        let n = untraced.runs.len();
        let traced = phase(plan, &locks, tr, |i, _| i < n);
        (untraced, Some(traced))
    } else {
        (phase(plan, &locks, tr, |_, t0| t0.elapsed() < budget), None)
    };

    // Checks, outside every op span: each distinct op once.
    let mut failed_idx: BTreeMap<usize, String> = BTreeMap::new();
    let mut digest = Vec::new();
    for (&idx, (result, same)) in &timed.first {
        let label = op_label(plan, idx);
        digest.push(format!("{idx:4} {label} {}", result.digest()));
        let verdict = check(plan, &locks, idx, result, args.seed, tr).and_then(|()| {
            if *same {
                Ok(())
            } else {
                Err("a replay produced a different result".into())
            }
        });
        if let Err(e) = verdict {
            failed_idx.insert(idx, format!("{label}: {e}"));
        }
    }
    if let Some(t) = &traced {
        for (&idx, (result, _)) in &t.first {
            if timed.first.get(&idx).map(|(r, _)| r.digest()) != Some(result.digest()) {
                failed_idx.insert(
                    idx,
                    format!("{}: traced replay differs", op_label(plan, idx)),
                );
            }
        }
    }

    let (mut op_ns, mut express_ns) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for &(idx, lat) in &timed.runs {
        match plan.ops[idx] {
            Op::Cell { .. } => op_ns.push(lat.as_nanos() as u64),
            Op::Verify { .. } => express_ns.push(lat.as_nanos() as u64),
        }
        failed += usize::from(failed_idx.contains_key(&idx));
    }
    let overhead = traced.as_ref().map(|t| {
        let sum = |p: &Phase| p.runs.iter().map(|r| r.1).sum::<Duration>();
        (sum(&timed), sum(t), t.runs.len())
    });
    if tr.on() {
        for lc in &locks {
            probe::encode(tr, &simplify_locked(lc));
        }
    }
    Ok(Measured {
        setup_s,
        // Cells decided per second of cell time: the verifies the phase
        // interleaves do not enter `ops_per_s`.
        timed: Duration::from_nanos(op_ns.iter().sum()),
        op_ns,
        express_ns,
        attempted: timed.runs.len(),
        failed,
        problems: failed_idx.into_values().collect(),
        digest,
        overhead,
        notes: vec![format!(
            "{} locks, {} ops in the list ({} verifies), {} executed",
            plan.locks.len(),
            plan.ops.len(),
            plan.ops
                .iter()
                .filter(|o| matches!(o, Op::Verify { .. }))
                .count(),
            timed.runs.len()
        )],
    })
}

fn op_label(plan: &Plan, idx: usize) -> String {
    match plan.ops[idx] {
        Op::Cell { lock, strategy } => format!("{} {strategy}", plan.locks[lock].label),
        Op::Verify { lock } => format!("{} verify", plan.locks[lock].label),
    }
}
