//! Subcommand implementations.

use std::fs;
use std::io::{BufRead, Write};
use std::time::Duration;

use cutelock_attacks::certify::prove_locked_equivalence;
use cutelock_attacks::dana::dana_attack_with_budget;
use cutelock_attacks::portfolio::Portfolio;
use cutelock_attacks::{
    run_attack, write_records, AttackBudget, AttackSpec, AttackStrategy, RunRecord,
};
use cutelock_circuits::{iscas89, iscas89_names, itc99, itc99_names};
use cutelock_core::args::Flags;
use cutelock_core::clock::VirtualClock;
use cutelock_core::str_lock::CuteLockStrConfig;
use cutelock_core::{lock_named, KeySchedule, KeyValue, LockedCircuit};
use cutelock_jobs::{Client, Limits, ServeConfig, Server};
use cutelock_netlist::{bench, simplify, verilog, Netlist, NetlistStats, SimplifyConfig};
use cutelock_sat::equiv::EquivResult;
use cutelock_synth::{analyze, CellLibrary, OverheadComparison};

const HELP: &str = "\
cutelock — time-based multi-key logic locking toolkit

USAGE: cutelock <command> [--flag value ...]  (an unread or repeated flag is an error)

COMMANDS:
  bench     Emit a built-in benchmark circuit as .bench
              --suite iscas89|itc99   --name s27|b01|…   [--out FILE]
              (--name list prints available names)
  stats     Print size statistics of a netlist, plus the reduction the
            simplify engine would achieve on it
              --in FILE
  lock      Lock a .bench netlist
              --scheme str|xor|ttlock|dklock|sled  --in FILE --out FILE
              [--keys K] [--key-bits KI] [--ffs N] [--seed S]
              [--schedule-file FILE]  (str only: read the key schedule
               from a key file instead of drawing it from --seed)
              [--keys-out FILE]   (writes the key schedule)
  attack    Run an attack against a locked netlist
              --mode sat|bbo|int|kc2|rane|appsat|double-dip|fall|dana
              --locked FILE --oracle FILE [--timeout SECS] [--quick]
              [--portfolio K] [--threads N] [--share] [--no-simplify]
              [--verbose] [--virtual-clock NS]
              (--timeout defaults to 60, or 10 under --quick, which runs
               the smoke budget; without --locked/--oracle it locks a
               built-in s27 and attacks that; --portfolio K, in 1..=64,
               races K diversified solvers per SAT query across N worker
               threads — the result is bit-identical for any N; --share
               exchanges learnt clauses between entrants at epoch
               barriers, still bit-identical for any N;
               --virtual-clock NS measures --timeout on a clock advancing
               NS nanoseconds per solver conflict instead of wall time;
               netlists are simplified (strash/const-fold/COI) before
               encoding; --no-simplify attacks them as-read — fall
               skips simplification either way;
               --verbose prints clause-sharing totals after the run)
              exit 0: decisive verdict (key recovered, or CNS proof that
              no constant key exists); exit 2: refuted key, FAIL, or
              timeout — nothing was settled (dana, which clusters rather
              than verdicts, always exits 0)
              [--store FILE] appends the run (circuit, scheme, verdict,
              iterations, conflicts, GC/share totals, virtual-clock
              elapsed) to a run database for `cutelock report`
  report    Query a run database written by --store
              --store FILE [--where col=v,col=v] [--group-by col,col]
              [--metric COL (default conflicts, else median_ns)]
              [--percentiles 50,90,...]
              [--emit-bench FILE --tag TAG]  (writes a BENCH_<tag>.json
               perf-trajectory baseline from the group medians)
              [--compare-baseline FILE [--threshold PCT (default 10)]]
              exit 0: no regression; nonzero when any group's median
              exceeds the baseline by more than the threshold
  verify    Prove a locked netlist cycle-exact against its original under
            a key schedule (SAT, all input sequences up to the bound)
              --locked FILE --original FILE --keys FILE
              [--frames N (default 8)] [--conflicts N] [--no-simplify]
              exit 0: equivalent; exit 2: corrupting sequence found
  overhead  45nm-model overhead of locked vs original
              --original FILE --locked FILE
  convert   Convert formats
              --in FILE --to verilog|bench [--out FILE] [--simplify]
              (--simplify runs the netlist simplification engine first
               and reports the reduction on stderr)
  serve     Run the attack job daemon (TCP line protocol)
              [--addr HOST:PORT (default 127.0.0.1:0 — port 0 picks an
               ephemeral port)] [--workers N (default 2)]
              [--max-timeout SECS (default 3600)]
              prints `listening on HOST:PORT` once bound; a client's
              SHUTDOWN stops it. Protocol verbs: SUBMIT attack|verify|
              solve …, STATUS <id>, RESULT <id> [--wait], CANCEL <id>,
              SHUTDOWN
  client    Connect to a daemon; stdin lines become requests, responses
            print to stdout one line each
              --addr HOST:PORT
  help      Show this message
";

/// Runs the subcommand named by `argv[0]` (printing help when absent),
/// returning a user-facing error message on failure.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        println!("{HELP}");
        return Ok(());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "bench" => cmd_bench(rest),
        "stats" => cmd_stats(rest),
        "lock" => cmd_lock(rest),
        "attack" => cmd_attack(rest),
        "report" => cmd_report(rest),
        "verify" => cmd_verify(rest),
        "overhead" => cmd_overhead(rest),
        "convert" => cmd_convert(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `cutelock help`")),
    }
}

fn read_netlist(path: &str) -> Result<Netlist, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    bench::parse(path.to_string(), &src).map_err(|e| format!("{path}: {e}"))
}

/// The [`LockedCircuit`] that `attack` and `verify` build from a locked
/// netlist and its original read from files. Every simulator and encoder
/// downstream pairs the two port for port, so a pair whose data-input or
/// output counts differ is an error here instead of a panic there.
fn external_pair(
    netlist: Netlist,
    original: Netlist,
    schedule: KeySchedule,
) -> Result<LockedCircuit, String> {
    let data = netlist.data_inputs().len();
    if data != original.input_count() {
        return Err(format!(
            "the locked netlist has {data} data inputs but the original has {}",
            original.input_count()
        ));
    }
    if netlist.output_count() != original.output_count() {
        return Err(format!(
            "the locked netlist has {} outputs but the original has {}",
            netlist.output_count(),
            original.output_count()
        ));
    }
    Ok(LockedCircuit {
        netlist,
        original,
        schedule,
        scheme: "external",
        counter_ffs: Vec::new(),
        locked_ffs: Vec::new(),
    })
}

fn write_out(path: Option<&str>, content: &str) -> Result<(), String> {
    match path {
        Some(p) => fs::write(p, content).map_err(|e| format!("{p}: {e}")),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn cmd_bench(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(argv, &["suite", "name", "out"], &[])?;
    let suite = args.req("suite")?;
    let name = args.req("name")?;
    if name == "list" {
        let names = match suite {
            "iscas89" => iscas89_names(),
            "itc99" => itc99_names(),
            other => return Err(format!("unknown suite `{other}`")),
        };
        println!("{}", names.join("\n"));
        return Ok(());
    }
    let circuit = match suite {
        "iscas89" => iscas89(name),
        "itc99" => itc99(name),
        other => return Err(format!("unknown suite `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    write_out(args.opt("out"), &bench::write(&circuit.netlist))
}

fn cmd_stats(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(argv, &["in"], &[])?;
    let nl = read_netlist(args.req("in")?)?;
    let st = NetlistStats::of(&nl);
    println!("{}: {st}", nl.name());
    for (kind, count) in &st.per_kind {
        println!("  {kind:<6} {count}");
    }
    // What the simplify engine would remove — reported here so reductions
    // are visible without running an attack.
    let (_, sst) = simplify(&nl, &SimplifyConfig::default()).map_err(|e| e.to_string())?;
    println!("simplify: {sst}");
    Ok(())
}

fn cmd_lock(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(
        argv,
        &[
            "in",
            "out",
            "scheme",
            "keys",
            "key-bits",
            "ffs",
            "seed",
            "schedule-file",
            "keys-out",
        ],
        &[],
    )?;
    let nl = read_netlist(args.req("in")?)?;
    let scheme = args.req("scheme")?;
    let mut keys: usize = args.num("keys", 4)?;
    let mut ki: usize = args.num("key-bits", 3)?;
    let ffs: usize = args.num("ffs", 1)?;
    let seed: u64 = args.num("seed", 0)?;
    // A schedule file overrides --keys/--key-bits: the file *is* the
    // schedule, so its dimensions win.
    let schedule: Option<KeySchedule> = match args.opt("schedule-file") {
        Some(path) => {
            if scheme != "str" {
                return Err(format!(
                    "--schedule-file only applies to --scheme str (got `{scheme}`)"
                ));
            }
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let sched = KeySchedule::parse_key_file(&text).map_err(|e| format!("{path}: {e}"))?;
            keys = sched.num_keys();
            ki = sched.key_bits();
            Some(sched)
        }
        None => None,
    };
    let config = CuteLockStrConfig {
        keys,
        key_bits: ki,
        locked_ffs: ffs,
        seed,
        schedule,
        ..Default::default()
    };
    let locked = lock_named(scheme, &nl, config)?;
    if let Some(kpath) = args.opt("keys-out") {
        let text = locked.schedule.to_key_file(locked.scheme);
        fs::write(kpath, text).map_err(|e| format!("{kpath}: {e}"))?;
    }
    eprintln!(
        "locked with {} (k={}, ki={}); schedule: {}",
        locked.scheme,
        locked.schedule.num_keys(),
        locked.schedule.key_bits(),
        locked.schedule
    );
    write_out(args.opt("out"), &bench::write(&locked.netlist))
}

fn cmd_attack(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(
        argv,
        &[
            "mode",
            "locked",
            "oracle",
            "timeout",
            "virtual-clock",
            "portfolio",
            "threads",
            "store",
        ],
        &["quick", "share", "no-simplify", "verbose"],
    )?;
    let quick = args.has("quick");
    // --quick runs the smoke budget; an explicit --timeout still wins.
    let mut budget = quick.then(AttackBudget::quick).unwrap_or_default();
    budget.timeout = Duration::from_secs(args.num("timeout", budget.timeout.as_secs())?);
    // --virtual-clock NS: measure --timeout on a deterministic clock that
    // advances NS nanoseconds per solver conflict (plus the attacks' own
    // work-unit ticks) instead of wall time. Timeout verdicts then land at
    // an exact point in the search, identical on any machine or --threads.
    let vclock_ns: u64 = args.num("virtual-clock", 0)?;
    if vclock_ns > 0 {
        budget.clock = VirtualClock::with_tick(vclock_ns).handle();
    }
    let k = args.bounded("portfolio", 1)?;
    let threads: usize = args.num("threads", 1)?;
    // The built-in smoke target only stands in when *neither* netlist was
    // given; with one of the two present, the normal path reports the
    // missing flag instead of silently attacking the wrong circuit.
    let builtin = quick && args.opt("locked").is_none() && args.opt("oracle").is_none();
    // The lock-construction seed, recorded by --store (0 for external
    // netlists, whose construction the CLI never saw).
    let lock_seed: u64 = if builtin { 0x5327 } else { 0 };
    let locked = if builtin {
        // Bounded smoke configuration: lock the built-in s27 and attack it,
        // so `cutelock attack --quick` works with no files at all.
        eprintln!("--quick without --locked: attacking a built-in Cute-Lock-Str s27");
        let config = CuteLockStrConfig {
            keys: 4,
            key_bits: 2,
            locked_ffs: 1,
            seed: 0x5327,
            ..Default::default()
        };
        lock_named("str", &cutelock_circuits::s27::s27(), config)?
    } else {
        let locked_nl = read_netlist(args.req("locked")?)?;
        let oracle = read_netlist(args.req("oracle")?)?;
        let ki = locked_nl.key_inputs().len();
        if ki == 0 {
            return Err("locked netlist has no keyinput* ports".into());
        }
        // The attacker does not know the schedule; the placeholder below is
        // only carried for bookkeeping and never read by the attacks.
        let placeholder = KeySchedule::constant(KeyValue::from_bits(vec![false; ki]), 1);
        external_pair(locked_nl, oracle, placeholder)?
    };
    let mode = match args.opt("mode") {
        Some(m) => m,
        None if quick => "sat",
        None => return Err("missing required flag --mode".into()),
    };
    let share = args.has("share");
    // DANA clusters registers rather than producing a verdict; it is the
    // one mode outside the AttackSpec door (it attacks a bare netlist).
    if mode == "dana" {
        let r = dana_attack_with_budget(&locked.netlist, &budget);
        println!(
            "DANA: {} clusters over {} FFs in {:.1}s{}",
            r.clusters.len(),
            locked.netlist.dff_count(),
            r.elapsed.as_secs_f64(),
            if r.timed_out {
                " [timed out: partial partition]"
            } else {
                ""
            }
        );
        // Against an original with known words there is no ground truth
        // here; report cluster sizes instead.
        let mut sizes: Vec<usize> = r.clusters.iter().map(Vec::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        println!("cluster sizes: {sizes:?}");
        return Ok(());
    }
    let strategy =
        AttackStrategy::parse(mode).ok_or_else(|| format!("unknown attack mode `{mode}`"))?;
    let portfolio = Portfolio::new(k, threads).with_share(share);
    // --no-simplify runs the raw netlists.
    let spec = AttackSpec::new(strategy)
        .with_budget(budget)
        .with_portfolio(portfolio)
        .with_simplify(!args.has("no-simplify"));
    let report = run_attack(&locked, &spec);
    println!("{mode}: {report}");
    if args.has("verbose") {
        // The ledger totals are deterministic (DETERMINISM.md Rule 7), so
        // verbose output stays byte-identical across --threads too.
        let (exported, imported, dups) = spec.portfolio.share_stats();
        println!("shared: exported={exported} imported={imported} dup_dropped={dups}");
    }
    // --store PATH: append this run to the run database. Every
    // recorded column is deterministic (elapsed only under --virtual-clock:
    // DETERMINISM.md Rule 9), so repeated identical runs append identical
    // rows and two fresh runs produce byte-identical store files.
    if let Some(store_path) = args.opt("store") {
        let rec = RunRecord::from_run(locked.netlist.name(), lock_seed, &locked, &spec, &report);
        write_records(store_path, &[rec]).map_err(|e| format!("{store_path}: {e}"))?;
        eprintln!("recorded 1 run in {store_path}");
    }
    let outcome = report.outcome;
    if AttackSpec::is_decisive(&outcome) {
        Ok(())
    } else {
        Err(format!(
            "attack verdict not decisive: {outcome} (a refuted key, FAIL, or timeout \
             settles nothing)"
        ))
    }
}

/// `cutelock report`: query the run database `--store` writes —
/// equality filters, group-by with deterministic group ordering, median /
/// percentile summaries, perf-trajectory baselines (`--emit-bench`), and a
/// regression gate (`--compare-baseline`, nonzero exit on a median past the
/// threshold).
fn cmd_report(argv: &[String]) -> Result<(), String> {
    use cutelock_store::format::read_table_torn;
    use cutelock_store::trajectory::{compare, parse_json, to_json, BenchEntry};
    use cutelock_store::{query, Value};

    let args = Flags::parse(
        argv,
        &[
            "store",
            "metric",
            "where",
            "group-by",
            "percentiles",
            "emit-bench",
            "tag",
            "compare-baseline",
            "threshold",
        ],
        &[],
    )?;
    let store_path = args.req("store")?;
    let (table, torn) = read_table_torn(store_path).map_err(|e| format!("{store_path}: {e}"))?;
    if torn > 0 {
        eprintln!("{store_path}: ignored {torn} trailing byte(s) of an unfinished session");
    }

    // Default metric: attack stores carry `conflicts`, bench stores carry
    // `median_ns`; anything else needs an explicit --metric.
    let metric = match args.opt("metric") {
        Some(m) => m.to_string(),
        None if table.schema().index_of("conflicts").is_some() => "conflicts".to_string(),
        None if table.schema().index_of("median_ns").is_some() => "median_ns".to_string(),
        None => {
            return Err(
                "--metric required: store has neither a `conflicts` nor a `median_ns` column"
                    .into(),
            )
        }
    };

    // --where circuit=s27,strategy=sat — equality filters, values parsed
    // against the column's declared type.
    let mut filters: Vec<(String, Value)> = Vec::new();
    if let Some(spec) = args.opt("where") {
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (col, raw) = pair
                .split_once('=')
                .ok_or_else(|| format!("--where: `{pair}` is not col=value"))?;
            let ty = table
                .schema()
                .type_of(col)
                .ok_or_else(|| format!("--where: unknown column `{col}`"))?;
            let value = Value::parse(ty, raw)
                .ok_or_else(|| format!("--where: `{raw}` is not a {ty} for `{col}`"))?;
            filters.push((col.to_string(), value));
        }
    }
    let filters_ref: Vec<(&str, Value)> = filters
        .iter()
        .map(|(c, v)| (c.as_str(), v.clone()))
        .collect();

    let group_cols: Vec<&str> = args
        .opt("group-by")
        .map(|s| s.split(',').filter(|p| !p.is_empty()).collect())
        .unwrap_or_default();

    let mut percentiles: Vec<f64> = Vec::new();
    if let Some(spec) = args.opt("percentiles") {
        for p in spec.split(',').filter(|p| !p.is_empty()) {
            percentiles.push(
                p.parse()
                    .map_err(|_| format!("--percentiles: `{p}` is not a number"))?,
            );
        }
    }

    let groups = query::group_by(&table, &group_cols, &metric, &filters_ref, &percentiles)
        .map_err(|e| e.to_string())?;

    println!(
        "{store_path}: {} rows, {} group(s), metric `{metric}`",
        table.rows(),
        groups.len()
    );
    for g in &groups {
        let label = group_label(&g.key);
        let ps: String = g
            .percentiles
            .iter()
            .map(|(p, v)| format!(" p{p:.0}={v}"))
            .collect();
        println!(
            "  {label}: count={} median={} min={} max={}{ps}",
            g.count, g.median, g.min, g.max
        );
    }

    // --emit-bench FILE --tag TAG: freeze the group medians as a
    // perf-trajectory baseline.
    if let Some(out) = args.opt("emit-bench") {
        let tag = args.opt("tag").unwrap_or("baseline");
        let entries: Vec<BenchEntry> = groups
            .iter()
            .map(|g| BenchEntry {
                tag: tag.to_string(),
                group: group_label(&g.key),
                metric: metric.clone(),
                count: g.count as u64,
                median: g.median,
                min: g.min,
                max: g.max,
            })
            .collect();
        fs::write(out, to_json(&entries)).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {} baseline entr(ies) to {out}", entries.len());
    }

    // --compare-baseline FILE [--threshold PCT]: the regression gate.
    if let Some(base_path) = args.opt("compare-baseline") {
        let threshold: f64 = args.num("threshold", 10.0)?;
        let text = fs::read_to_string(base_path).map_err(|e| format!("{base_path}: {e}"))?;
        let baseline = parse_json(&text).map_err(|e| format!("{base_path}: {e}"))?;
        let current: Vec<BenchEntry> = groups
            .iter()
            .map(|g| BenchEntry {
                tag: String::new(),
                group: group_label(&g.key),
                metric: metric.clone(),
                count: g.count as u64,
                median: g.median,
                min: g.min,
                max: g.max,
            })
            .collect();
        let regressions = compare(&baseline, &current, threshold);
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!(
                    "REGRESSION {}: {} median {} vs baseline {} (threshold {threshold}%)",
                    r.group, r.metric, r.current, r.baseline
                );
            }
            return Err(format!(
                "{} group(s) regressed past {threshold}% of {base_path}",
                regressions.len()
            ));
        }
        println!(
            "no regression: {} group(s) within {threshold}% of {base_path}",
            current.len()
        );
    }
    Ok(())
}

/// A group's key cells joined with `/` (`all` for the global group).
fn group_label(key: &[cutelock_store::Value]) -> String {
    if key.is_empty() {
        "all".to_string()
    } else {
        key.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// `cutelock serve`: the attack job daemon — bind, announce, serve until a
/// client sends `SHUTDOWN`. The scheduler core and the line protocol live
/// in the `cutelock_jobs` crate; this command is flag parsing only.
fn cmd_serve(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(argv, &["addr", "workers", "max-timeout"], &[])?;
    let addr = args.opt("addr").unwrap_or("127.0.0.1:0");
    let workers: usize = args.num("workers", 2)?;
    let max_timeout: u64 = args.num("max-timeout", 3600)?;
    let config = ServeConfig {
        workers,
        limits: Limits {
            max_timeout: Duration::from_secs(max_timeout.max(1)),
            ..Limits::default()
        },
    };
    let server = Server::bind(addr, config).map_err(|e| format!("{addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts (the CI smoke job, the E2E test) poll for this exact line to
    // learn the ephemeral port; flush so they see it before the first job.
    println!("listening on {local}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())?;
    println!("shut down");
    Ok(())
}

/// `cutelock client`: pipe stdin lines to a daemon, one response line per
/// request. Exits on EOF or after relaying a `SHUTDOWN`.
fn cmd_client(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(argv, &["addr"], &[])?;
    let addr = args.req("addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let response = client.request(&line).map_err(|e| e.to_string())?;
        println!("{response}");
        if line.trim() == "SHUTDOWN" {
            break;
        }
    }
    Ok(())
}

/// `cutelock verify`: SAT-prove that `--locked` driven by the `--keys`
/// schedule is cycle-exact against `--original` for **all** input sequences
/// of up to `--frames` cycles from reset — the designer-side certification
/// the `certify` module provides as a library, exposed as exit codes for
/// scripts and CI (0 = equivalent, 2 = corrupting sequence / inconclusive).
fn cmd_verify(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(
        argv,
        &["locked", "original", "keys", "frames", "conflicts"],
        &["no-simplify"],
    )?;
    let locked_nl = read_netlist(args.req("locked")?)?;
    let original = read_netlist(args.req("original")?)?;
    let kpath = args.req("keys")?;
    let text = fs::read_to_string(kpath).map_err(|e| format!("{kpath}: {e}"))?;
    let schedule = KeySchedule::parse_key_file(&text).map_err(|e| format!("{kpath}: {e}"))?;
    let frames: usize = args.num("frames", 8)?;
    if frames == 0 {
        return Err("--frames must be at least 1".into());
    }
    let conflicts: u64 = args.num("conflicts", 2_000_000)?;
    let ki = locked_nl.key_inputs().len();
    if ki != schedule.key_bits() {
        return Err(format!(
            "{kpath}: schedule is {} bits wide but the locked netlist has {ki} keyinput* ports",
            schedule.key_bits()
        ));
    }
    let mut locked = external_pair(locked_nl, original, schedule)?;
    // State-preserving simplification shrinks the certification miter
    // without touching the interface the schedule drives; --no-simplify
    // certifies the netlists exactly as read.
    if !args.has("no-simplify") {
        locked = cutelock_attacks::simplify_locked(&locked);
    }
    match prove_locked_equivalence(&locked, frames, Some(conflicts)).map_err(|e| e.to_string())? {
        EquivResult::Equivalent => {
            println!(
                "equivalent: locked circuit matches the original on every \
                 input sequence of {frames} cycle(s) from reset"
            );
            Ok(())
        }
        EquivResult::Counterexample(cex) => {
            eprintln!("NOT equivalent: the schedule corrupts this input sequence:");
            for (t, frame) in cex.iter().enumerate() {
                let bits: String = frame.iter().map(|&b| if b { '1' } else { '0' }).collect();
                eprintln!("  cycle {t}: {bits}");
            }
            Err(format!(
                "verification failed: outputs diverge within {} cycle(s)",
                cex.len()
            ))
        }
        EquivResult::Unknown => Err(format!(
            "verification inconclusive: solver exhausted its {conflicts}-conflict budget; \
             raise --conflicts or lower --frames"
        )),
    }
}

fn cmd_overhead(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(argv, &["original", "locked"], &[])?;
    let original = read_netlist(args.req("original")?)?;
    let locked = read_netlist(args.req("locked")?)?;
    let lib = CellLibrary::default();
    let orig = analyze(&original, &lib, 300, 1).map_err(|e| e.to_string())?;
    let cmp =
        OverheadComparison::between(&original, &locked, &lib, 300, 1).map_err(|e| e.to_string())?;
    println!("original: {orig}");
    println!("locked:   {}", cmp.locked);
    println!(
        "overhead: power {:+.1}%  area {:+.1}%  cells {:+.1}%  IO {:+.1}%",
        cmp.power_pct(),
        cmp.area_pct(),
        cmp.cells_pct(),
        cmp.ios_pct()
    );
    Ok(())
}

fn cmd_convert(argv: &[String]) -> Result<(), String> {
    let args = Flags::parse(argv, &["in", "to", "out"], &["simplify"])?;
    let mut nl = read_netlist(args.req("in")?)?;
    if args.has("simplify") {
        let (out, sst) = simplify(&nl, &SimplifyConfig::default()).map_err(|e| e.to_string())?;
        eprintln!("simplify: {sst}");
        nl = out;
    }
    let to = args.req("to")?;
    let text = match to {
        "verilog" => verilog::write(&nl),
        "bench" => bench::write(&nl),
        other => return Err(format!("unknown target format `{other}`")),
    };
    write_out(args.opt("out"), &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn attack_quick_runs_standalone_smoke() {
        // `cutelock attack --quick` needs no files and a bounded budget.
        // The built-in Cute-Lock-Str target holds, and the quick attack
        // ends on a refuted key — which is *not* decisive, so the command
        // reports failure (exit 2 via main).
        let err = dispatch(&sv(&["attack", "--quick"])).unwrap_err();
        assert!(err.contains("not decisive"), "got: {err}");
    }

    #[test]
    fn attack_quick_portfolio_is_deterministic_across_threads() {
        // The same quick attack raced with 2 entrants must run on any
        // worker count (output equality is pinned by the golden_s27
        // portfolio regression; here we exercise the CLI plumbing). The
        // defense holds either way, so the verdict is non-decisive.
        let err = dispatch(&sv(&[
            "attack",
            "--quick",
            "--portfolio",
            "2",
            "--threads",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("not decisive"), "got: {err}");
    }

    #[test]
    fn attack_quick_share_flags_parse_and_run() {
        // --share/--verbose thread through to the portfolio; the held lock
        // still ends non-decisive (exit 2), proving the exchange changes
        // no verdict.
        let err = dispatch(&sv(&[
            "attack",
            "--quick",
            "--portfolio",
            "2",
            "--threads",
            "2",
            "--share",
            "--verbose",
        ]))
        .unwrap_err();
        assert!(err.contains("not decisive"), "got: {err}");
    }

    #[test]
    fn attack_rejects_flags_it_does_not_read() {
        // A retired flag, a misspelt one, a repeated one and an unbounded
        // race all fail before any attack runs, naming the flag (a silently
        // ignored `--mdoe int` would attack with the default `sat`, and
        // `--mode int --mode kc2` would run only one of the two).
        let range = "--portfolio must be between 1 and 64";
        for (flags, err) in [
            (&["--share-cap", "16"][..], "unknown flag --share-cap"),
            (&["--mdoe", "int"], "unknown flag --mdoe"),
            (&["--mode", "int", "--mode", "kc2"], "--mode given twice"),
            (&["--portfolio", "0"], range),
            (&["--portfolio", "65"], range),
        ] {
            let argv = [&["attack", "--quick"][..], flags].concat();
            assert_eq!(dispatch(&sv(&argv)).unwrap_err(), err, "{flags:?}");
        }
    }

    #[test]
    fn attack_race_mode_is_unknown() {
        let err = dispatch(&sv(&["attack", "--quick", "--mode", "race"])).unwrap_err();
        assert!(err.contains("unknown attack mode"), "got: {err}");
    }

    #[test]
    fn attack_on_a_breakable_lock_is_decisive_and_exits_zero() {
        // An XOR-locked built-in falls to the quick SAT attack: write the
        // pair out, attack through the file path, and expect success.
        let dir = std::env::temp_dir().join(format!("cutelock-cli-exit0-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let orig = cutelock_circuits::s27::s27();
        let locked = cutelock_core::baselines::XorLock::new(4, 3)
            .lock(&orig)
            .unwrap();
        let lp = dir.join("locked.bench");
        let op = dir.join("orig.bench");
        fs::write(&lp, cutelock_netlist::bench::write(&locked.netlist)).unwrap();
        fs::write(&op, cutelock_netlist::bench::write(&locked.original)).unwrap();
        dispatch(&sv(&[
            "attack",
            "--mode",
            "sat",
            "--quick",
            "--locked",
            lp.to_str().unwrap(),
            "--oracle",
            op.to_str().unwrap(),
        ]))
        .unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attack_no_simplify_flag_parses_and_runs() {
        // --no-simplify attacks the raw netlist; the held built-in lock
        // still ends non-decisive either way.
        let err = dispatch(&sv(&["attack", "--quick", "--no-simplify"])).unwrap_err();
        assert!(err.contains("not decisive"), "got: {err}");
    }

    #[test]
    fn convert_simplify_shrinks_the_output() {
        let dir =
            std::env::temp_dir().join(format!("cutelock-cli-simplify-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ip = dir.join("in.bench");
        let raw = dir.join("raw.bench");
        let simp = dir.join("simp.bench");
        fs::write(
            &ip,
            "INPUT(a)\nOUTPUT(y)\nb1 = BUF(a)\nb2 = BUF(b1)\ndead = NOT(b2)\ny = NOT(b2)\n",
        )
        .unwrap();
        for (flags, out) in [(&[][..], &raw), (&["--simplify"][..], &simp)] {
            let mut argv = vec!["convert", "--in", ip.to_str().unwrap(), "--to", "bench"];
            argv.extend_from_slice(flags);
            argv.extend_from_slice(&["--out", out.to_str().unwrap()]);
            dispatch(&sv(&argv)).unwrap();
        }
        let raw_nl = read_netlist(raw.to_str().unwrap()).unwrap();
        let simp_nl = read_netlist(simp.to_str().unwrap()).unwrap();
        assert_eq!(raw_nl.gate_count(), 4);
        assert_eq!(simp_nl.gate_count(), 1, "{}", bench::write(&simp_nl));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_reports_a_simplify_line() {
        // `cutelock stats` must run cleanly on a netlist with foldable
        // structure (the simplify what-if line is computed, not printed
        // anywhere we can capture here — success is the contract).
        let dir = std::env::temp_dir().join(format!("cutelock-cli-stats-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ip = dir.join("in.bench");
        fs::write(&ip, "INPUT(a)\nOUTPUT(y)\nz = CONST1()\ny = AND(a, z)\n").unwrap();
        dispatch(&sv(&["stats", "--in", ip.to_str().unwrap()])).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attack_without_mode_or_quick_is_an_error() {
        let err = dispatch(&sv(&["attack"])).unwrap_err();
        assert!(err.contains("--locked"), "got: {err}");
    }

    #[test]
    fn quick_with_only_an_oracle_does_not_attack_the_builtin() {
        let err = dispatch(&sv(&["attack", "--quick", "--oracle", "/no/such.bench"])).unwrap_err();
        assert!(err.contains("--locked"), "got: {err}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(dispatch(&sv(&["frobnicate"])).is_err());
    }
}
