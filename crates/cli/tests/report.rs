//! End-to-end test of the run database: `attack --store` → byte-identical
//! store files (DETERMINISM.md Rule 9) → `report` filters / group-by /
//! percentiles → `--emit-bench` → `--compare-baseline` regression gate
//! (including the doctored-baseline case CI exercises).

use std::fs;
use std::path::PathBuf;

use cutelock_cli::commands::dispatch;
use cutelock_store::format::read_table;
use cutelock_store::Value;

/// A process-unique scratch directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "cutelock-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).expect("create tmpdir");
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Result<(), String> {
    let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
    dispatch(&argv)
}

/// Runs the built-in `--quick` smoke attack with `--store`, ignoring the
/// verdict (a held lock is a non-decisive Err at the CLI; the record is
/// written either way).
fn attack_into(store: &str, extra: &[&str]) {
    let mut args = vec!["attack", "--quick", "--store", store];
    args.extend_from_slice(extra);
    let _ = run(&args);
}

#[test]
fn identical_attack_runs_write_identical_stores() {
    let tmp = TmpDir::new("golden-store");
    let a = tmp.path("a.clk");
    let b = tmp.path("b.clk");
    attack_into(&a, &[]);
    attack_into(&b, &[]);
    let bytes_a = fs::read(&a).expect("store a written");
    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a,
        fs::read(&b).expect("store b written"),
        "two identical runs must write byte-identical store files"
    );

    // Rule 9: under the wall clock, elapsed_ns is masked to 0.
    let t = read_table(&a).expect("store parses");
    assert_eq!(t.rows(), 1);
    let col = t
        .schema()
        .index_of("elapsed_ns")
        .expect("elapsed_ns column");
    assert_eq!(t.value(0, col), Value::U64(0));

    // Under a virtual clock, "time" is itself deterministic, so elapsed is
    // recorded — and the files are still byte-identical across runs.
    let va = tmp.path("va.clk");
    let vb = tmp.path("vb.clk");
    attack_into(&va, &["--virtual-clock", "1000"]);
    attack_into(&vb, &["--virtual-clock", "1000"]);
    assert_eq!(
        fs::read(&va).expect("store va written"),
        fs::read(&vb).expect("store vb written"),
        "virtual-clock runs must also be byte-identical"
    );
    let t = read_table(&va).expect("virtual-clock store parses");
    match t.value(0, col) {
        Value::U64(ns) => assert!(ns > 0, "virtual-clock elapsed must be recorded"),
        other => panic!("elapsed_ns not a u64: {other}"),
    }
}

#[test]
fn report_queries_and_gates_the_store() {
    let tmp = TmpDir::new("report");
    let store = tmp.path("runs.clk");
    // Two identical runs append two identical rows.
    attack_into(&store, &[]);
    attack_into(&store, &[]);
    let t = read_table(&store).expect("store parses");
    assert_eq!(t.rows(), 2);
    assert_eq!(t.value(0, 0), Value::str("s27_cutelock_str"));

    // Plain summary (metric defaults to `conflicts` on attack stores),
    // then the full query surface.
    run(&["report", "--store", &store]).expect("plain report");
    run(&[
        "report",
        "--store",
        &store,
        "--where",
        "circuit=s27_cutelock_str,decisive=false",
        "--group-by",
        "circuit,strategy",
        "--percentiles",
        "50,90",
    ])
    .expect("filtered grouped report");
    let err = run(&["report", "--store", &store, "--where", "nope=1"]).unwrap_err();
    assert!(err.contains("unknown column"), "got: {err}");

    // Freeze a baseline…
    let bench = tmp.path("BENCH_test.json");
    run(&[
        "report",
        "--store",
        &store,
        "--group-by",
        "circuit,strategy",
        "--emit-bench",
        &bench,
        "--tag",
        "test",
    ])
    .expect("emit-bench");
    let text = fs::read_to_string(&bench).expect("baseline written");
    assert!(text.contains("\"tag\": \"test\""), "{text}");
    assert!(text.contains("\"metric\": \"conflicts\""), "{text}");

    // …which the same data trivially passes…
    run(&[
        "report",
        "--store",
        &store,
        "--group-by",
        "circuit,strategy",
        "--compare-baseline",
        &bench,
    ])
    .expect("self-comparison must pass");

    // …and a doctored baseline (every median forced to -1, CI's trick)
    // must trip the gate with a nonzero exit.
    let doctored: String = text
        .lines()
        .map(|l| {
            if l.trim_start().starts_with("\"median\":") {
                "    \"median\": -1,\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let bad = tmp.path("BENCH_doctored.json");
    fs::write(&bad, doctored).expect("write doctored baseline");
    let err = run(&[
        "report",
        "--store",
        &store,
        "--group-by",
        "circuit,strategy",
        "--compare-baseline",
        &bad,
    ])
    .expect_err("doctored baseline must gate");
    assert!(err.contains("regressed"), "got: {err}");
}

#[test]
fn external_attack_records_its_full_key_width() {
    // The schedule of an external lock is unknown to the CLI; the record
    // must still carry the key port's real width, past 64 bits too.
    let tmp = TmpDir::new("wide-external");
    let orig = tmp.path("s298.bench");
    let locked = tmp.path("s298_xor.bench");
    let store = tmp.path("runs.clk");
    run(&[
        "bench", "--suite", "iscas89", "--name", "s298", "--out", &orig,
    ])
    .expect("bench");
    run(&[
        "lock",
        "--scheme",
        "xor",
        "--key-bits",
        "70",
        "--in",
        &orig,
        "--out",
        &locked,
    ])
    .expect("lock");
    // A zero timeout ends the attack at once; the record is written anyway.
    let _ = run(&[
        "attack",
        "--quick",
        "--timeout",
        "0",
        "--mode",
        "sat",
        "--locked",
        &locked,
        "--oracle",
        &orig,
        "--store",
        &store,
    ]);
    let t = read_table(&store).expect("store parses");
    let col = t.schema().index_of("key_bits").expect("key_bits column");
    assert_eq!(t.value(0, col), Value::U64(70));
}
