//! End-to-end CLI test driving real files through a temp directory:
//! `bench → lock → attack → overhead → convert`, all on disk, closing the
//! ROADMAP "CLI integration test through a tmpdir" item.

use std::fs;
use std::path::PathBuf;

use cutelock_cli::commands::dispatch;

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

#[test]
fn lock_attack_overhead_pipeline_on_disk() {
    let tmp = TmpDir::new("pipeline");
    let orig = tmp.path("s27.bench");
    let locked = tmp.path("s27_locked.bench");
    let keys = tmp.path("s27.keys");

    // 1. Emit a built-in benchmark circuit to disk.
    run(&[
        "bench", "--suite", "iscas89", "--name", "s27", "--out", &orig,
    ])
    .expect("bench");
    let orig_text = fs::read_to_string(&orig).expect("original written");
    assert!(
        orig_text.contains("INPUT("),
        "not a .bench file: {orig_text}"
    );

    // 2. Lock it with Cute-Lock-Str, writing netlist and key schedule.
    run(&[
        "lock",
        "--scheme",
        "str",
        "--in",
        &orig,
        "--out",
        &locked,
        "--keys-out",
        &keys,
        "--keys",
        "4",
        "--key-bits",
        "2",
        "--ffs",
        "1",
        "--seed",
        "7",
    ])
    .expect("lock");
    let locked_text = fs::read_to_string(&locked).expect("locked written");
    assert!(
        locked_text.contains("keyinput"),
        "locked netlist must expose key ports"
    );
    let keys_text = fs::read_to_string(&keys).expect("schedule written");
    assert_eq!(
        keys_text.lines().filter(|l| l.starts_with('t')).count(),
        4,
        "4 scheduled keys expected:\n{keys_text}"
    );

    // 3. Attack the on-disk pair (bounded --quick budget; the multi-key
    //    schedule means the attack dead-ends rather than finding a key —
    //    a non-decisive verdict, which the CLI reports as an error so
    //    `main` exits 2).
    let err = run(&[
        "attack", "--mode", "int", "--locked", &locked, "--oracle", &orig, "--quick",
    ])
    .expect_err("a held lock must not yield exit 0");
    assert!(err.contains("not decisive"), "got: {err}");

    // 4. Overhead analysis of locked vs original, from disk.
    run(&["overhead", "--original", &orig, "--locked", &locked]).expect("overhead");

    // 5. Round-trip bonus: convert the locked netlist to Verilog on disk.
    let verilog = tmp.path("s27_locked.v");
    run(&[
        "convert", "--in", &locked, "--to", "verilog", "--out", &verilog,
    ])
    .expect("convert");
    assert!(
        fs::read_to_string(&verilog)
            .expect("verilog written")
            .contains("module"),
        "expected a Verilog module"
    );
}

#[test]
fn verify_accepts_correct_schedule_and_rejects_wrong_one() {
    let tmp = TmpDir::new("verify");
    let orig = tmp.path("s27.bench");
    let locked = tmp.path("s27_locked.bench");
    let keys = tmp.path("s27.keys");
    run(&[
        "bench", "--suite", "iscas89", "--name", "s27", "--out", &orig,
    ])
    .expect("bench");
    run(&[
        "lock",
        "--scheme",
        "str",
        "--in",
        &orig,
        "--out",
        &locked,
        "--keys-out",
        &keys,
        "--keys",
        "4",
        "--key-bits",
        "2",
        "--ffs",
        "1",
        "--seed",
        "7",
    ])
    .expect("lock");

    // The written schedule proves out (cycle-exact for 8 frames).
    run(&[
        "verify",
        "--locked",
        &locked,
        "--original",
        &orig,
        "--keys",
        &keys,
    ])
    .expect("correct schedule must verify");

    // Corrupt the t0 key: verification must fail with a counterexample.
    let bad_keys = complement_t0(&tmp, &keys);
    let err = run(&[
        "verify",
        "--locked",
        &locked,
        "--original",
        &orig,
        "--keys",
        &bad_keys,
    ])
    .expect_err("wrong schedule must fail verification");
    assert!(err.contains("diverge"), "got: {err}");

    // Width mismatches are caught before any solving.
    let narrow = tmp.path("narrow.keys");
    fs::write(&narrow, "t0 1\nt1 0\n").expect("write narrow keys");
    let err = run(&[
        "verify",
        "--locked",
        &locked,
        "--original",
        &orig,
        "--keys",
        &narrow,
    ])
    .expect_err("width mismatch must fail");
    assert!(err.contains("keyinput"), "got: {err}");
}

/// Writes a copy of the key file at `keys` with the t0 key complemented
/// and returns its path.
fn complement_t0(tmp: &TmpDir, keys: &str) -> String {
    let text = fs::read_to_string(keys).expect("keys written");
    let corrupted: String = text
        .lines()
        .map(|l| match l.strip_prefix("t0 ") {
            Some(bits) => {
                let flipped: String = bits
                    .chars()
                    .map(|c| if c == '0' { '1' } else { '0' })
                    .collect();
                format!("t0 {flipped}\n")
            }
            None => format!("{l}\n"),
        })
        .collect();
    let path = tmp.path("bad.keys");
    fs::write(&path, corrupted).expect("write corrupted keys");
    path
}

#[test]
fn verify_binds_keys_in_numeric_order() {
    let tmp = TmpDir::new("keyorder");
    let orig = tmp.path("s27.bench");
    let locked = tmp.path("k12.bench");
    let keys = tmp.path("k12.keys");
    run(&[
        "bench", "--suite", "iscas89", "--name", "s27", "--out", &orig,
    ])
    .expect("bench");
    run(&[
        "lock",
        "--scheme",
        "str",
        "--in",
        &orig,
        "--out",
        &locked,
        "--keys-out",
        &keys,
        "--keys",
        "4",
        "--key-bits",
        "12",
        "--ffs",
        "1",
        "--seed",
        "7",
    ])
    .expect("lock");
    // Re-declare the key ports lexicographically: keyinput10 and
    // keyinput11 now come before keyinput2. The schedule still binds in
    // numeric keyinputN order.
    let text = fs::read_to_string(&locked).expect("locked written");
    let is_key = |l: &&str| l.starts_with("INPUT(keyinput");
    let mut sorted: Vec<&str> = text.lines().filter(is_key).collect();
    sorted.sort_unstable();
    let mut sorted = sorted.into_iter();
    let lex: String = text
        .lines()
        .map(|l| {
            if is_key(&l) {
                sorted.next().unwrap()
            } else {
                l
            }
        })
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_ne!(lex, text, "ports re-declared");
    let lex_locked = tmp.path("k12_lex.bench");
    fs::write(&lex_locked, lex).expect("write re-declared lock");
    let verify = |keys: &str| {
        run(&[
            "verify",
            "--locked",
            &lex_locked,
            "--original",
            &orig,
            "--keys",
            keys,
        ])
    };
    verify(&keys).expect("own schedule must verify");
    let err = verify(&complement_t0(&tmp, &keys)).expect_err("complemented t0 must fail");
    assert!(err.contains("diverge"), "got: {err}");
}

#[test]
fn lock_reads_schedule_from_file() {
    let tmp = TmpDir::new("schedfile");
    let orig = tmp.path("s27.bench");
    let locked = tmp.path("s27_locked.bench");
    let sched = tmp.path("in.keys");
    let echoed = tmp.path("out.keys");
    run(&[
        "bench", "--suite", "iscas89", "--name", "s27", "--out", &orig,
    ])
    .expect("bench");
    // A hand-written 3-slot schedule of 2-bit keys; --keys/--key-bits are
    // absent on purpose — the file dictates the dimensions.
    fs::write(&sched, "# hand schedule\nt0 10\nt1 01\nt2 11\n").expect("write schedule");
    run(&[
        "lock",
        "--scheme",
        "str",
        "--in",
        &orig,
        "--out",
        &locked,
        "--schedule-file",
        &sched,
        "--keys-out",
        &echoed,
        "--ffs",
        "1",
        "--seed",
        "3",
    ])
    .expect("lock with schedule file");
    // The echoed schedule matches the input file slot for slot.
    let echoed_text = fs::read_to_string(&echoed).expect("echoed schedule");
    for line in ["t0 10", "t1 01", "t2 11"] {
        assert!(
            echoed_text.contains(line),
            "missing `{line}`:\n{echoed_text}"
        );
    }
    // And the lock built from it certifies against the original.
    run(&[
        "verify",
        "--locked",
        &locked,
        "--original",
        &orig,
        "--keys",
        &sched,
    ])
    .expect("file-scheduled lock must verify");

    // Non-str schemes reject the flag.
    let err = run(&[
        "lock",
        "--scheme",
        "xor",
        "--in",
        &orig,
        "--out",
        &locked,
        "--schedule-file",
        &sched,
    ])
    .expect_err("xor must reject --schedule-file");
    assert!(err.contains("schedule-file"), "got: {err}");
}

#[test]
fn attack_on_missing_file_reports_path() {
    let tmp = TmpDir::new("missing");
    let ghost = tmp.path("nope.bench");
    let err = run(&[
        "attack", "--mode", "int", "--locked", &ghost, "--oracle", &ghost,
    ])
    .unwrap_err();
    assert!(
        err.contains("nope.bench"),
        "error must name the path: {err}"
    );
}

#[test]
fn mismatched_external_pairs_are_errors() {
    let tmp = TmpDir::new("mismatch");
    let orig = tmp.path("s27.bench");
    let locked = tmp.path("s27_xor.bench");
    let keys = tmp.path("s27_xor.keys");
    run(&[
        "bench", "--suite", "iscas89", "--name", "s27", "--out", &orig,
    ])
    .expect("bench");
    run(&[
        "lock",
        "--scheme",
        "xor",
        "--key-bits",
        "4",
        "--in",
        &orig,
        "--out",
        &locked,
        "--keys-out",
        &keys,
    ])
    .expect("lock");
    let s27 = fs::read_to_string(&orig).expect("original written");

    // Oracles whose ports do not pair with the locked netlist's.
    let wider = tmp.path("wider.bench");
    fs::write(&wider, format!("{s27}INPUT(G99)\n")).expect("write oracle");
    let more_outputs = tmp.path("more_outputs.bench");
    fs::write(&more_outputs, format!("{s27}OUTPUT(G10)\n")).expect("write oracle");
    for (oracle, port) in [(&wider, "inputs"), (&more_outputs, "outputs")] {
        for mode in ["sat", "int"] {
            let err = run(&[
                "attack", "--quick", "--mode", mode, "--locked", &locked, "--oracle", oracle,
            ])
            .expect_err("a port-count mismatch must be an error");
            assert!(err.contains(port), "{mode}: {err}");
        }
        let err = run(&[
            "verify",
            "--locked",
            &locked,
            "--original",
            oracle,
            "--keys",
            &keys,
        ])
        .expect_err("a port-count mismatch must be an error");
        assert!(err.contains(port), "verify: {err}");
    }

    // An oracle flip-flop with no namesake in the locked netlist leaves the
    // scan attacks nothing to pair it with: they end in FAIL.
    let renamed = tmp.path("renamed.bench");
    let text = s27.replace("G5 ", "G5x ").replace("G5,", "G5x,");
    fs::write(&renamed, text).expect("write oracle");
    for mode in ["sat", "appsat", "double-dip"] {
        let err = run(&[
            "attack", "--quick", "--mode", mode, "--locked", &locked, "--oracle", &renamed,
        ])
        .expect_err("an unpaired flip-flop must fail the scan attacks");
        assert!(err.contains("FAIL"), "{mode}: {err}");
    }
}
