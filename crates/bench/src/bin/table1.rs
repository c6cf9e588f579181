//! Regenerates **Table I** — Cute-Lock-Beh algorithm validation.
//!
//! The paper locks the Synthezza `bcomp` benchmark (8 inputs, 39 outputs)
//! with 18–19 key bits of schedule material and tabulates a simulation
//! trace: `y` (original), `yck` (locked, correct keys) and `ywk` (locked,
//! wrong keys). The validation criterion is `y == yck` on every row while
//! `ywk` diverges.

use cutelock_bench::{rule, Options};
use cutelock_circuits::synthezza;
use cutelock_core::beh::{CuteLockBeh, CuteLockBehConfig, WrongfulPolicy};
use cutelock_core::LockedOracle;
use cutelock_sim::trace::{bus_hex, Waveform};
use cutelock_sim::{Logic, NetlistOracle, SequentialOracle};

const USAGE: &str = "table1 [--quick]  — Cute-Lock-Beh validation trace (paper Table I)";

fn hex_of(bits: &[bool]) -> String {
    // Buses print MSB-first, as in the paper.
    let logic: Vec<Logic> = bits.iter().rev().map(|&b| Logic::from_bool(b)).collect();
    bus_hex(&logic)
}

fn main() {
    let opt = Options::parse(std::env::args(), USAGE, &["quick"]);
    let stg = synthezza("bcomp").expect("bcomp profile exists");
    let lock = CuteLockBeh::new(CuteLockBehConfig {
        keys: 6,
        key_bits: 3, // 6 × 3 = 18 schedule bits (paper: 19 key-bit values)
        wrongful: WrongfulPolicy::Auto,
        seed: 2025,
        schedule: None,
    });
    let locked = lock.lock(&stg).expect("bcomp locks");
    assert!(
        locked
            .verify_equivalence(if opt.quick { 100 } else { 500 }, 1)
            .expect("simulation works"),
        "locked bcomp must match the original under the correct schedule"
    );

    let mut orig = NetlistOracle::new(locked.original.clone()).expect("oracle");
    let mut ck = LockedOracle::with_correct_keys(&locked).expect("correct-key oracle");
    let wrong = locked.schedule.key_at_time(0).flipped(1);
    let mut wk = LockedOracle::with_constant_key(&locked, wrong).expect("wrong-key oracle");
    orig.reset();
    ck.reset();
    wk.reset();

    // The paper's stimulus alternates a couple of characteristic patterns.
    let patterns: [u8; 20] = [
        0x00, 0xaa, 0xc3, 0xc3, 0xaa, 0xc3, 0xaa, 0xaa, 0xaa, 0xaa, 0x00, 0x00, 0x00, 0x00, 0xc3,
        0x55, 0xff, 0x0f, 0xf0, 0x3c,
    ];
    let mut wf = Waveform::new(["x[7:0]", "y[38:0]", "yck[38:0]", "ywk[38:0]"]);
    let mut all_match = true;
    let mut any_diverge = false;
    for (cycle, &p) in patterns.iter().enumerate() {
        let x: Vec<bool> = (0..8).map(|i| p >> i & 1 == 1).collect();
        let y = orig.step(&x);
        let yck = ck.step(&x);
        let ywk = wk.step(&x);
        all_match &= y == yck;
        any_diverge |= y != ywk;
        wf.push(
            cycle as u64 * 20,
            [format!("{p:02x}"), hex_of(&y), hex_of(&yck), hex_of(&ywk)],
        );
    }

    println!("Table I: Cute-Lock-Beh validation (bcomp, k=6, ki=3, 18 schedule bits)");
    println!("schedule: {}", locked.schedule);
    rule(72);
    print!("{wf}");
    rule(72);
    println!(
        "y == yck on all {} cycles: {all_match}   |   ywk diverged: {any_diverge}",
        patterns.len()
    );
    if !(all_match && any_diverge) {
        eprintln!("VALIDATION FAILED");
        std::process::exit(1);
    }
}
