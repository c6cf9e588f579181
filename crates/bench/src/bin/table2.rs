//! Regenerates **Table II** — Cute-Lock-Str algorithm validation.
//!
//! The paper locks ISCAS'89 `s27` with the key sequence `1, 3, 2, 0`
//! (k = 4 keys of ki = 2 bits, full Fig. 3 MUX tree) and tabulates the
//! single output `G17` of the original against `G17ck` (correct keys) and
//! `G17wk` (wrong keys).

use cutelock_bench::{rule, Options};
use cutelock_circuits::s27::s27;
use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig, MuxTreeStyle};
use cutelock_core::{KeySchedule, KeyValue, LockedOracle};
use cutelock_sim::trace::Waveform;
use cutelock_sim::{NetlistOracle, SequentialOracle};

const USAGE: &str = "table2 [--quick]  — Cute-Lock-Str validation trace on s27 (paper Table II)";

fn main() {
    let opt = Options::parse(std::env::args(), USAGE, &["quick"]);
    let original = s27();
    // The paper's keys: 1, 3, 2, 0.
    let schedule = KeySchedule::new(vec![
        KeyValue::from_u64(1, 2),
        KeyValue::from_u64(3, 2),
        KeyValue::from_u64(2, 2),
        KeyValue::from_u64(0, 2),
    ]);
    let locked = CuteLockStr::new(CuteLockStrConfig {
        keys: 4,
        key_bits: 2,
        locked_ffs: 1,
        style: MuxTreeStyle::FullTree,
        seed: 2025,
        schedule: Some(schedule),
        ..Default::default()
    })
    .lock(&original)
    .expect("s27 locks");
    assert!(
        locked
            .verify_equivalence(if opt.quick { 200 } else { 1000 }, 3)
            .expect("simulation works"),
        "locked s27 must match the original under the correct key sequence"
    );

    let mut orig = NetlistOracle::new(locked.original.clone()).expect("oracle");
    let mut ck = LockedOracle::with_correct_keys(&locked).expect("correct-key oracle");
    // Wrong keys: apply key value 2 constantly (correct only at t=2).
    let mut wk = LockedOracle::with_constant_key(&locked, KeyValue::from_u64(2, 2))
        .expect("wrong-key oracle");
    orig.reset();
    ck.reset();
    wk.reset();

    // The paper's input stimulus for G0..G3 over 15 clock edges.
    let stim: [(u8, u8, u8, u8); 15] = [
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
        (1, 1, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (0, 0, 0, 0),
        (1, 1, 1, 1),
        (0, 0, 1, 1),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 1, 1),
        (1, 1, 0, 1),
        (0, 0, 0, 1),
        (1, 0, 1, 1),
    ];
    let mut wf = Waveform::new(["G0", "G1", "G2", "G3", "G17", "G17ck", "G17wk"]);
    let mut all_match = true;
    let mut any_diverge = false;
    for (cycle, &(g0, g1, g2, g3)) in stim.iter().enumerate() {
        let x = vec![g0 == 1, g1 == 1, g2 == 1, g3 == 1];
        let y = orig.step(&x);
        let yck = ck.step(&x);
        let ywk = wk.step(&x);
        all_match &= y == yck;
        any_diverge |= y != ywk;
        let b = |v: bool| if v { "1" } else { "0" }.to_string();
        wf.push(
            cycle as u64 * 20 + 20,
            [
                g0.to_string(),
                g1.to_string(),
                g2.to_string(),
                g3.to_string(),
                b(y[0]),
                b(yck[0]),
                b(ywk[0]),
            ],
        );
    }

    println!("Table II: Cute-Lock-Str validation (s27, keys 1,3,2,0, k=4, ki=2)");
    println!("locked flip-flop: index {:?}", locked.locked_ffs);
    rule(60);
    print!("{wf}");
    rule(60);
    println!(
        "G17 == G17ck on all {} cycles: {all_match}   |   G17wk diverged: {any_diverge}",
        stim.len()
    );
    if !(all_match && any_diverge) {
        eprintln!("VALIDATION FAILED");
        std::process::exit(1);
    }
}
