//! The paper's running example (Fig. 1): Cute-Lock-Beh on a `1001`
//! sequence detector.
//!
//! Builds the Mealy detector, locks its STG behaviorally with four keys and
//! a 2-bit counter, and walks through what an end user sees: correct key
//! sequence → correct detection; one wrong key → the machine silently walks
//! into wrongful states.
//!
//! ```text
//! cargo run --release --example sequence_detector_beh
//! ```

use cute_lock::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 1's machine: detect overlapping occurrences of "1001".
    let stg = sequence_detector("1001");
    println!(
        "1001 detector: {} states, {} input bit, {} output bit",
        stg.num_states(),
        stg.num_inputs(),
        stg.num_outputs()
    );

    // Fig. 1's lock: four keys, 4 bits each, 2-bit counter.
    let locked = CuteLockBeh::new(CuteLockBehConfig {
        keys: 4,
        key_bits: 4,
        wrongful: WrongfulPolicy::RandomTable,
        seed: 1001,
        schedule: None,
    })
    .lock(&stg)?;
    println!(
        "locked netlist: {} (counter FFs: {:?})",
        NetlistStats::of(&locked.netlist),
        locked.counter_ffs
    );
    println!("schedule: {}", locked.schedule);

    // Drive the stream 1 0 0 1 0 0 1 (two overlapping matches).
    let stream = [true, false, false, true, false, false, true];

    let mut orig = NetlistOracle::new(locked.original.clone())?;
    let mut with_keys = LockedOracle::with_correct_keys(&locked)?;
    let wrong_key = locked.schedule.key_at_time(1).flipped(2);
    let mut without_keys = LockedOracle::with_constant_key(&locked, wrong_key)?;

    println!("\nbit  detect(orig)  detect(correct keys)  detect(wrong keys)");
    for &b in &stream {
        let y = orig.step(&[b]);
        let yck = with_keys.step(&[b]);
        let ywk = without_keys.step(&[b]);
        println!(
            "  {}            {}                     {}                   {}",
            u8::from(b),
            u8::from(y[0]),
            u8::from(yck[0]),
            u8::from(ywk[0])
        );
        assert_eq!(y, yck, "correct keys must preserve behavior");
    }

    // Quantify how wrong keys corrupt detection over a long random run.
    let rate = locked.wide_corruption_rate(&locked.schedule.key_at_time(0).flipped(0), 2000, 7)?;
    println!(
        "\ncorruption rate under a constant wrong key: {:.1}%",
        rate * 100.0
    );
    assert!(rate > 0.0);
    Ok(())
}
