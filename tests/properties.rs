//! Property-based tests over the core substrates.
//!
//! Circuits are drawn by seeding the deterministic benchmark generator, so
//! every failure is reproducible from the printed seed.

use std::collections::HashMap;

use cute_lock::circuits::seqgen;
use cute_lock::circuits::Profile;
use cute_lock::netlist::unroll::scan_view;
use cute_lock::prelude::*;
use cute_lock::sat::{tseitin, MiterBuilder, PortVals, SatResult, Solver};
use cute_lock::sim::ParallelSim;
use proptest::prelude::*;

/// A small random sequential circuit from a seed.
fn circuit_from_seed(seed: u64) -> BenchmarkCircuit {
    let profile = Profile {
        name: "prop",
        inputs: 2 + (seed % 5) as usize,
        outputs: 1 + (seed % 4) as usize,
        dffs: 3 + (seed % 9) as usize,
        gates: 40 + (seed % 80) as usize,
    };
    seqgen::generate(&profile, seed).expect("generator is total")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `.bench` writing and re-parsing is lossless.
    #[test]
    fn bench_round_trip(seed in 0u64..10_000) {
        let c = circuit_from_seed(seed);
        let again = bench::reparse(&c.netlist).expect("reparses");
        prop_assert!(bench::structurally_equal(&c.netlist, &again));
    }

    /// k `MiterBuilder` frames threaded from reset, their data inputs
    /// pinned to a seeded sequence, give the sequential oracle's outputs
    /// frame by frame.
    #[test]
    fn unroll_matches_sequential_simulation(seed in 0u64..10_000, frames in 1usize..5) {
        let c = circuit_from_seed(seed);
        let nl = &c.netlist;
        let mut orc = NetlistOracle::new(nl.clone()).expect("oracle");
        orc.reset();
        let mut m = MiterBuilder::new(scan_view(nl).expect("scan view"), &[]);
        let keys = m.fresh_keys();
        let reset: Vec<bool> = nl.dffs().iter().map(|ff| ff.init().unwrap_or(false)).collect();
        let mut state = m.enc.lits_const(&reset);
        let mut expected = Vec::new();
        let mut outputs = Vec::new();
        let mut rng = seed.wrapping_mul(0x2545f4914f6cdd1d) | 1;
        for _ in 0..frames {
            let inputs: Vec<bool> = (0..nl.input_count())
                .map(|i| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    (rng >> (i % 60)) & 1 == 1
                })
                .collect();
            expected.push(orc.step(&inputs));
            let f = m
                .frame(&keys, PortVals::Shared(&state), PortVals::Const(&inputs))
                .expect("encodes");
            state = f.next_state;
            outputs.push(f.outputs);
        }
        prop_assert_eq!(m.enc.solver.solve(), SatResult::Sat);
        for (t, (exp, lits)) in expected.iter().zip(&outputs).enumerate() {
            prop_assert_eq!(&m.enc.values(lits), exp, "frame {}", t);
        }
    }

    /// The scan view computes exactly one sequential step.
    #[test]
    fn scan_view_is_one_step(seed in 0u64..10_000) {
        let c = circuit_from_seed(seed);
        let nl = &c.netlist;
        let sv = scan_view(nl).expect("scan view");
        let mut orc = NetlistOracle::new(nl.clone()).expect("oracle");
        let state: Vec<bool> = (0..nl.dff_count()).map(|i| (seed >> (i % 60)) & 1 == 1).collect();
        let inputs: Vec<bool> = (0..nl.input_count()).map(|i| (seed >> (i % 53)) & 1 == 0).collect();
        let (want_y, want_ns) = orc.scan_query(&state, &inputs);
        // Evaluate the scan view combinationally.
        let mut comb = NetlistOracle::new(sv.netlist.clone()).expect("comb oracle");
        let mut full = inputs.clone();
        full.extend(state.iter().copied());
        let all = cute_lock::sim::SequentialOracle::step(&mut comb, &full);
        let got_y = &all[..nl.output_count()];
        let got_ns = &all[nl.output_count()..];
        prop_assert_eq!(got_y, want_y.as_slice());
        prop_assert_eq!(got_ns, want_ns.as_slice());
    }

    /// Tseitin encoding agrees with simulation on a random input pattern.
    #[test]
    fn tseitin_matches_simulation(seed in 0u64..10_000) {
        let c = circuit_from_seed(seed);
        let sv = scan_view(&c.netlist).expect("scan view");
        let nl = &sv.netlist;
        let mut solver = Solver::new();
        let cnf = tseitin::encode(nl, &mut solver, &HashMap::new()).expect("encodes");
        // Pin every input to a pseudo-random value via unit clauses.
        let mut psim = ParallelSim::new(nl).expect("compiles");
        let mut words = Vec::new();
        for (i, &inp) in nl.inputs().iter().enumerate() {
            let bit = (seed >> (i % 61)) & 1 == 1;
            words.push(if bit { !0u64 } else { 0 });
            let l = cnf.lit(inp);
            solver.add_clause(&[if bit { l } else { !l }]);
        }
        psim.set_all_inputs(&words);
        psim.eval();
        prop_assert_eq!(solver.solve(), SatResult::Sat);
        for &o in nl.outputs() {
            let want = psim.value(o) & 1 == 1;
            let got = solver.lit_value(cnf.lit(o)).expect("assigned");
            prop_assert_eq!(got, want, "output {}", nl.net_name(o));
        }
    }

    /// The three-valued reference, the 64-lane simulator and the oracle
    /// (the same kernel, read from lane 0) agree cycle for cycle.
    #[test]
    fn scalar_and_parallel_simulators_agree(seed in 0u64..10_000) {
        let c = circuit_from_seed(seed);
        let nl = &c.netlist;
        let mut scalar = Simulator::new(nl).expect("compiles");
        let mut par = ParallelSim::new(nl).expect("compiles");
        let mut oracle = NetlistOracle::new(nl.clone()).expect("compiles");
        scalar.reset();
        par.reset();
        let mut rng = seed | 1;
        for _ in 0..8 {
            let bits: Vec<bool> = (0..nl.input_count())
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng & 1 == 1
                })
                .collect();
            let logic: Vec<Logic> = bits.iter().map(|&b| Logic::from_bool(b)).collect();
            let words: Vec<u64> = bits.iter().map(|&b| u64::from(b)).collect();
            let s_out = scalar.cycle_with(&logic);
            par.set_all_inputs(&words);
            par.eval();
            let p_out: Vec<Logic> = par
                .output_values()
                .iter()
                .map(|&w| Logic::from_bool(w & 1 == 1))
                .collect();
            par.step();
            let o_out: Vec<Logic> = oracle.step(&bits).into_iter().map(Logic::from_bool).collect();
            prop_assert_eq!(&s_out, &p_out);
            prop_assert_eq!(&s_out, &o_out);
        }
    }

    /// Locking with Cute-Lock-Str preserves functionality under the correct
    /// schedule for arbitrary configurations.
    #[test]
    fn str_lock_always_equivalent_under_correct_keys(
        seed in 0u64..2_000,
        keys in 1usize..6,
        ki in 1usize..7,
        ffs in 1usize..4,
    ) {
        let c = circuit_from_seed(seed);
        let ffs = ffs.min(c.netlist.dff_count());
        let locked = CuteLockStr::new(CuteLockStrConfig {
            keys,
            key_bits: ki,
            locked_ffs: ffs,
            seed,
            schedule: None,
            ..Default::default()
        })
        .lock(&c.netlist)
        .expect("locks");
        prop_assert!(locked.verify_equivalence(60, seed ^ 1).expect("simulates"));
    }

    /// NMI is symmetric, bounded, and invariant under label permutation.
    #[test]
    fn nmi_properties(labels in proptest::collection::vec(0usize..5, 2..40)) {
        let n = labels.len();
        let other: Vec<usize> = labels.iter().map(|&l| (l * 7 + 3) % 5).collect();
        let v = nmi(&labels, &other);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!((v - nmi(&other, &labels)).abs() < 1e-12, "symmetry");
        // Permuting label names does not change the score.
        let renamed: Vec<usize> = labels.iter().map(|&l| 4 - l).collect();
        prop_assert!((nmi(&labels, &renamed) - 1.0).abs() < 1e-9 || n == 1);
    }

    /// Key schedules round-trip through their integer representation.
    #[test]
    fn key_schedule_round_trip(k in 1usize..8, ki in 1usize..20, seed in 0u64..1000) {
        let s = KeySchedule::random(k, ki, seed);
        prop_assert_eq!(s.num_keys(), k);
        prop_assert_eq!(s.key_bits(), ki);
        for t in 0..k {
            let kv = s.key_at_time(t);
            if ki <= 64 {
                let v = kv.as_u64().expect("fits");
                prop_assert_eq!(&KeyValue::from_u64(v, ki), kv);
            }
        }
        if k >= 2 {
            prop_assert!(!s.is_constant(), "random schedules must be multi-key");
        }
    }
}

/// Simplification-engine properties: for any generated sequential
/// circuit, the simplified netlist must be observationally equivalent to
/// the original — same primary-output trace for every input sequence —
/// under both the default configuration (which may drop unobservable
/// flip-flops) and the state-preserving one the attack paths use.
mod simplify_properties {
    use cute_lock::netlist::simplify::{simplify, SimplifyConfig};
    use cute_lock::prelude::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `simulate(original) == simulate(simplified)` over random input
        /// sequences from reset.
        #[test]
        fn simplified_netlists_simulate_identically(seed in 0u64..10_000, cycles in 1usize..12) {
            let c = super::circuit_from_seed(seed);
            let nl = &c.netlist;
            for cfg in [SimplifyConfig::default(), SimplifyConfig::preserving_state()] {
                let (simplified, stats) = simplify(nl, &cfg).expect("simplifies");
                simplified.validate().expect("rebuild is structurally valid");
                prop_assert_eq!(simplified.input_count(), nl.input_count());
                prop_assert_eq!(simplified.output_count(), nl.output_count());
                if cfg.keep_all_dffs {
                    prop_assert_eq!(simplified.dff_count(), nl.dff_count());
                }
                let mut a = NetlistOracle::new(nl.clone()).expect("oracle");
                let mut b = NetlistOracle::new(simplified.clone()).expect("oracle");
                a.reset();
                b.reset();
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                for t in 0..cycles {
                    let inputs: Vec<bool> = (0..nl.input_count())
                        .map(|_| {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            rng & 1 == 1
                        })
                        .collect();
                    prop_assert_eq!(
                        a.step(&inputs),
                        b.step(&inputs),
                        "cycle {} diverged ({})", t, stats
                    );
                }
            }
        }

        /// Simplification is a pure function: two runs on the same input
        /// serialize identically, and a second application is a fixpoint
        /// (the determinism contract DETERMINISM.md Rule 8 documents).
        #[test]
        fn simplify_is_pure_and_idempotent(seed in 0u64..10_000) {
            let c = super::circuit_from_seed(seed);
            let cfg = SimplifyConfig::default();
            let (s1, _) = simplify(&c.netlist, &cfg).expect("simplifies");
            let (s2, _) = simplify(&c.netlist, &cfg).expect("simplifies");
            prop_assert_eq!(bench::write(&s1), bench::write(&s2), "not deterministic");
            let (fixed, stats) = simplify(&s1, &cfg).expect("simplifies");
            prop_assert!(!stats.changed(), "not a fixpoint: {}", stats);
            prop_assert_eq!(bench::write(&s1), bench::write(&fixed));
        }
    }
}

/// Clock-arithmetic properties: the repo-local `Instant`/`Duration`
/// algebra in `cutelock_core::clock` must be total (saturating, never
/// panicking) and the two clock implementations must agree on it.
mod clock_properties {
    use cute_lock::locking::clock::{Clock, ClockHandle, Instant, VirtualClock};
    use proptest::prelude::*;
    use std::time::Duration;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `duration_since` and the saturating operators are consistent:
        /// later - earlier round-trips through `+`, and the reverse
        /// direction saturates to zero instead of panicking.
        #[test]
        fn instant_algebra_is_total(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
            let t0 = Instant::from_nanos(a);
            let dur = Duration::from_nanos(d);
            let t1 = t0 + dur;
            prop_assert!(t1 >= t0, "adding a Duration never goes backwards");
            prop_assert_eq!(t1.duration_since(t0), dur);
            prop_assert_eq!(t0.duration_since(t1), Duration::ZERO, "reverse saturates");
            prop_assert_eq!(t0.checked_duration_since(t1).is_some(), d == 0);
            prop_assert_eq!(t1.checked_duration_since(t0), Some(dur));
            prop_assert_eq!(t1 - t0, dur);
            prop_assert_eq!((t1 - dur).as_nanos(), a, "sub undoes add below saturation");
        }

        /// Addition saturates at `FAR_FUTURE` and subtraction at `EPOCH`;
        /// no overflow panic for any operand pair.
        #[test]
        fn instant_algebra_saturates(a in 0u64..u64::MAX, d in 0u64..u64::MAX) {
            let t = Instant::from_nanos(a);
            let dur = Duration::from_nanos(d);
            let up = t + dur;
            prop_assert_eq!(up.as_nanos(), a.saturating_add(d));
            let down = t - dur;
            prop_assert_eq!(down.as_nanos(), a.saturating_sub(d));
        }

        /// A virtual clock never goes backwards: any interleaving of
        /// `advance` and `tick` is monotone, and the total elapsed time is
        /// the exact sum of the steps.
        #[test]
        fn virtual_clock_is_monotone_and_exact(
            rate in 1u64..1_000_000,
            steps in proptest::collection::vec(0u64..1_000, 1..40),
        ) {
            let clock = VirtualClock::with_tick(rate);
            let start = clock.now();
            prop_assert_eq!(start, Instant::EPOCH);
            let mut last = start;
            let mut expected = 0u128;
            for (i, &s) in steps.iter().enumerate() {
                if i % 2 == 0 {
                    clock.tick(s);
                    expected += u128::from(s) * u128::from(rate);
                } else {
                    clock.advance(Duration::from_nanos(s));
                    expected += u128::from(s);
                }
                let now = clock.now();
                prop_assert!(now >= last, "virtual time went backwards");
                last = now;
            }
            prop_assert_eq!(u128::from(last.duration_since(start).as_nanos() as u64), expected);
        }

        /// The wall and virtual clocks agree on Duration algebra: moving a
        /// virtual clock by `d` advances `now()` by exactly `d`, and two
        /// wall readings bracket a virtual advance monotonically (the wall
        /// clock can only move forward while we work).
        #[test]
        fn wall_and_virtual_agree_on_duration_algebra(d in 0u64..1_000_000_000) {
            let dur = Duration::from_nanos(d);
            let v = VirtualClock::new();
            let v0 = v.now();
            v.advance(dur);
            prop_assert_eq!(v.now().duration_since(v0), dur);
            let w = ClockHandle::wall();
            let w0 = w.now();
            let w1 = w.now();
            prop_assert!(w1 >= w0, "wall clock is monotone");
            // Both implementations produce Instants in the same algebra:
            // shifting either reading by `dur` adds exactly `dur`.
            prop_assert_eq!((w0 + dur).duration_since(w0), dur);
            prop_assert_eq!((v0 + dur).duration_since(v0), dur);
        }

        /// Ticks on a no-rate clock (`new()`) are no-ops, like on the wall
        /// clock: time only moves through explicit `advance`.
        #[test]
        fn zero_rate_ticks_are_noops(units in 0u64..1_000_000) {
            let v = VirtualClock::new();
            let before = v.now();
            v.tick(units);
            prop_assert_eq!(v.now(), before);
            v.advance(Duration::from_nanos(units));
            prop_assert_eq!(v.now().duration_since(before), Duration::from_nanos(units));
        }
    }
}

/// Clause-exchange merge properties: the canonical batch built at a
/// portfolio epoch barrier must not depend on the order exports arrive in
/// (DETERMINISM.md Rule 7) — index-order collection is a convention, not a
/// load-bearing assumption.
mod share_properties {
    use cute_lock::sat::{merge_exports, Lit, ShareCap, SharedClause, Var};
    use proptest::prelude::*;

    /// Deterministically expands a seed into a small set of export lists
    /// (one per pretend entrant), with deliberate duplicates across lists.
    fn exports_from(seed: u64, groups: usize) -> Vec<Vec<SharedClause>> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..groups)
            .map(|_| {
                let n = (next() % 6) as usize;
                (0..n)
                    .map(|_| {
                        let len = 2 + (next() % 4) as usize;
                        let mut lits: Vec<Lit> = (0..len)
                            .map(|_| {
                                let v = Var::from_index((next() % 12) as usize);
                                if next() % 2 == 0 {
                                    Lit::positive(v)
                                } else {
                                    Lit::negative(v)
                                }
                            })
                            .collect();
                        lits.sort_unstable();
                        lits.dedup();
                        SharedClause {
                            lits,
                            lbd: 1 + (next() % 5) as u32,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any permutation of the export lists — and any order within each
        /// list — merges to the same canonical batch.
        #[test]
        fn merge_is_permutation_invariant(
            seed in 0u64..100_000,
            groups in 1usize..6,
            rot in 0usize..6,
            rev in 0usize..2,
        ) {
            let cap = ShareCap::default();
            let exports = exports_from(seed, groups);
            let baseline = merge_exports(&exports, cap);
            let mut shuffled = exports;
            let n = shuffled.len().max(1);
            shuffled.rotate_left(rot % n);
            if rev == 1 {
                shuffled.reverse();
                for group in &mut shuffled {
                    group.reverse();
                }
            }
            prop_assert_eq!(merge_exports(&shuffled, cap), baseline);
        }

        /// The batch is canonical: dedup'd by literals, sorted by
        /// (glue, length, literals), and capped at `max_clauses`.
        #[test]
        fn merge_output_is_canonical(seed in 0u64..100_000, groups in 1usize..6) {
            let cap = ShareCap::default();
            let batch = merge_exports(&exports_from(seed, groups), cap);
            prop_assert!(batch.len() <= cap.max_clauses);
            for w in batch.windows(2) {
                let a = (w[0].lbd, w[0].lits.len(), &w[0].lits);
                let b = (w[1].lbd, w[1].lits.len(), &w[1].lits);
                prop_assert!(a <= b, "batch not in canonical order");
                prop_assert!(w[0].lits != w[1].lits, "duplicate survived the merge");
            }
        }
    }
}
