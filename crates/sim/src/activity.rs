//! Switching-activity estimation by random simulation.
//!
//! The overhead model (Fig. 4a of the paper) needs per-net toggle rates to
//! estimate dynamic power. We drive the circuit with uniform random primary
//! inputs for a configurable number of cycles using the 64-lane
//! [`ParallelSim`] and count transitions.

use cutelock_netlist::{Netlist, NetlistError};

use crate::ParallelSim;

/// Per-net activity statistics from random simulation.
#[derive(Debug, Clone)]
pub struct ActivityReport {
    /// Average toggles per cycle for every net, indexed by
    /// [`NetId::index`](cutelock_netlist::NetId::index). Range `[0, 1]`.
    pub toggle_rate: Vec<f64>,
    /// Probability of the net being `1`, per net. Range `[0, 1]`.
    pub one_probability: Vec<f64>,
    /// Number of simulated cycles (per lane).
    pub cycles: usize,
}

/// Deterministic 64-bit generator (splitmix64), good enough for stimulus.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Estimates switching activity of `nl` over `cycles` cycles of uniform
/// random primary-input stimulus, 64 independent lanes at a time.
///
/// The estimate is deterministic for a given `seed`.
///
/// # Errors
///
/// Fails if `nl` has a combinational cycle.
pub fn switching_activity(
    nl: &Netlist,
    cycles: usize,
    seed: u64,
) -> Result<ActivityReport, NetlistError> {
    let mut sim = ParallelSim::new(nl)?;
    let input_count = nl.input_count();
    let mut rng = SplitMix64(seed ^ 0x5bf0_3635);
    let nets = sim.all_values().len();
    let mut toggles = vec![0u64; nets];
    let mut ones = vec![0u64; nets];
    let mut prev: Vec<u64> = vec![0; nets];
    sim.reset();
    let words: Vec<u64> = (0..input_count).map(|_| rng.next()).collect();
    sim.set_all_inputs(&words);
    sim.eval();
    prev.copy_from_slice(sim.all_values());
    sim.step();
    for _ in 0..cycles {
        let words: Vec<u64> = (0..input_count).map(|_| rng.next()).collect();
        sim.set_all_inputs(&words);
        sim.eval();
        let cur = sim.all_values();
        for n in 0..nets {
            toggles[n] += (prev[n] ^ cur[n]).count_ones() as u64;
            ones[n] += cur[n].count_ones() as u64;
        }
        prev.copy_from_slice(cur);
        sim.step();
    }
    let samples = (cycles.max(1) * 64) as f64;
    Ok(ActivityReport {
        toggle_rate: toggles.iter().map(|&t| t as f64 / samples).collect(),
        one_probability: ones.iter().map(|&o| o as f64 / samples).collect(),
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_netlist::bench;

    #[test]
    fn constant_nets_never_toggle() {
        let nl = bench::parse("c", "INPUT(a)\nOUTPUT(y)\nz = CONST1()\ny = AND(a, z)\n").unwrap();
        let rep = switching_activity(&nl, 100, 7).unwrap();
        let z = nl.find_net("z").unwrap();
        assert_eq!(rep.toggle_rate[z.index()], 0.0);
        assert_eq!(rep.one_probability[z.index()], 1.0);
    }

    #[test]
    fn random_input_toggles_about_half() {
        let nl = bench::parse("b", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").unwrap();
        let rep = switching_activity(&nl, 500, 42).unwrap();
        let a = nl.find_net("a").unwrap();
        let rate = rep.toggle_rate[a.index()];
        assert!((0.45..0.55).contains(&rate), "rate = {rate}");
        assert!((0.45..0.55).contains(&rep.one_probability[a.index()]));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = AND(d, b)\n",
        )
        .unwrap();
        let r1 = switching_activity(&nl, 50, 1).unwrap();
        let r2 = switching_activity(&nl, 50, 1).unwrap();
        assert_eq!(r1.toggle_rate, r2.toggle_rate);
        let r3 = switching_activity(&nl, 50, 2).unwrap();
        assert_ne!(r1.toggle_rate, r3.toggle_rate);
    }

    #[test]
    fn and_gate_one_probability_quarterish() {
        let nl = bench::parse("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let rep = switching_activity(&nl, 500, 3).unwrap();
        let y = nl.find_net("y").unwrap();
        let p = rep.one_probability[y.index()];
        assert!((0.2..0.3).contains(&p), "p = {p}");
        assert!(rep.toggle_rate.iter().any(|&t| t > 0.0));
    }
}
