//! Behavioral STG simulation.
//!
//! The behavioral simulator is the golden reference for
//! [`synth`](crate::synth): the synthesized netlist must produce identical
//! output sequences for identical stimulus.

use crate::{StateId, Stg};

/// A stepping simulator over an [`Stg`].
#[derive(Debug, Clone)]
pub(crate) struct StgSimulator<'a> {
    stg: &'a Stg,
    state: StateId,
    cycles: u64,
}

impl<'a> StgSimulator<'a> {
    /// Starts a simulation in the machine's reset state.
    pub(crate) fn new(stg: &'a Stg) -> Self {
        Self {
            stg,
            state: stg.reset(),
            cycles: 0,
        }
    }

    /// Current state.
    pub(crate) fn state(&self) -> StateId {
        self.state
    }

    /// Cycles executed since the last reset.
    pub(crate) fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Returns to the reset state.
    pub(crate) fn reset(&mut self) {
        self.state = self.stg.reset();
        self.cycles = 0;
    }

    /// Applies one input vector (`inputs[i]` = input bit `i`), returns the
    /// Mealy outputs of this cycle and advances the state.
    ///
    /// # Panics
    ///
    /// Panics if the input width is wrong or the machine is incomplete at
    /// the current state (a validated machine never is).
    pub(crate) fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.stg.num_inputs(), "input width mismatch");
        let bits = pack_bits(inputs);
        let t = self
            .stg
            .step(self.state, bits)
            .expect("incomplete machine: no transition matches");
        self.state = t.next;
        self.cycles += 1;
        t.outputs.clone()
    }

    /// Resets, then runs a whole input sequence, collecting per-cycle
    /// outputs.
    pub(crate) fn run(&mut self, sequence: &[Vec<bool>]) -> Vec<Vec<bool>> {
        self.reset();
        sequence.iter().map(|v| self.step(v)).collect()
    }
}

/// Packs a bool slice into a bit mask, bit `i` = `inputs[i]`.
///
/// # Panics
///
/// Panics if more than 64 bits are supplied.
pub(crate) fn pack_bits(inputs: &[bool]) -> u64 {
    assert!(inputs.len() <= 64);
    inputs
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

/// Unpacks a bit mask into `width` bools, bit `i` = result `i`.
pub(crate) fn unpack_bits(bits: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| bits >> i & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::sequence_detector;

    #[test]
    fn detector_sim_finds_overlapping_matches() {
        let stg = sequence_detector("101");
        let mut sim = StgSimulator::new(&stg);
        let stream = [true, false, true, false, true, true, false, true];
        let outs: Vec<bool> = stream.iter().map(|&b| sim.step(&[b])[0]).collect();
        // Matches end at indices 2 and 4 (overlap allowed), and 7.
        assert_eq!(
            outs,
            vec![false, false, true, false, true, false, false, true]
        );
        assert_eq!(sim.cycles(), 8);
    }

    #[test]
    fn reset_returns_to_start() {
        let stg = sequence_detector("11");
        let mut sim = StgSimulator::new(&stg);
        sim.step(&[true]);
        assert_ne!(sim.state(), stg.reset());
        sim.reset();
        assert_eq!(sim.state(), stg.reset());
        assert_eq!(sim.cycles(), 0);
    }

    #[test]
    fn run_resets_first() {
        let stg = sequence_detector("11");
        let mut sim = StgSimulator::new(&stg);
        sim.step(&[true]);
        let outs = sim.run(&[vec![true], vec![true]]);
        assert_eq!(outs, vec![vec![false], vec![true]]);
    }

    #[test]
    fn bit_packing_round_trip() {
        let bits = [true, false, true, true];
        let packed = pack_bits(&bits);
        assert_eq!(packed, 0b1101);
        assert_eq!(unpack_bits(packed, 4), bits.to_vec());
    }
}
