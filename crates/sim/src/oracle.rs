//! Oracle abstractions for oracle-guided attacks.
//!
//! An *oracle* models the working chip an attacker bought on the open
//! market: it computes the original (unlocked) function but reveals nothing
//! else. Attacks interact with it only through [`SequentialOracle`].

use cutelock_netlist::{topo, NetId, Netlist, NetlistError};

use crate::parallel::eval_words;

/// A sequential oracle driven cycle by cycle from reset.
pub trait SequentialOracle {
    /// Number of (data) input bits per cycle.
    fn num_inputs(&self) -> usize;
    /// Number of output bits per cycle.
    fn num_outputs(&self) -> usize;
    /// Returns the chip to its reset state.
    fn reset(&mut self);
    /// Applies one input vector, returns the outputs of that cycle, then
    /// advances the state.
    fn step(&mut self, inputs: &[bool]) -> Vec<bool>;

    /// Resets, then applies a whole input sequence, returning the output of
    /// every cycle.
    fn run(&mut self, sequence: &[Vec<bool>]) -> Vec<Vec<bool>> {
        self.reset();
        sequence.iter().map(|v| self.step(v)).collect()
    }
}

/// A [`SequentialOracle`] backed by an (unlocked) [`Netlist`].
///
/// Gates are evaluated by the same 64-lane kernel as
/// [`ParallelSim`](crate::ParallelSim), with the answer read from lane 0.
/// Flip-flops reset to their recorded init values, with `false` substituted
/// for unspecified inits. Inputs are the netlist's primary inputs in
/// declaration order.
#[derive(Debug, Clone)]
pub struct NetlistOracle {
    nl: Netlist,
    order: Vec<usize>,
    values: Vec<u64>,
    state: Vec<bool>,
}

impl NetlistOracle {
    /// Builds an oracle simulating `nl`.
    ///
    /// # Errors
    ///
    /// Fails if `nl` has a combinational cycle.
    pub fn new(nl: Netlist) -> Result<Self, NetlistError> {
        let mut oracle = Self {
            order: topo::gate_order(&nl)?,
            values: vec![0; nl.net_count()],
            state: Vec::new(),
            nl,
        };
        oracle.reset();
        Ok(oracle)
    }

    /// Scan-chain query: load `state` into the flip-flops, apply `inputs`,
    /// and return `(outputs, next_state)` — the access model of the
    /// combinational oracle-guided SAT attack.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn scan_query(&mut self, state: &[bool], inputs: &[bool]) -> (Vec<bool>, Vec<bool>) {
        assert_eq!(state.len(), self.nl.dff_count(), "state width mismatch");
        assert_eq!(inputs.len(), self.nl.input_count(), "input width mismatch");
        for (&id, &b) in self.nl.inputs().iter().zip(inputs) {
            self.values[id.index()] = u64::from(b);
        }
        for (ff, &b) in self.nl.dffs().iter().zip(state) {
            self.values[ff.q().index()] = u64::from(b);
        }
        eval_words(&self.nl, &self.order, &mut self.values);
        let lane0 = |id: NetId| self.values[id.index()] & 1 == 1;
        let outs = self.nl.outputs().iter().map(|&o| lane0(o)).collect();
        let next = self.nl.dffs().iter().map(|ff| lane0(ff.d())).collect();
        (outs, next)
    }
}

impl SequentialOracle for NetlistOracle {
    fn num_inputs(&self) -> usize {
        self.nl.input_count()
    }

    fn num_outputs(&self) -> usize {
        self.nl.output_count()
    }

    fn reset(&mut self) {
        self.state = self
            .nl
            .dffs()
            .iter()
            .map(|ff| ff.init().unwrap_or(false))
            .collect();
    }

    fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        let state = std::mem::take(&mut self.state);
        let (outs, next) = self.scan_query(&state, inputs);
        self.state = next;
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_netlist::bench;

    #[test]
    fn sequential_oracle_counts() {
        let nl = bench::parse(
            "cnt",
            "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
        )
        .unwrap();
        let mut orc = NetlistOracle::new(nl).unwrap();
        let seq: Vec<Vec<bool>> = vec![vec![true]; 4];
        let outs = orc.run(&seq);
        let bits: Vec<bool> = outs.iter().map(|o| o[0]).collect();
        assert_eq!(bits, vec![false, true, false, true]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let nl = bench::parse(
            "cnt",
            "INPUT(en)\nOUTPUT(y)\n# @init q 1\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
        )
        .unwrap();
        let mut orc = NetlistOracle::new(nl).unwrap();
        assert_eq!(orc.step(&[true]), vec![true]);
        assert_eq!(orc.step(&[true]), vec![false]);
        orc.reset();
        assert_eq!(orc.step(&[true]), vec![true]);
    }

    #[test]
    fn scan_query_exposes_next_state() {
        let nl = bench::parse(
            "cnt",
            "INPUT(en)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
        )
        .unwrap();
        let mut orc = NetlistOracle::new(nl).unwrap();
        let (outs, next) = orc.scan_query(&[true], &[true]);
        assert_eq!(outs, vec![true]); // y = q = 1
        assert_eq!(next, vec![false]); // d = 1 ^ 1
    }
}
