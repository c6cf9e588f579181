//! Oracle abstractions for oracle-guided attacks.
//!
//! An *oracle* models the working chip an attacker bought on the open
//! market: it computes the original (unlocked) function but reveals nothing
//! else. Attacks interact with it only through [`SequentialOracle`].

use cutelock_netlist::{topo, GateKind, NetId, Netlist, NetlistError};

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

/// Two-valued evaluation order of a [`NetlistOracle`].
#[derive(Debug, Clone)]
struct Engine {
    order: Vec<usize>,
    values: Vec<bool>,
}

impl Engine {
    fn new(nl: &Netlist) -> Result<Self, NetlistError> {
        Ok(Self {
            order: topo::gate_order(nl)?,
            values: vec![false; nl.net_count()],
        })
    }

    fn eval(&mut self, nl: &Netlist) {
        for &g in &self.order {
            let gate = &nl.gates()[g];
            let v = |n: NetId, vals: &[bool]| vals[n.index()];
            let out = match gate.kind() {
                GateKind::And => gate.inputs().iter().all(|&n| v(n, &self.values)),
                GateKind::Or => gate.inputs().iter().any(|&n| v(n, &self.values)),
                GateKind::Nand => !gate.inputs().iter().all(|&n| v(n, &self.values)),
                GateKind::Nor => !gate.inputs().iter().any(|&n| v(n, &self.values)),
                GateKind::Xor => gate
                    .inputs()
                    .iter()
                    .fold(false, |a, &n| a ^ v(n, &self.values)),
                GateKind::Xnor => !gate
                    .inputs()
                    .iter()
                    .fold(false, |a, &n| a ^ v(n, &self.values)),
                GateKind::Not => !v(gate.inputs()[0], &self.values),
                GateKind::Buf => v(gate.inputs()[0], &self.values),
                GateKind::Mux => {
                    if v(gate.inputs()[0], &self.values) {
                        v(gate.inputs()[2], &self.values)
                    } else {
                        v(gate.inputs()[1], &self.values)
                    }
                }
                GateKind::Const0 => false,
                GateKind::Const1 => true,
            };
            self.values[gate.output().index()] = out;
        }
    }
}

/// A [`SequentialOracle`] backed by an (unlocked) [`Netlist`].
///
/// Flip-flops reset to their recorded init values, with `false` substituted
/// for unspecified inits. Inputs are the netlist's primary inputs in
/// declaration order.
#[derive(Debug, Clone)]
pub struct NetlistOracle {
    nl: Netlist,
    engine: Engine,
    state: Vec<bool>,
}

impl NetlistOracle {
    /// Builds an oracle simulating `nl`.
    ///
    /// # Errors
    ///
    /// Fails if `nl` has a combinational cycle.
    pub fn new(nl: Netlist) -> Result<Self, NetlistError> {
        let engine = Engine::new(&nl)?;
        let state = nl
            .dffs()
            .iter()
            .map(|ff| ff.init().unwrap_or(false))
            .collect();
        Ok(Self { nl, engine, state })
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
            self.engine.values[id.index()] = b;
        }
        for (ff, &b) in self.nl.dffs().iter().zip(state) {
            self.engine.values[ff.q().index()] = b;
        }
        self.engine.eval(&self.nl);
        let outs = self
            .nl
            .outputs()
            .iter()
            .map(|&o| self.engine.values[o.index()])
            .collect();
        let next = self
            .nl
            .dffs()
            .iter()
            .map(|ff| self.engine.values[ff.d().index()])
            .collect();
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
        for (i, ff) in self.nl.dffs().iter().enumerate() {
            self.state[i] = ff.init().unwrap_or(false);
        }
    }

    fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.nl.input_count(), "input width mismatch");
        for (&id, &b) in self.nl.inputs().iter().zip(inputs) {
            self.engine.values[id.index()] = b;
        }
        for (ff, &b) in self.nl.dffs().iter().zip(&self.state) {
            self.engine.values[ff.q().index()] = b;
        }
        self.engine.eval(&self.nl);
        let outs: Vec<bool> = self
            .nl
            .outputs()
            .iter()
            .map(|&o| self.engine.values[o.index()])
            .collect();
        for (i, ff) in self.nl.dffs().iter().enumerate() {
            self.state[i] = self.engine.values[ff.d().index()];
        }
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
