use cutelock_netlist::{topo, GateKind, NetId, Netlist, NetlistError};

/// A 64-way bit-parallel two-valued simulator.
///
/// Each net carries a 64-bit word; bit `i` of every word belongs to an
/// independent simulation "lane". Random-pattern workloads (switching
/// activity, the locked-vs-original miter behind every equivalence and
/// corruption check) sample 64 stimulus sequences per pass. Its gate
/// evaluator is the workspace's only two-valued one:
/// [`NetlistOracle`](crate::NetlistOracle) runs it too and reads lane 0.
///
/// Flip-flops with unspecified init start at 0 in every lane.
#[derive(Debug, Clone)]
pub struct ParallelSim<'a> {
    nl: &'a Netlist,
    order: Vec<usize>,
    values: Vec<u64>,
    state: Vec<u64>,
}

impl<'a> ParallelSim<'a> {
    /// Compiles a parallel simulator for `nl`.
    ///
    /// # Errors
    ///
    /// Fails if the combinational part of `nl` is cyclic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let order = topo::gate_order(nl)?;
        let state = nl
            .dffs()
            .iter()
            .map(|ff| if ff.init() == Some(true) { !0u64 } else { 0 })
            .collect();
        Ok(Self {
            nl,
            order,
            values: vec![0; nl.net_count()],
            state,
        })
    }

    /// Resets all flip-flop lanes to their init values (0 when unspecified).
    pub fn reset(&mut self) {
        for (i, ff) in self.nl.dffs().iter().enumerate() {
            self.state[i] = if ff.init() == Some(true) { !0 } else { 0 };
        }
    }

    /// Sets the 64-lane word of primary input `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAnInput`] if `id` is not a primary input.
    pub fn set_input(&mut self, id: NetId, word: u64) -> Result<(), NetlistError> {
        if self.nl.net(id).driver() != cutelock_netlist::Driver::Input {
            return Err(NetlistError::NotAnInput(self.nl.net_name(id).to_string()));
        }
        self.values[id.index()] = word;
        Ok(())
    }

    /// Assigns all primary inputs (declaration order) from words.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the input count.
    pub fn set_all_inputs(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.nl.input_count(), "input width mismatch");
        for (&id, &w) in self.nl.inputs().iter().zip(words) {
            self.values[id.index()] = w;
        }
    }

    /// Propagates all 64 lanes through the combinational logic.
    pub fn eval(&mut self) {
        for (i, ff) in self.nl.dffs().iter().enumerate() {
            self.values[ff.q().index()] = self.state[i];
        }
        eval_words(self.nl, &self.order, &mut self.values);
    }

    /// Clocks every flip-flop from the last [`eval`](ParallelSim::eval).
    pub fn step(&mut self) {
        for (i, ff) in self.nl.dffs().iter().enumerate() {
            self.state[i] = self.values[ff.d().index()];
        }
    }

    /// Word value of net `id` after the last [`eval`](ParallelSim::eval).
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    pub fn value(&self, id: NetId) -> u64 {
        self.values[id.index()]
    }

    /// Words of all primary outputs in declaration order.
    pub fn output_values(&self) -> Vec<u64> {
        self.nl.outputs().iter().map(|&o| self.value(o)).collect()
    }

    /// Read access to all net words (indexed by [`NetId::index`]).
    pub(crate) fn all_values(&self) -> &[u64] {
        &self.values
    }
}

/// Evaluates every gate of `nl` in topological `order` on 64-lane words.
/// `values` is indexed by [`NetId::index`] and must already hold the
/// primary-input and flip-flop-output words.
pub(crate) fn eval_words(nl: &Netlist, order: &[usize], values: &mut [u64]) {
    for &g in order {
        let gate = &nl.gates()[g];
        let ins = gate.inputs();
        let v = |n: NetId| values[n.index()];
        let word = match gate.kind() {
            GateKind::And => ins.iter().fold(!0u64, |acc, &n| acc & v(n)),
            GateKind::Or => ins.iter().fold(0u64, |acc, &n| acc | v(n)),
            GateKind::Nand => !ins.iter().fold(!0u64, |acc, &n| acc & v(n)),
            GateKind::Nor => !ins.iter().fold(0u64, |acc, &n| acc | v(n)),
            GateKind::Xor => ins.iter().fold(0u64, |acc, &n| acc ^ v(n)),
            GateKind::Xnor => !ins.iter().fold(0u64, |acc, &n| acc ^ v(n)),
            GateKind::Not => !v(ins[0]),
            GateKind::Buf => v(ins[0]),
            GateKind::Mux => {
                let s = v(ins[0]);
                (!s & v(ins[1])) | (s & v(ins[2]))
            }
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
        };
        values[gate.output().index()] = word;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_netlist::bench;

    #[test]
    fn lanes_are_independent() {
        let nl = bench::parse("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let mut sim = ParallelSim::new(&nl).unwrap();
        sim.set_all_inputs(&[0b1100, 0b1010]);
        sim.eval();
        assert_eq!(sim.output_values(), vec![0b1000]);
    }

    #[test]
    fn mux_word_semantics() {
        let nl = bench::parse(
            "m",
            "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)\n",
        )
        .unwrap();
        let mut sim = ParallelSim::new(&nl).unwrap();
        sim.set_all_inputs(&[0b01, 0b10, 0b01]);
        sim.eval();
        // lane0: s=1 -> b=1; lane1: s=0 -> a=1.
        assert_eq!(sim.output_values(), vec![0b11]);
    }

    #[test]
    fn sequential_matches_scalar_simulator() {
        let src = "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n";
        let nl = bench::parse("cnt", src).unwrap();
        let mut psim = ParallelSim::new(&nl).unwrap();
        let mut ssim = crate::Simulator::new(&nl).unwrap();
        ssim.reset();
        // Drive en=1 in lane 0, en=0 in lane 1, compare lane 0 against scalar.
        for _ in 0..6 {
            psim.set_all_inputs(&[0b01]);
            psim.eval();
            let scalar = ssim.cycle_with(&[crate::Logic::One]);
            let lane0 = psim.output_values()[0] & 1 != 0;
            assert_eq!(crate::Logic::from_bool(lane0), scalar[0]);
            // Lane 1 never toggles.
            assert_eq!(psim.output_values()[0] & 2, 0);
            psim.step();
        }
    }

    #[test]
    fn init_one_fills_lanes() {
        let src = "INPUT(a)\nOUTPUT(y)\n# @init q 1\nq = DFF(d)\nd = BUF(a)\ny = BUF(q)\n";
        let nl = bench::parse("t", src).unwrap();
        let mut sim = ParallelSim::new(&nl).unwrap();
        sim.set_all_inputs(&[0]);
        sim.eval();
        assert_eq!(sim.output_values(), vec![!0u64]);
    }
}
