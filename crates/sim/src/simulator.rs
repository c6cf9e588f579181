use cutelock_netlist::{topo, NetId, Netlist, NetlistError};

use crate::Logic;

/// A levelized, cycle-accurate three-valued simulator.
///
/// The simulator borrows the netlist it was compiled from, pre-computing a
/// topological gate order once. Each [`cycle_with`](Simulator::cycle_with)
/// call applies one input vector, propagates it combinationally, reads the
/// primary outputs and clocks the flip-flops.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    nl: &'a Netlist,
    order: Vec<usize>,
    values: Vec<Logic>,
    state: Vec<Logic>,
}

impl<'a> Simulator<'a> {
    /// Compiles a simulator for `nl`.
    ///
    /// Flip-flop states start from each FF's recorded init value, with `X`
    /// for unspecified inits (hardware power-up semantics).
    ///
    /// # Errors
    ///
    /// Fails if the combinational part of `nl` is cyclic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let order = topo::gate_order(nl)?;
        let state = nl
            .dffs()
            .iter()
            .map(|ff| ff.init().map_or(Logic::X, Logic::from_bool))
            .collect();
        Ok(Self {
            nl,
            order,
            values: vec![Logic::X; nl.net_count()],
            state,
        })
    }

    /// Resets flip-flops to their recorded init values (`X` if none).
    pub fn reset(&mut self) {
        for (i, ff) in self.nl.dffs().iter().enumerate() {
            self.state[i] = ff.init().map_or(Logic::X, Logic::from_bool);
        }
        self.values.fill(Logic::X);
    }

    /// Resets every flip-flop to `value`, ignoring recorded inits.
    #[cfg(test)]
    pub(crate) fn reset_to(&mut self, value: Logic) {
        self.state.fill(value);
        self.values.fill(Logic::X);
    }

    /// Current state of flip-flop `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[cfg(test)]
    pub(crate) fn state(&self, idx: usize) -> Logic {
        self.state[idx]
    }

    /// Sets the value of primary input `id` for the current cycle.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAnInput`] if `id` is not a primary input.
    #[cfg(test)]
    pub(crate) fn set_input(&mut self, id: NetId, value: Logic) -> Result<(), NetlistError> {
        if self.nl.net(id).driver() != cutelock_netlist::Driver::Input {
            return Err(NetlistError::NotAnInput(self.nl.net_name(id).to_string()));
        }
        self.values[id.index()] = value;
        Ok(())
    }

    /// Sets a primary input by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] or [`NetlistError::NotAnInput`].
    #[cfg(test)]
    pub(crate) fn set_input_by_name(
        &mut self,
        name: &str,
        value: Logic,
    ) -> Result<(), NetlistError> {
        let id = self
            .nl
            .find_net(name)
            .ok_or_else(|| NetlistError::UnknownNet(name.to_string()))?;
        self.set_input(id, value)
    }

    /// Assigns all primary inputs (declaration order) from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the input count.
    pub(crate) fn set_all_inputs(&mut self, values: &[Logic]) {
        assert_eq!(values.len(), self.nl.input_count(), "input width mismatch");
        for (&id, &v) in self.nl.inputs().iter().zip(values) {
            self.values[id.index()] = v;
        }
    }

    /// Propagates values through the combinational logic for the current
    /// cycle. Flip-flop outputs present their current state.
    pub(crate) fn eval(&mut self) {
        for (i, ff) in self.nl.dffs().iter().enumerate() {
            self.values[ff.q().index()] = self.state[i];
        }
        for &g in &self.order {
            let gate = &self.nl.gates()[g];
            // Gates have tiny fan-in; a stack buffer would be premature.
            let ins: Vec<Logic> = gate
                .inputs()
                .iter()
                .map(|&n| self.values[n.index()])
                .collect();
            self.values[gate.output().index()] = Logic::eval_gate(gate.kind(), &ins);
        }
    }

    /// Clocks every flip-flop (`q <= d`) using the values computed by the
    /// last [`eval`](Simulator::eval).
    pub(crate) fn step(&mut self) {
        for (i, ff) in self.nl.dffs().iter().enumerate() {
            self.state[i] = self.values[ff.d().index()];
        }
    }

    /// Value of net `id` as of the last [`eval`](Simulator::eval).
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    pub(crate) fn value(&self, id: NetId) -> Logic {
        self.values[id.index()]
    }

    /// Value of a net by name.
    #[cfg(test)]
    pub(crate) fn value_by_name(&self, name: &str) -> Option<Logic> {
        self.nl.find_net(name).map(|id| self.value(id))
    }

    /// Values of all primary outputs in declaration order.
    pub fn output_values(&self) -> Vec<Logic> {
        self.nl.outputs().iter().map(|&o| self.value(o)).collect()
    }

    /// Convenience: set all inputs, eval, read outputs, then clock.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the input count.
    pub fn cycle_with(&mut self, inputs: &[Logic]) -> Vec<Logic> {
        self.set_all_inputs(inputs);
        self.eval();
        let outs = self.output_values();
        self.step();
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_netlist::bench;

    fn counter2() -> Netlist {
        // 2-bit counter: q0' = !q0, q1' = q1 XOR q0, out = AND(q1,q0).
        bench::parse(
            "cnt2",
            "INPUT(dummy)\nOUTPUT(y)\n\
             # @init q0 0\n# @init q1 0\n\
             q0 = DFF(d0)\nq1 = DFF(d1)\n\
             d0 = NOT(q0)\nd1 = XOR(q1, q0)\ny = AND(q1, q0, dummy)\n",
        )
        .unwrap()
    }

    #[test]
    fn counter_counts() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset();
        let mut seen = Vec::new();
        for _ in 0..5 {
            let out = sim.cycle_with(&[Logic::One]);
            seen.push(out[0]);
        }
        // States 00,01,10,11,00 -> y = q1&q0: 0,0,0,1,0.
        use Logic::*;
        assert_eq!(seen, vec![Zero, Zero, Zero, One, Zero]);
    }

    #[test]
    fn x_propagates_from_uninitialized_state() {
        let src = "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = BUF(q)\n";
        let nl = bench::parse("t", src).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset(); // no init recorded -> X
        sim.set_input_by_name("a", Logic::One).unwrap();
        sim.eval();
        assert_eq!(sim.output_values(), vec![Logic::X]);
        // But a controlling 0 blocks X:
        let src2 = "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = AND(q, a)\n";
        let nl2 = bench::parse("t2", src2).unwrap();
        let mut sim2 = Simulator::new(&nl2).unwrap();
        sim2.reset();
        sim2.set_input_by_name("a", Logic::Zero).unwrap();
        sim2.eval();
        assert_eq!(sim2.output_values(), vec![Logic::Zero]);
    }

    #[test]
    fn reset_to_overrides_init() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset_to(Logic::One);
        assert_eq!(sim.state(0), Logic::One);
        assert_eq!(sim.state(1), Logic::One);
        sim.set_input_by_name("dummy", Logic::One).unwrap();
        sim.eval();
        assert_eq!(sim.output_values(), vec![Logic::One]);
    }

    #[test]
    fn set_input_rejects_non_inputs() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        let y = nl.find_net("y").unwrap();
        assert!(matches!(
            sim.set_input(y, Logic::One),
            Err(NetlistError::NotAnInput(_))
        ));
        assert!(sim.set_input_by_name("nope", Logic::One).is_err());
    }

    #[test]
    fn value_by_name_reads_internal_nets() {
        let nl = counter2();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset();
        sim.set_input_by_name("dummy", Logic::Zero).unwrap();
        sim.eval();
        assert_eq!(sim.value_by_name("d0"), Some(Logic::One));
        assert_eq!(sim.value_by_name("absent"), None);
    }
}
