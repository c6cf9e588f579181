//! The scan-chain combinational view of a sequential circuit.
//!
//! Oracle-guided attacks and equivalence proofs never reason about a
//! sequential circuit directly. They encode its [`scan_view`]: a purely
//! combinational circuit whose pseudo-inputs are the flip-flop outputs and
//! whose pseudo-outputs are the flip-flop data inputs.
//!
//! * With **scan access**, every flip-flop is controllable and observable,
//!   so a scan attack encodes one view per miter copy with the state a
//!   free input.
//! * Without scan access, the bounded attacks (NEOS `bbo`/`int`, KC2,
//!   RANE) and the bounded equivalence proofs unroll the circuit by
//!   encoding one view per clock cycle, threading each frame's next state
//!   into the following frame's state inputs.
//!
//! The view is not lowered to CNF here: `cutelock_sat`'s `MiterBuilder`
//! encodes [`ScanView`] copies and time frames with shared-port wiring.

use std::collections::HashMap;

use crate::{NetId, Netlist, NetlistError};

/// Result of [`scan_view`]: the combinational core with pseudo PI/PO.
#[derive(Debug, Clone)]
pub struct ScanView {
    /// The combinational netlist.
    pub netlist: Netlist,
    /// The source circuit's primary outputs mapped into the view, in the
    /// source's output order. Kept explicitly because output marking
    /// dedupes: a primary output that *also* feeds a flip-flop data input
    /// appears only once in `netlist.outputs()`, so slicing that list
    /// cannot recover the original output vector.
    pub primary_outputs: Vec<NetId>,
    /// Pseudo-inputs replacing each flip-flop output (by FF index).
    pub state_inputs: Vec<NetId>,
    /// Pseudo-outputs exposing each flip-flop data input (by FF index).
    pub next_state_outputs: Vec<NetId>,
}

/// Builds the full-scan combinational view of `nl`: every flip-flop output
/// becomes a pseudo primary input (keeping its net name) and every flip-flop
/// data input becomes a pseudo primary output.
///
/// This is the circuit model attacked by the combinational oracle-guided SAT
/// attack when scan access is assumed.
///
/// # Errors
///
/// Propagates structural errors from reconstruction.
pub fn scan_view(nl: &Netlist) -> Result<ScanView, NetlistError> {
    let mut out = Netlist::new(format!("{}_scan", nl.name()));
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for &inp in nl.inputs() {
        let id = out.add_input(nl.net_name(inp).to_string())?;
        map.insert(inp, id);
    }
    let mut state_inputs = Vec::with_capacity(nl.dff_count());
    for ff in nl.dffs() {
        let id = out.add_input(nl.net_name(ff.q()).to_string())?;
        map.insert(ff.q(), id);
        state_inputs.push(id);
    }
    for &g in &crate::topo::gate_order(nl)? {
        let gate = &nl.gates()[g];
        let ins: Vec<NetId> = gate.inputs().iter().map(|&i| map[&i]).collect();
        let id = out.add_gate(gate.kind(), nl.net_name(gate.output()).to_string(), &ins)?;
        map.insert(gate.output(), id);
    }
    let mut primary_outputs = Vec::with_capacity(nl.output_count());
    for &o in nl.outputs() {
        out.mark_output(map[&o])?;
        primary_outputs.push(map[&o]);
    }
    let mut next_state_outputs = Vec::with_capacity(nl.dff_count());
    for ff in nl.dffs() {
        let id = map[&ff.d()];
        out.mark_output(id)?;
        next_state_outputs.push(id);
    }
    out.validate()?;
    Ok(ScanView {
        netlist: out,
        primary_outputs,
        state_inputs,
        next_state_outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    fn counter() -> Netlist {
        // 1-bit counter with enable: q' = q XOR en, out = q.
        bench::parse(
            "cnt",
            "INPUT(en)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
        )
        .unwrap()
    }

    #[test]
    fn scan_view_promotes_ffs() {
        let nl = counter();
        let sv = scan_view(&nl).unwrap();
        assert!(sv.netlist.is_combinational());
        assert_eq!(sv.state_inputs.len(), 1);
        assert_eq!(sv.next_state_outputs.len(), 1);
        // inputs: en + q; outputs: y + d.
        assert_eq!(sv.netlist.input_count(), 2);
        assert_eq!(sv.netlist.output_count(), 2);
    }
}
