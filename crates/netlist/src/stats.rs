//! Size and composition statistics of a netlist.

use std::collections::BTreeMap;
use std::fmt;

use crate::{GateKind, Netlist};

/// Summary statistics of a [`Netlist`], used in reports and overhead tables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Primary inputs, key inputs included.
    pub inputs: usize,
    /// Of which key inputs.
    pub key_inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Flip-flops.
    pub dffs: usize,
    /// Total combinational gates.
    pub gates: usize,
    /// Combinational depth (max logic level), if the netlist is acyclic.
    pub depth: Option<usize>,
    /// Gate count per kind.
    pub per_kind: BTreeMap<GateKind, usize>,
}

impl NetlistStats {
    /// Computes statistics for `nl`.
    pub fn of(nl: &Netlist) -> Self {
        let mut per_kind = BTreeMap::new();
        for g in nl.gates() {
            *per_kind.entry(g.kind()).or_insert(0) += 1;
        }
        Self {
            inputs: nl.input_count(),
            key_inputs: nl.key_inputs().len(),
            outputs: nl.output_count(),
            dffs: nl.dff_count(),
            gates: nl.gate_count(),
            depth: crate::topo::depth(nl).ok(),
            per_kind,
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PI={} (keys={}) PO={} FF={} gates={} depth={}",
            self.inputs,
            self.key_inputs,
            self.outputs,
            self.dffs,
            self.gates,
            self.depth.map_or("cyclic".to_string(), |d| d.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    #[test]
    fn stats_of_toy() {
        let nl = bench::parse(
            "toy",
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\nq = DFF(d)\n\
             d = XOR(a, q)\nx = AND(d, keyinput0)\ny = NOT(x)\n",
        )
        .unwrap();
        let s = NetlistStats::of(&nl);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.key_inputs, 1);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.gates, 3);
        assert_eq!(s.per_kind[&GateKind::Xor], 1);
        assert_eq!(s.depth, Some(3));
        let shown = s.to_string();
        assert!(shown.contains("FF=1"));
    }
}
