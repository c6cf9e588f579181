//! Fan-in cone extraction and flip-flop dependency analysis.
//!
//! Cones stop at *sequential boundaries*: primary inputs and flip-flop
//! outputs. The structural locking transform uses `fanin_cone` to find the
//! "hardware" (next-state logic) of a flip-flop so it can be repurposed as
//! wrongful hardware for another flip-flop, and the DANA-style dataflow
//! attack uses [`ff_dependency_graph`] to cluster registers.

use std::collections::{HashMap, HashSet};

use crate::{Driver, NetId, Netlist};

/// The transitive fan-in cone of `root`, stopping at primary inputs and
/// flip-flop outputs.
///
/// Returns the set of nets in the cone, including `root` itself and the
/// boundary nets (inputs / FF outputs) where the traversal stopped.
pub(crate) fn fanin_cone(nl: &Netlist, root: NetId) -> HashSet<NetId> {
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        if let Driver::Gate(g) = nl.net(n).driver() {
            for &inp in nl.gates()[g].inputs() {
                stack.push(inp);
            }
        }
    }
    seen
}

/// The sequential support of `root`: which primary inputs and flip-flop
/// outputs its cone depends on.
pub fn cone_support(nl: &Netlist, root: NetId) -> Vec<NetId> {
    let mut support: Vec<NetId> = fanin_cone(nl, root)
        .into_iter()
        .filter(|&n| matches!(nl.net(n).driver(), Driver::Input | Driver::DffQ(_)))
        .collect();
    support.sort();
    support
}

/// Directed register dependency graph: edge `i -> j` means the data input of
/// flip-flop `j` combinationally depends on the output of flip-flop `i`.
///
/// Returned as an adjacency map from FF index to the set of FF indices it
/// feeds. This is the raw material of dataflow (DANA-style) analysis.
pub fn ff_dependency_graph(nl: &Netlist) -> HashMap<usize, HashSet<usize>> {
    // Map from q-net to FF index.
    let mut q_of: HashMap<NetId, usize> = HashMap::new();
    for (i, ff) in nl.dffs().iter().enumerate() {
        q_of.insert(ff.q(), i);
    }
    let mut graph: HashMap<usize, HashSet<usize>> = HashMap::new();
    for (j, ff) in nl.dffs().iter().enumerate() {
        for src in cone_support(nl, ff.d()) {
            if let Some(&i) = q_of.get(&src) {
                graph.entry(i).or_default().insert(j);
            }
        }
    }
    graph
}

/// Which flip-flops are *observable*: their value can influence some
/// primary output, possibly through other flip-flops over multiple cycles.
///
/// Computed as a fixpoint: a flip-flop is observable when its output is in
/// the combinational support of a primary output, or in the support of the
/// data input of an observable flip-flop. Locking transforms use this to
/// avoid corrupting state that no attacker (or user) could ever see.
pub fn observable_dffs(nl: &Netlist) -> Vec<bool> {
    let mut q_of: HashMap<NetId, usize> = HashMap::new();
    for (i, ff) in nl.dffs().iter().enumerate() {
        q_of.insert(ff.q(), i);
    }
    let mut obs = vec![false; nl.dff_count()];
    let mut queue: Vec<usize> = Vec::new();
    for &po in nl.outputs() {
        for src in cone_support(nl, po) {
            if let Some(&i) = q_of.get(&src) {
                if !obs[i] {
                    obs[i] = true;
                    queue.push(i);
                }
            }
        }
    }
    while let Some(g) = queue.pop() {
        for src in cone_support(nl, nl.dffs()[g].d()) {
            if let Some(&i) = q_of.get(&src) {
                if !obs[i] {
                    obs[i] = true;
                    queue.push(i);
                }
            }
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn two_ff_chain() -> Netlist {
        // in -> ff0 -> ff1 -> out, with a NOT between the FFs.
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a").unwrap();
        let q0 = nl.add_net("q0").unwrap();
        let q1 = nl.add_net("q1").unwrap();
        nl.add_dff("ff0", a, q0).unwrap();
        let inv = nl.add_gate(GateKind::Not, "inv", &[q0]).unwrap();
        nl.add_dff("ff1", inv, q1).unwrap();
        let y = nl.add_gate(GateKind::Buf, "y", &[q1]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    #[test]
    fn fanin_stops_at_ff_boundary() {
        let nl = two_ff_chain();
        let inv = nl.find_net("inv").unwrap();
        let cone = fanin_cone(&nl, inv);
        let q0 = nl.find_net("q0").unwrap();
        let a = nl.find_net("a").unwrap();
        assert!(cone.contains(&inv));
        assert!(cone.contains(&q0));
        // Does not pass through ff0 to its data input.
        assert!(!cone.contains(&a));
    }

    #[test]
    fn support_identifies_sources() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let x = nl.add_gate(GateKind::And, "x", &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, "y", &[x, a]).unwrap();
        nl.mark_output(y).unwrap();
        let _ = c;
        let sup = cone_support(&nl, y);
        assert_eq!(sup, vec![a, b]);
    }

    #[test]
    fn ff_dependency_graph_chain() {
        let nl = two_ff_chain();
        let g = ff_dependency_graph(&nl);
        // ff0 feeds ff1; ff1 feeds nothing sequential.
        assert!(g[&0].contains(&1));
        assert!(!g.contains_key(&1));
    }

    #[test]
    fn observability_fixpoint() {
        // ff0 -> ff1 -> output; ff2 is dead (feeds nothing).
        let mut nl = Netlist::new("obs");
        let a = nl.add_input("a").unwrap();
        let q0 = nl.add_net("q0").unwrap();
        let q1 = nl.add_net("q1").unwrap();
        let q2 = nl.add_net("q2").unwrap();
        nl.add_dff("ff0", a, q0).unwrap();
        let mid = nl.add_gate(GateKind::Not, "mid", &[q0]).unwrap();
        nl.add_dff("ff1", mid, q1).unwrap();
        let dead = nl.add_gate(GateKind::Not, "dead", &[q2]).unwrap();
        nl.add_dff("ff2", dead, q2).unwrap();
        let y = nl.add_gate(GateKind::Buf, "y", &[q1]).unwrap();
        nl.mark_output(y).unwrap();
        let obs = observable_dffs(&nl);
        assert_eq!(obs, vec![true, true, false]);
    }
}
