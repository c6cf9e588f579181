//! Topological ordering and levelization of the combinational gate graph.
//!
//! Flip-flop outputs and primary inputs are sources; flip-flops legitimately
//! break cycles. A cycle through gates only is a structural error.

use crate::{Driver, Netlist, NetlistError};

/// Returns the gates of `nl` in a topological order: every gate appears after
/// all gates in its transitive fan-in.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the gate graph is cyclic.
pub fn gate_order(nl: &Netlist) -> Result<Vec<usize>, NetlistError> {
    // Kahn's algorithm over gates; an edge g1 -> g2 exists when the output
    // net of g1 is an input of g2.
    let n = nl.gates().len();
    let mut indegree = vec![0usize; n];
    // successor adjacency: for each gate, gates consuming its output.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, gate) in nl.gates().iter().enumerate() {
        for &inp in gate.inputs() {
            if let Driver::Gate(src) = nl.net(inp).driver() {
                consumers[src].push(gi);
                indegree[gi] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&g| indegree[g] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(g) = queue.pop() {
        order.push(g);
        for &c in &consumers[g] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    if order.len() != n {
        // Identify one net on a cycle for the error message.
        let g = (0..n)
            .find(|&g| indegree[g] > 0)
            .expect("cycle gate exists");
        let net = nl.gates()[g].output();
        return Err(NetlistError::CombinationalCycle(
            nl.net_name(net).to_string(),
        ));
    }
    Ok(order)
}

/// Logic level of every net: inputs, constants and flip-flop outputs are
/// level 0; a gate output is 1 + the max level of its inputs.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the gate graph is cyclic.
pub(crate) fn levelize(nl: &Netlist) -> Result<Vec<usize>, NetlistError> {
    let order = gate_order(nl)?;
    let mut level = vec![0usize; nl.net_count()];
    for g in order {
        let gate = &nl.gates()[g];
        let lvl = gate
            .inputs()
            .iter()
            .map(|&i| level[i.index()])
            .max()
            .unwrap_or(0)
            + 1;
        level[gate.output().index()] = lvl;
    }
    Ok(level)
}

/// Maximum logic level over all nets (combinational depth of the circuit).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the gate graph is cyclic.
pub(crate) fn depth(nl: &Netlist) -> Result<usize, NetlistError> {
    Ok(levelize(nl)?.into_iter().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    #[test]
    fn chain_levels() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_gate(GateKind::Not, "b", &[a]).unwrap();
        let c = nl.add_gate(GateKind::Not, "c", &[b]).unwrap();
        let d = nl.add_gate(GateKind::Not, "d", &[c]).unwrap();
        nl.mark_output(d).unwrap();
        let lv = levelize(&nl).unwrap();
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[b.index()], 1);
        assert_eq!(lv[c.index()], 2);
        assert_eq!(lv[d.index()], 3);
        assert_eq!(depth(&nl).unwrap(), 3);
    }

    #[test]
    fn order_respects_dependencies() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let x = nl.add_gate(GateKind::And, "x", &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, "y", &[x, a]).unwrap();
        nl.mark_output(y).unwrap();
        let order = gate_order(&nl).unwrap();
        let pos_x = order.iter().position(|&g| nl.gates()[g].output() == x);
        let pos_y = order.iter().position(|&g| nl.gates()[g].output() == y);
        assert!(pos_x < pos_y);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let fb = nl.add_net("fb").unwrap();
        let x = nl.add_gate(GateKind::And, "x", &[a, fb]).unwrap();
        nl.drive_with_gate(GateKind::Not, fb, &[x]).unwrap();
        nl.mark_output(x).unwrap();
        assert!(matches!(
            gate_order(&nl),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn dff_breaks_cycle() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let q = nl.add_net("q").unwrap();
        let d = nl.add_gate(GateKind::Xor, "d", &[a, q]).unwrap();
        nl.add_dff("ff", d, q).unwrap();
        nl.mark_output(d).unwrap();
        assert!(gate_order(&nl).is_ok());
        let lv = levelize(&nl).unwrap();
        assert_eq!(lv[q.index()], 0);
        assert_eq!(lv[d.index()], 1);
    }
}
