//! Tseitin encoding of combinational netlists into CNF.
//!
//! Attacks build their SAT instances from circuits: the locked netlist is
//! copied into the solver once or twice (miter construction), equality and
//! difference constraints are layered on top, and key variables are shared
//! between copies. [`encode`] performs the per-copy encoding; the gate-level
//! helpers (`encode_xor`, `encode_eq`, `encode_or_reduce`, …) build the
//! glue logic.

use std::collections::HashMap;

use cutelock_netlist::{topo, GateKind, NetId, Netlist, NetlistError};

use crate::{Lit, Solver};

/// The literal map produced by [`encode`]: one CNF literal per net.
#[derive(Debug, Clone)]
pub struct CircuitCnf {
    lits: Vec<Lit>,
}

impl CircuitCnf {
    /// The literal carrying the value of net `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign to the encoded netlist.
    pub fn lit(&self, id: NetId) -> Lit {
        self.lits[id.index()]
    }

    /// Literals for a slice of nets, in order.
    pub fn lits(&self, ids: &[NetId]) -> Vec<Lit> {
        ids.iter().map(|&id| self.lit(id)).collect()
    }
}

/// Encodes the combinational netlist `nl` into `solver`, returning the
/// net-to-literal map.
///
/// Primary inputs become free variables; every gate output is constrained to
/// its function by Tseitin clauses. The caller may encode the same netlist
/// multiple times to build miters; each call allocates fresh variables.
///
/// To *share* some inputs between copies (e.g. key inputs), pass them in
/// `shared`: a map from net id to an existing literal.
///
/// # Errors
///
/// Fails if `nl` is sequential or has a combinational cycle.
pub fn encode(
    nl: &Netlist,
    solver: &mut Solver,
    shared: &HashMap<NetId, Lit>,
) -> Result<CircuitCnf, NetlistError> {
    if !nl.is_combinational() {
        return Err(NetlistError::CombinationalCycle(
            "cannot Tseitin-encode a sequential netlist; unroll or scan-view it first".into(),
        ));
    }
    let order = topo::gate_order(nl)?;
    let mut lits: Vec<Lit> = vec![Lit(u32::MAX); nl.net_count()];
    for &inp in nl.inputs() {
        lits[inp.index()] = match shared.get(&inp) {
            Some(&l) => l,
            None => Lit::positive(solver.new_var()),
        };
    }
    for &g in &order {
        let gate = &nl.gates()[g];
        let ins: Vec<Lit> = gate.inputs().iter().map(|&n| lits[n.index()]).collect();
        debug_assert!(
            ins.iter().all(|l| l.0 != u32::MAX),
            "gate input encoded before driver"
        );
        let out = encode_gate(solver, gate.kind(), &ins);
        lits[gate.output().index()] = out;
    }
    Ok(CircuitCnf { lits })
}

/// Encodes one gate, returning the output literal.
pub(crate) fn encode_gate(solver: &mut Solver, kind: GateKind, ins: &[Lit]) -> Lit {
    match kind {
        GateKind::And => encode_and_reduce(solver, ins),
        GateKind::Or => encode_or_reduce(solver, ins),
        GateKind::Nand => !encode_and_reduce(solver, ins),
        GateKind::Nor => !encode_or_reduce(solver, ins),
        GateKind::Xor => encode_xor_reduce(solver, ins),
        GateKind::Xnor => !encode_xor_reduce(solver, ins),
        GateKind::Not => !ins[0],
        GateKind::Buf => ins[0],
        GateKind::Mux => encode_mux(solver, ins[0], ins[1], ins[2]),
        GateKind::Const0 => {
            let y = Lit::positive(solver.new_var());
            solver.add_clause(&[!y]);
            y
        }
        GateKind::Const1 => {
            let y = Lit::positive(solver.new_var());
            solver.add_clause(&[y]);
            y
        }
    }
}

/// `y <-> AND(ins)`.
pub(crate) fn encode_and_reduce(solver: &mut Solver, ins: &[Lit]) -> Lit {
    debug_assert!(!ins.is_empty());
    if ins.len() == 1 {
        return ins[0];
    }
    let y = Lit::positive(solver.new_var());
    let mut long: Vec<Lit> = vec![y];
    for &x in ins {
        solver.add_clause(&[!y, x]);
        long.push(!x);
    }
    solver.add_clause(&long);
    y
}

/// `y <-> OR(ins)`.
pub(crate) fn encode_or_reduce(solver: &mut Solver, ins: &[Lit]) -> Lit {
    debug_assert!(!ins.is_empty());
    if ins.len() == 1 {
        return ins[0];
    }
    let y = Lit::positive(solver.new_var());
    let mut long: Vec<Lit> = vec![!y];
    for &x in ins {
        solver.add_clause(&[y, !x]);
        long.push(x);
    }
    solver.add_clause(&long);
    y
}

/// `y <-> a XOR b`.
pub(crate) fn encode_xor(solver: &mut Solver, a: Lit, b: Lit) -> Lit {
    let y = Lit::positive(solver.new_var());
    solver.add_clause(&[!y, a, b]);
    solver.add_clause(&[!y, !a, !b]);
    solver.add_clause(&[y, !a, b]);
    solver.add_clause(&[y, a, !b]);
    y
}

/// `y <-> XOR(ins)` (odd parity) via a balanced chain.
pub(crate) fn encode_xor_reduce(solver: &mut Solver, ins: &[Lit]) -> Lit {
    debug_assert!(!ins.is_empty());
    let mut acc = ins[0];
    for &x in &ins[1..] {
        acc = encode_xor(solver, acc, x);
    }
    acc
}

/// `y <-> (s ? b : a)` with redundant propagation clauses.
pub(crate) fn encode_mux(solver: &mut Solver, s: Lit, a: Lit, b: Lit) -> Lit {
    let y = Lit::positive(solver.new_var());
    solver.add_clause(&[s, !a, y]);
    solver.add_clause(&[s, a, !y]);
    solver.add_clause(&[!s, !b, y]);
    solver.add_clause(&[!s, b, !y]);
    // Redundant but strengthens propagation when a == b.
    solver.add_clause(&[!a, !b, y]);
    solver.add_clause(&[a, b, !y]);
    y
}

/// Asserts `a == b` directly with two binary clauses (no new variable).
#[cfg(test)]
pub(crate) fn assert_eq_lits(solver: &mut Solver, a: Lit, b: Lit) {
    solver.add_clause(&[!a, b]);
    solver.add_clause(&[a, !b]);
}

/// Asserts that literal `l` equals constant `value`.
#[cfg(test)]
pub(crate) fn assert_const(solver: &mut Solver, l: Lit, value: bool) {
    solver.add_clause(&[if value { l } else { !l }]);
}

/// Returns a literal true iff the two vectors differ somewhere
/// (`OR_i (a_i XOR b_i)`) — the heart of every miter.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub(crate) fn encode_vectors_differ(solver: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len(), "vector width mismatch");
    let diffs: Vec<Lit> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| encode_xor(solver, x, y))
        .collect();
    if diffs.is_empty() {
        let f = Lit::positive(solver.new_var());
        solver.add_clause(&[!f]);
        return f;
    }
    encode_or_reduce(solver, &diffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;
    use cutelock_netlist::bench;

    /// Exhaustively checks that the CNF encoding of a circuit agrees with
    /// direct simulation for every input pattern.
    fn check_encoding(src: &str) {
        let nl = bench::parse("t", src).unwrap();
        let n = nl.input_count();
        assert!(n <= 6, "test helper is exhaustive");
        for pattern in 0..(1u32 << n) {
            let mut solver = Solver::new();
            let cnf = encode(&nl, &mut solver, &HashMap::new()).unwrap();
            let mut assumptions = Vec::new();
            let mut inputs = Vec::new();
            for (i, &inp) in nl.inputs().iter().enumerate() {
                let bit = pattern >> i & 1 == 1;
                inputs.push(bit);
                assumptions.push(Lit::new(
                    cnf.lit(inp).var(),
                    bit == cnf.lit(inp).is_positive(),
                ));
            }
            assert_eq!(solver.solve_with_assumptions(&assumptions), SatResult::Sat);
            // Reference: netlist evaluation.
            let mut orc = cutelock_sim_eval(&nl, &inputs);
            for (&o, expect) in nl.outputs().iter().zip(orc.drain(..)) {
                let got = solver.lit_value(cnf.lit(o)).expect("assigned");
                assert_eq!(got, expect, "pattern {pattern:b} output {}", nl.net_name(o));
            }
        }
    }

    /// Minimal two-valued evaluator to avoid a circular dev-dependency on
    /// cutelock-sim.
    fn cutelock_sim_eval(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
        let order = topo::gate_order(nl).unwrap();
        let mut vals = vec![false; nl.net_count()];
        for (&id, &b) in nl.inputs().iter().zip(inputs) {
            vals[id.index()] = b;
        }
        for g in order {
            let gate = &nl.gates()[g];
            let ins: Vec<bool> = gate.inputs().iter().map(|&n| vals[n.index()]).collect();
            vals[gate.output().index()] = gate.kind().eval(&ins);
        }
        nl.outputs().iter().map(|&o| vals[o.index()]).collect()
    }

    #[test]
    fn encodes_all_gate_kinds_correctly() {
        check_encoding("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
        check_encoding("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n");
        check_encoding("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n");
        check_encoding("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n");
        check_encoding("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n");
        check_encoding("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XNOR(a, b)\n");
        check_encoding("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
        check_encoding("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n");
        check_encoding("INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)\n");
        check_encoding("INPUT(a)\nOUTPUT(y)\nz = CONST1()\ny = AND(a, z)\n");
        check_encoding("INPUT(a)\nOUTPUT(y)\nz = CONST0()\ny = OR(a, z)\n");
    }

    #[test]
    fn encodes_wide_gates() {
        check_encoding("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)\n");
        check_encoding("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XOR(a, b, c)\n");
        check_encoding("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NOR(a, b, c)\n");
    }

    #[test]
    fn encodes_multi_level_circuits() {
        check_encoding(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
             t1 = NAND(a, b)\nt2 = XOR(t1, c)\ny = NOR(t2, a)\nz = MUX(a, t1, t2)\n",
        );
    }

    #[test]
    fn rejects_sequential_netlists() {
        let nl = bench::parse(
            "seq",
            "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = BUF(q)\n",
        )
        .unwrap();
        let mut solver = Solver::new();
        assert!(encode(&nl, &mut solver, &HashMap::new()).is_err());
    }

    #[test]
    fn shared_inputs_link_two_copies() {
        let nl = bench::parse("t", "INPUT(a)\nINPUT(k)\nOUTPUT(y)\ny = XOR(a, k)\n").unwrap();
        let mut solver = Solver::new();
        let c1 = encode(&nl, &mut solver, &HashMap::new()).unwrap();
        let a = nl.find_net("a").unwrap();
        // Share `a` between the copies but give each copy its own `k`.
        let mut shared = HashMap::new();
        shared.insert(a, c1.lit(a));
        let c2 = encode(&nl, &mut solver, &shared).unwrap();
        let y = nl.find_net("y").unwrap();
        // Outputs differ <=> keys differ; assert outputs differ and keys
        // equal: must be UNSAT.
        let diff = encode_vectors_differ(&mut solver, &[c1.lit(y)], &[c2.lit(y)]);
        solver.add_clause(&[diff]);
        let k = nl.find_net("k").unwrap();
        assert_eq_lits(&mut solver, c1.lit(k), c2.lit(k));
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn assert_helpers() {
        let mut solver = Solver::new();
        let a = Lit::positive(solver.new_var());
        let b = Lit::positive(solver.new_var());
        assert_eq_lits(&mut solver, a, b);
        assert_const(&mut solver, a, true);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(solver.lit_value(b), Some(true));
    }

    #[test]
    fn empty_vector_differ_is_false() {
        let mut solver = Solver::new();
        let f = encode_vectors_differ(&mut solver, &[], &[]);
        solver.add_clause(&[f]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }
}
