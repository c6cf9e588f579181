//! Multi-pass netlist simplification: structural hashing, constant
//! propagation with algebraic rewriting, and cone-of-influence trimming.
//!
//! Every CNF the attack stack solves is lowered from a netlist, so gates
//! removed here are clauses the solver never sees. [`simplify`] is the
//! engine behind `AttackSpec::simplify` in `cutelock_attacks` (the
//! `attack --no-simplify` escape hatch), `convert --simplify`, and the
//! synthesis overhead model's pre-mapping sweep.
//!
//! The engine runs up to four passes, each of which performs, in one
//! topological sweep:
//!
//! 1. **Constant propagation + rewrite rules**: constants through every
//!    [`GateKind`], double negation, idempotent
//!    (`AND(a, a)`) and absorbing (`AND(a, 0)`) operands, complement
//!    cancellation (`AND(a, !a)`, `XOR(a, !a, b)`), single-input
//!    collapses, and `MUX` specialization (constant select, equal
//!    branches, constant branches).
//! 2. **Structural hashing**: commutative fanins are sorted and
//!    deduplicated, and structurally identical gates are merged through a
//!    hash-cons table.
//! 3. **Cone-of-influence trimming**: gates — and, unless
//!    [`SimplifyConfig::keep_all_dffs`] is set, flip-flops
//!    (via [`crate::cone::observable_dffs`]) — that cannot influence any
//!    primary output are dropped.
//!
//! # Determinism
//!
//! `simplify` is a **pure function of the input netlist and config**:
//! passes iterate gates in topological order derived from `NetId`
//! creation order, canonical fanins are sorted by `NetId`, and hash maps
//! are used for lookup only — never iterated to produce output. Two runs
//! on equal netlists produce byte-identical results (`docs/DETERMINISM.md`
//! Rule 8), which is why simplify on/off may join the job daemon's result
//! cache key without further qualification.
//!
//! # Interface preservation
//!
//! The simplified netlist keeps every primary input (same order, so key
//! inputs keep their positions) and every primary output (same count and
//! order; when two outputs collapse onto one net a `BUF` keeps the ports
//! distinct). With [`SimplifyConfig::keep_all_dffs`] — the
//! [`SimplifyConfig::preserving_state`] mode used on attack paths —
//! flip-flop count, order, instance names, q-net names and init values
//! are preserved too, so `ScanView` ports and `LockedCircuit` FF indices
//! stay valid.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::{Driver, GateKind, NetId, Netlist, NetlistError};

/// Upper bound on [`simplify`]'s passes; the engine stops as soon as a
/// pass no longer changes the netlist.
const MAX_PASSES: usize = 4;

/// Configuration of [`simplify`]: how state is treated. The default may
/// drop unobservable flip-flops; [`SimplifyConfig::preserving_state`]
/// keeps them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimplifyConfig {
    /// Keep every flip-flop — count, order, instance names, q-net names
    /// and init values — even when it is unobservable. Attack paths need
    /// this: FF indices and q names are interface (`ScanView` next-state
    /// ports, `LockedCircuit::locked_ffs`, the scan model's FF name map).
    pub keep_all_dffs: bool,
}

impl SimplifyConfig {
    /// Full simplification that still preserves every flip-flop — the
    /// mode for attack/scan paths where FF identity is part of the
    /// interface.
    pub fn preserving_state() -> Self {
        Self {
            keep_all_dffs: true,
        }
    }
}

/// Reduction counters of a [`simplify`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimplifyStats {
    /// Gates before simplification.
    pub gates_before: usize,
    /// Gates after simplification.
    pub gates_after: usize,
    /// Nets before simplification.
    pub nets_before: usize,
    /// Nets after simplification.
    pub nets_after: usize,
    /// Flip-flops before simplification.
    pub dffs_before: usize,
    /// Flip-flops after simplification.
    pub dffs_after: usize,
    /// Gates removed by constant propagation / rewrite rules (the output
    /// became a constant or an alias of another net), plus gates whose
    /// operand list shrank or whose kind changed.
    pub folded: usize,
    /// Gates merged into a structurally identical gate by hashing.
    pub merged: usize,
    /// Gates removed because nothing observable consumed them.
    pub swept_gates: usize,
    /// Flip-flops removed by cone-of-influence trimming.
    pub swept_dffs: usize,
    /// Passes that changed the netlist (0 when the input was already a
    /// fixed point).
    pub passes: usize,
}

impl SimplifyStats {
    /// True when simplification changed the netlist at all.
    pub fn changed(&self) -> bool {
        self.passes > 0
    }
}

impl fmt::Display for SimplifyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gates {}->{} (folded={} merged={} swept={}) FF {}->{} nets {}->{} passes={}",
            self.gates_before,
            self.gates_after,
            self.folded,
            self.merged,
            self.swept_gates,
            self.dffs_before,
            self.dffs_after,
            self.nets_before,
            self.nets_after,
            self.passes,
        )
    }
}

/// Rebuilds `nl` with constants propagated, rewrite rules applied,
/// structurally identical gates merged, and unobservable logic dropped —
/// per `cfg`. Returns the simplified netlist and reduction counters.
///
/// Deterministic and pure: see the module docs for the exact contract and
/// for what parts of the interface are preserved.
///
/// # Errors
///
/// Propagates reconstruction failures (a bug if they happen on a valid
/// input netlist) and cycle errors from ordering an invalid netlist.
pub fn simplify(
    nl: &Netlist,
    cfg: &SimplifyConfig,
) -> Result<(Netlist, SimplifyStats), NetlistError> {
    let mut stats = SimplifyStats {
        gates_before: nl.gate_count(),
        nets_before: nl.net_count(),
        dffs_before: nl.dff_count(),
        ..SimplifyStats::default()
    };
    let mut work = nl.clone();
    for _ in 0..MAX_PASSES {
        let (next, delta) = simplify_pass(&work, cfg)?;
        // A pass can rewrite without changing any count (operand-list
        // shrinks, re-kinds), so "changed" consults the delta counters
        // too. Breaking *before* adopting `next` is what makes simplify
        // idempotent at the byte level: the rebuild re-emits gates in
        // topological order, so adopting a no-change rebuild would still
        // permute the netlist.
        let changed = delta.folded + delta.merged + delta.swept_gates + delta.swept_dffs > 0
            || next.gate_count() != work.gate_count()
            || next.net_count() != work.net_count()
            || next.dff_count() != work.dff_count();
        if !changed {
            break;
        }
        work = next;
        stats.folded += delta.folded;
        stats.merged += delta.merged;
        stats.swept_gates += delta.swept_gates;
        stats.swept_dffs += delta.swept_dffs;
        stats.passes += 1;
    }
    stats.gates_after = work.gate_count();
    stats.nets_after = work.net_count();
    stats.dffs_after = work.dff_count();
    Ok((work, stats))
}

/// What a resolved operand turned out to be after rewriting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Op {
    /// A derivable constant.
    Const(bool),
    /// An alias of this canonical net (an input, a q net, or the output
    /// of a materialized gate).
    Net(NetId),
}

/// Result of rewriting one gate over resolved operands.
enum Rewritten {
    Const(bool),
    /// Output forwards to an existing canonical net (rewrite rules).
    Forward(NetId),
    /// Output merges with a structurally identical earlier gate.
    Merged(NetId),
    /// The gate is materialized with these canonical operands; the flag
    /// records whether rewriting shrank or re-kinded it.
    Gate(GateKind, Vec<Op>, bool),
}

/// Per-pass rewrite state: the hash-cons table and the complement map.
struct Rewriter {
    /// Hash-cons table over canonical `(kind, operands)` forms. Lookup
    /// only — never iterated — so determinism is unaffected.
    cons: HashMap<(GateKind, Vec<Op>), NetId>,
    /// `not_of[a] = b` records that `b` computes `NOT(a)` (and vice
    /// versa), feeding double-negation and complement-cancellation rules.
    not_of: HashMap<NetId, NetId>,
}

impl Rewriter {
    fn new() -> Self {
        Self {
            cons: HashMap::new(),
            not_of: HashMap::new(),
        }
    }

    /// Records a materialized gate in the hash-cons and complement
    /// tables.
    fn register(&mut self, kind: GateKind, ins: &[Op], out: NetId) {
        if let Some(&m) = self.cons.get(&(complement_kind(kind), ins.to_vec())) {
            self.note_complement(out, m);
        }
        self.cons.insert((kind, ins.to_vec()), out);
        if kind == GateKind::Not {
            if let Op::Net(n) = ins[0] {
                self.note_complement(out, n);
            }
        }
    }

    fn note_complement(&mut self, a: NetId, b: NetId) {
        self.not_of.entry(a).or_insert(b);
        self.not_of.entry(b).or_insert(a);
    }

    fn are_complements(&self, a: NetId, b: NetId) -> bool {
        self.not_of.get(&a) == Some(&b) || self.not_of.get(&b) == Some(&a)
    }

    /// Final step for a gate that stays a gate: hash-cons lookup, then
    /// materialize.
    fn gate_or_merge(&mut self, kind: GateKind, ins: Vec<Op>, changed: bool) -> Rewritten {
        let key = (kind, ins);
        if let Some(&n) = self.cons.get(&key) {
            return Rewritten::Merged(n);
        }
        Rewritten::Gate(key.0, key.1, changed)
    }

    fn nets_to_ops(nets: Vec<NetId>) -> Vec<Op> {
        nets.into_iter().map(Op::Net).collect()
    }

    /// `NOT(n)`, reusing a known complement.
    fn mk_not(&mut self, n: NetId, changed: bool) -> Rewritten {
        if let Some(&m) = self.not_of.get(&n) {
            return Rewritten::Forward(m);
        }
        self.gate_or_merge(GateKind::Not, vec![Op::Net(n)], changed)
    }

    /// Rewrites one gate over resolved operands.
    fn rewrite(&mut self, kind: GateKind, ops: &[Op]) -> Rewritten {
        match kind {
            GateKind::Const0 => Rewritten::Const(false),
            GateKind::Const1 => Rewritten::Const(true),
            GateKind::Buf => match ops[0] {
                Op::Const(v) => Rewritten::Const(v),
                Op::Net(n) => Rewritten::Forward(n),
            },
            GateKind::Not => match ops[0] {
                Op::Const(v) => Rewritten::Const(!v),
                Op::Net(n) => self.mk_not(n, false),
            },
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // OR-family is controlled by `true`, AND-family by
                // `false`; the other constant is the identity.
                let controlling = matches!(kind, GateKind::Or | GateKind::Nor);
                let inv = kind.is_inverting();
                let mut nets: Vec<NetId> = Vec::with_capacity(ops.len());
                for op in ops {
                    match *op {
                        Op::Const(v) if v == controlling => {
                            return Rewritten::Const(controlling ^ inv);
                        }
                        Op::Const(_) => {}
                        Op::Net(n) => nets.push(n),
                    }
                }
                nets.sort_unstable();
                nets.dedup();
                // `x` together with `!x` forces the controlling value.
                if nets.iter().any(|&n| {
                    self.not_of
                        .get(&n)
                        .is_some_and(|m| nets.binary_search(m).is_ok())
                }) {
                    return Rewritten::Const(controlling ^ inv);
                }
                let changed = nets.len() < ops.len();
                match nets.len() {
                    0 => Rewritten::Const(!controlling ^ inv),
                    1 if !inv => Rewritten::Forward(nets[0]),
                    1 => self.mk_not(nets[0], changed),
                    _ => self.gate_or_merge(kind, Self::nets_to_ops(nets), changed),
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut invert = kind == GateKind::Xnor;
                let mut nets: Vec<NetId> = Vec::with_capacity(ops.len());
                for op in ops {
                    match *op {
                        Op::Const(v) => invert ^= v,
                        Op::Net(n) => nets.push(n),
                    }
                }
                nets.sort_unstable();
                // Equal pairs cancel without a flip: XOR(a, a) = 0.
                let mut uniq: Vec<NetId> = Vec::with_capacity(nets.len());
                let mut i = 0;
                while i < nets.len() {
                    let mut run = 1;
                    while i + run < nets.len() && nets[i + run] == nets[i] {
                        run += 1;
                    }
                    if run % 2 == 1 {
                        uniq.push(nets[i]);
                    }
                    i += run;
                }
                // Complement pairs cancel with a flip: XOR(a, !a) = 1.
                let mut kept: Vec<NetId> = Vec::with_capacity(uniq.len());
                for n in uniq {
                    if let Some(pos) = kept.iter().position(|&m| self.are_complements(n, m)) {
                        kept.remove(pos);
                        invert = !invert;
                    } else {
                        kept.push(n);
                    }
                }
                let changed = kept.len() < ops.len();
                match kept.len() {
                    0 => Rewritten::Const(invert),
                    1 if !invert => Rewritten::Forward(kept[0]),
                    1 => self.mk_not(kept[0], changed),
                    _ => {
                        let k = if invert {
                            GateKind::Xnor
                        } else {
                            GateKind::Xor
                        };
                        self.gate_or_merge(k, Self::nets_to_ops(kept), changed || k != kind)
                    }
                }
            }
            GateKind::Mux => self.rewrite_mux(ops[0], ops[1], ops[2]),
        }
    }

    /// `MUX(s, a, b)`: `a` when `s = 0`, `b` when `s = 1`.
    fn rewrite_mux(&mut self, s: Op, a: Op, b: Op) -> Rewritten {
        let select = |op: Op| match op {
            Op::Const(v) => Rewritten::Const(v),
            Op::Net(n) => Rewritten::Forward(n),
        };
        let sn = match s {
            Op::Const(false) => return select(a),
            Op::Const(true) => return select(b),
            Op::Net(n) => n,
        };
        if a == b {
            return select(a);
        }
        match (a, b) {
            (Op::Const(false), Op::Const(true)) => Rewritten::Forward(sn),
            (Op::Const(true), Op::Const(false)) => self.mk_not(sn, true),
            // MUX(s, 0, b) = AND(s, b); MUX(s, a, 1) = OR(s, a).
            (Op::Const(false), b) => self.rewrite(GateKind::And, &[Op::Net(sn), b]),
            (a, Op::Const(true)) => self.rewrite(GateKind::Or, &[Op::Net(sn), a]),
            // MUX(s, 1, b) = OR(!s, b) and MUX(s, a, 0) = AND(!s, a) —
            // profitable only when !s already exists; otherwise the MUX
            // is materialized with its constant branch.
            (Op::Const(true), b) => match self.not_of.get(&sn).copied() {
                Some(ns) => self.rewrite(GateKind::Or, &[Op::Net(ns), b]),
                None => self.gate_or_merge(GateKind::Mux, vec![Op::Net(sn), a, b], false),
            },
            (a, Op::Const(false)) => match self.not_of.get(&sn).copied() {
                Some(ns) => self.rewrite(GateKind::And, &[Op::Net(ns), a]),
                None => self.gate_or_merge(GateKind::Mux, vec![Op::Net(sn), a, b], false),
            },
            (Op::Net(an), Op::Net(bn)) => {
                // MUX(s, s, b) = AND(s, b); MUX(s, a, s) = OR(s, a).
                if an == sn {
                    return self.rewrite(GateKind::And, &[Op::Net(sn), Op::Net(bn)]);
                }
                if bn == sn {
                    return self.rewrite(GateKind::Or, &[Op::Net(sn), Op::Net(an)]);
                }
                self.gate_or_merge(GateKind::Mux, vec![Op::Net(sn), a, b], false)
            }
        }
    }
}

/// The kind computing the complement over the same inputs.
fn complement_kind(kind: GateKind) -> GateKind {
    match kind {
        GateKind::And => GateKind::Nand,
        GateKind::Nand => GateKind::And,
        GateKind::Or => GateKind::Nor,
        GateKind::Nor => GateKind::Or,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Xnor => GateKind::Xor,
        GateKind::Buf => GateKind::Not,
        GateKind::Not => GateKind::Buf,
        GateKind::Mux => GateKind::Mux,
        GateKind::Const0 => GateKind::Const1,
        GateKind::Const1 => GateKind::Const0,
    }
}

/// Per-pass reduction counters.
#[derive(Default)]
struct PassDelta {
    folded: usize,
    merged: usize,
    swept_gates: usize,
    swept_dffs: usize,
}

/// One analysis + rebuild sweep.
fn simplify_pass(nl: &Netlist, cfg: &SimplifyConfig) -> Result<(Netlist, PassDelta), NetlistError> {
    let order = crate::topo::gate_order(nl)?;
    let keep_ff: Vec<bool> = if !cfg.keep_all_dffs {
        crate::cone::observable_dffs(nl)
    } else {
        vec![true; nl.dff_count()]
    };

    // ------------------------------------------------------------------
    // Analysis: resolve every net to a constant or a canonical net, in
    // topological order. Nets in the cone of a swept flip-flop stay
    // unresolved (`None`); nothing observable can consult them.
    // ------------------------------------------------------------------
    let mut repr: Vec<Option<Op>> = vec![None; nl.net_count()];
    for &i in nl.inputs() {
        repr[i.index()] = Some(Op::Net(i));
    }
    for (fi, ff) in nl.dffs().iter().enumerate() {
        if keep_ff[fi] {
            repr[ff.q().index()] = Some(Op::Net(ff.q()));
        }
    }
    let mut rw = Rewriter::new();
    // Materialization form per gate; `None` = folded away, merged, or in
    // a swept cone.
    let mut keep: Vec<Option<(GateKind, Vec<Op>)>> = vec![None; nl.gate_count()];
    let mut delta = PassDelta::default();
    for &g in &order {
        let gate = &nl.gates()[g];
        let out = gate.output();
        let Some(ops) = gate
            .inputs()
            .iter()
            .map(|&i| repr[i.index()])
            .collect::<Option<Vec<Op>>>()
        else {
            continue;
        };
        match rw.rewrite(gate.kind(), &ops) {
            Rewritten::Const(v) => {
                repr[out.index()] = Some(Op::Const(v));
                delta.folded += 1;
            }
            Rewritten::Forward(n) => {
                repr[out.index()] = Some(Op::Net(n));
                delta.folded += 1;
            }
            Rewritten::Merged(n) => {
                repr[out.index()] = Some(Op::Net(n));
                delta.merged += 1;
            }
            Rewritten::Gate(kind, ins, changed) => {
                if changed {
                    delta.folded += 1;
                }
                rw.register(kind, &ins, out);
                repr[out.index()] = Some(Op::Net(out));
                keep[g] = Some((kind, ins));
            }
        }
    }

    // ------------------------------------------------------------------
    // Liveness over the rewritten structure: roots are the resolved
    // primary outputs and the data inputs of kept flip-flops.
    // ------------------------------------------------------------------
    let mut live = vec![false; nl.gate_count()];
    let mut stack: Vec<NetId> = Vec::new();
    for &o in nl.outputs() {
        if let Some(Op::Net(n)) = repr[o.index()] {
            stack.push(n);
        }
    }
    for (fi, ff) in nl.dffs().iter().enumerate() {
        if keep_ff[fi] {
            if let Some(Op::Net(n)) = repr[ff.d().index()] {
                stack.push(n);
            }
        }
    }
    while let Some(n) = stack.pop() {
        if let Driver::Gate(g) = nl.net(n).driver() {
            if !live[g] {
                live[g] = true;
                if let Some((_, ins)) = &keep[g] {
                    stack.extend(ins.iter().filter_map(|op| match op {
                        Op::Net(n) => Some(*n),
                        Op::Const(_) => None,
                    }));
                }
            }
        }
    }
    for g in 0..nl.gate_count() {
        if keep[g].is_some() && !live[g] {
            delta.swept_gates += 1;
        }
    }
    delta.swept_dffs = keep_ff.iter().filter(|k| !**k).count();

    // ------------------------------------------------------------------
    // Rebuild: inputs in order, kept q nets, live gates in topological
    // order, kept flip-flops in order, outputs in order.
    // ------------------------------------------------------------------
    let mut out = Netlist::new(nl.name().to_string());
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for &i in nl.inputs() {
        map.insert(i, out.add_input(nl.net_name(i).to_string())?);
    }
    for (fi, ff) in nl.dffs().iter().enumerate() {
        if keep_ff[fi] {
            map.insert(ff.q(), out.add_net(nl.net_name(ff.q()).to_string())?);
        }
    }
    // Shared constant nets, materialized lazily. Their names are chosen
    // fresh with respect to *both* netlists, so a gate output named
    // `const0` added later can never collide.
    let mut const_nets: [Option<NetId>; 2] = [None, None];
    fn fetch_const(
        out: &mut Netlist,
        nl: &Netlist,
        const_nets: &mut [Option<NetId>; 2],
        v: bool,
    ) -> Result<NetId, NetlistError> {
        let slot = usize::from(v);
        if let Some(n) = const_nets[slot] {
            return Ok(n);
        }
        let (kind, prefix) = if v {
            (GateKind::Const1, "const1")
        } else {
            (GateKind::Const0, "const0")
        };
        let mut name = prefix.to_string();
        let mut i = 0usize;
        while nl.find_net(&name).is_some() || out.find_net(&name).is_some() {
            name = format!("{prefix}_{i}");
            i += 1;
        }
        let n = out.add_gate(kind, name, &[])?;
        const_nets[slot] = Some(n);
        Ok(n)
    }
    fn fetch_op(
        out: &mut Netlist,
        nl: &Netlist,
        op: Op,
        map: &HashMap<NetId, NetId>,
        const_nets: &mut [Option<NetId>; 2],
    ) -> Result<NetId, NetlistError> {
        match op {
            Op::Const(v) => fetch_const(out, nl, const_nets, v),
            Op::Net(n) => map
                .get(&n)
                .copied()
                .ok_or_else(|| NetlistError::UnknownNet(nl.net_name(n).to_string())),
        }
    }
    for &g in &order {
        let Some((kind, ins)) = &keep[g] else {
            continue;
        };
        if !live[g] {
            continue;
        }
        let new_ins: Vec<NetId> = ins
            .iter()
            .map(|&op| fetch_op(&mut out, nl, op, &map, &mut const_nets))
            .collect::<Result<_, _>>()?;
        let name = nl.net_name(nl.gates()[g].output()).to_string();
        let id = out.add_gate(*kind, name, &new_ins)?;
        map.insert(nl.gates()[g].output(), id);
    }
    fn fetch(
        out: &mut Netlist,
        nl: &Netlist,
        id: NetId,
        repr: &[Option<Op>],
        map: &HashMap<NetId, NetId>,
        const_nets: &mut [Option<NetId>; 2],
    ) -> Result<NetId, NetlistError> {
        let op = repr[id.index()]
            .ok_or_else(|| NetlistError::UnknownNet(nl.net_name(id).to_string()))?;
        fetch_op(out, nl, op, map, const_nets)
    }
    for (fi, ff) in nl.dffs().iter().enumerate() {
        if !keep_ff[fi] {
            continue;
        }
        let d = fetch(&mut out, nl, ff.d(), &repr, &map, &mut const_nets)?;
        let q = map[&ff.q()];
        let idx = out.add_dff(ff.name().to_string(), d, q)?;
        out.set_dff_init(idx, ff.init());
    }
    // Primary outputs: same count, same order. `mark_output` dedups, so
    // when two ports collapse onto one net a BUF keeps them distinct.
    let mut used: HashSet<NetId> = HashSet::new();
    for &o in nl.outputs() {
        let mut id = fetch(&mut out, nl, o, &repr, &map, &mut const_nets)?;
        if used.contains(&id) {
            let name = out.fresh_name(nl.net_name(o));
            id = out.add_gate(GateKind::Buf, name, &[id])?;
        }
        used.insert(id);
        out.mark_output(id)?;
    }
    out.validate()?;
    Ok((out, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    /// Evaluate every output for the input assignment packed in `bits`
    /// (combinational netlists only).
    fn eval_outputs(nl: &Netlist, bits: u32) -> Vec<bool> {
        let order = crate::topo::gate_order(nl).unwrap();
        let mut vals = vec![false; nl.net_count()];
        for (i, &inp) in nl.inputs().iter().enumerate() {
            vals[inp.index()] = bits >> i & 1 == 1;
        }
        for g in order {
            let gate = &nl.gates()[g];
            let ins: Vec<bool> = gate.inputs().iter().map(|&i| vals[i.index()]).collect();
            vals[gate.output().index()] = gate.kind().eval(&ins);
        }
        nl.outputs().iter().map(|&o| vals[o.index()]).collect()
    }

    fn assert_equiv(a: &Netlist, b: &Netlist) {
        assert_eq!(a.input_count(), b.input_count());
        assert_eq!(a.output_count(), b.output_count());
        assert!(a.input_count() <= 8, "exhaustive check only");
        for bits in 0..1u32 << a.input_count() {
            assert_eq!(
                eval_outputs(a, bits),
                eval_outputs(b, bits),
                "bits={bits:b}"
            );
        }
    }

    #[test]
    fn strash_merges_structural_duplicates() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng1 = AND(a, b)\ng2 = AND(b, a)\n\
             g3 = NOT(g1)\ng4 = NOT(g2)\ny = OR(g3, g4)\n",
        )
        .unwrap();
        let (s, stats) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        // g2 merges into g1 (sorted fanins), g4 forwards to g3 via the
        // complement map, OR(g3, g3) dedups: 2 gates survive.
        assert_eq!(s.gate_count(), 2);
        assert!(stats.merged >= 1, "{stats}");
        assert_equiv(&nl, &s);
    }

    #[test]
    fn double_negation_forwarded() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt1 = NOT(a)\nt2 = NOT(t1)\ny = AND(t2, b)\n",
        )
        .unwrap();
        let (s, _) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        assert_eq!(s.gate_count(), 1);
        assert_eq!(s.gates()[0].kind(), GateKind::And);
        assert_equiv(&nl, &s);
    }

    #[test]
    fn complement_inputs_force_constants() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nna = NOT(a)\n\
             y = AND(a, na, b)\nz = XOR(a, na, b)\n",
        )
        .unwrap();
        let (s, _) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        // y = 0; z = NOT(b); the NOT(a) itself becomes unobservable.
        assert_equiv(&nl, &s);
        assert!(s.gate_count() <= 2, "got {}", s.gate_count());
    }

    #[test]
    fn xor_equal_pair_cancels() {
        let nl = bench::parse("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, a, b)\n").unwrap();
        let (s, stats) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        assert_eq!(s.gate_count(), 0);
        assert!(stats.folded > 0);
        assert_equiv(&nl, &s);
    }

    #[test]
    fn constants_propagate_through_all_kinds() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(s)\nOUTPUT(y)\none = CONST1()\nzero = CONST0()\n\
             t1 = NAND(a, one)\nt2 = NOR(t1, zero)\nt3 = XNOR(t2, one)\n\
             t4 = MUX(s, t3, zero)\ny = OR(t4, zero)\n",
        )
        .unwrap();
        let (s, stats) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        // t1 = !a, t2 = a, t3 = a, t4 = MUX(s, a, 0) — the MUX keeps its
        // constant branch (no !s exists), so at most t1 and t4 survive.
        assert!(s.gate_count() <= 3, "got {}", s.gate_count());
        assert!(stats.folded > 0);
        assert_equiv(&nl, &s);
    }

    #[test]
    fn mux_specializations() {
        let nl = bench::parse(
            "t",
            "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y1)\nOUTPUT(y2)\nOUTPUT(y3)\n\
             zero = CONST0()\none = CONST1()\ny1 = MUX(s, zero, b)\n\
             y2 = MUX(s, a, one)\ny3 = MUX(s, zero, one)\n",
        )
        .unwrap();
        let (s, _) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        // y1 = AND(s, b), y2 = OR(s, a), y3 = s.
        assert_equiv(&nl, &s);
        assert_eq!(s.gate_count(), 2);
        assert!(s.gates().iter().all(|g| g.kind() != GateKind::Mux));
    }

    #[test]
    fn coi_drops_unobservable_ff_unless_preserving() {
        let src = "INPUT(a)\nOUTPUT(y)\nq0 = DFF(a)\nq1 = DFF(mid)\nmid = NOT(q0)\n\
                   q2 = DFF(dead)\ndead = NOT(q2)\ny = BUF(q1)\n";
        let nl = bench::parse("t", src).unwrap();
        let (s, stats) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        assert_eq!(s.dff_count(), 2);
        assert_eq!(stats.swept_dffs, 1);
        let (p, pstats) = simplify(&nl, &SimplifyConfig::preserving_state()).unwrap();
        assert_eq!(p.dff_count(), 3);
        assert_eq!(pstats.swept_dffs, 0);
        // FF order and q names preserved.
        let names: Vec<&str> = p.dffs().iter().map(|ff| p.net_name(ff.q())).collect();
        assert_eq!(names, ["q0", "q1", "q2"]);
    }

    #[test]
    fn output_ports_keep_count_and_order() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nOUTPUT(y1)\nOUTPUT(y2)\nOUTPUT(y3)\n\
             y1 = BUF(a)\ny2 = BUF(a)\nzero = CONST0()\ny3 = BUF(zero)\n",
        )
        .unwrap();
        let (s, _) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        assert_eq!(s.output_count(), 3);
        assert_equiv(&nl, &s);
        s.validate().unwrap();
    }

    #[test]
    fn simplify_is_deterministic_and_idempotent() {
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
                   one = CONST1()\ng1 = AND(a, b)\ng2 = AND(b, a)\n\
                   g3 = XOR(g1, g2, c)\ng4 = NAND(g3, one)\n\
                   y = NOT(g4)\nz = MUX(c, g1, g2)\n";
        let nl = bench::parse("t", src).unwrap();
        let cfg = SimplifyConfig::default();
        let (s1, st1) = simplify(&nl, &cfg).unwrap();
        let (s2, st2) = simplify(&nl, &cfg).unwrap();
        assert_eq!(bench::write(&s1), bench::write(&s2));
        assert_eq!(st1, st2);
        // Idempotent: a second run is a fixed point.
        let (s3, st3) = simplify(&s1, &cfg).unwrap();
        assert_eq!(bench::write(&s1), bench::write(&s3));
        assert!(!st3.changed(), "{st3}");
        assert_equiv(&nl, &s1);
    }

    #[test]
    fn stats_display_is_compact() {
        let nl = bench::parse("t", "INPUT(a)\nOUTPUT(y)\nb1 = BUF(a)\ny = NOT(b1)\n").unwrap();
        let (_, stats) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        let line = stats.to_string();
        assert!(line.starts_with("gates 2->1"), "{line}");
        assert!(line.contains("passes=1"), "{line}");
    }
}
