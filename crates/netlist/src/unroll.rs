//! Time-frame expansion and the scan-chain combinational view.
//!
//! Oracle-guided attacks never reason about a sequential circuit directly:
//!
//! * with **scan access**, every flip-flop is controllable/observable, so the
//!   attack targets the [`scan_view`] — a purely combinational circuit whose
//!   pseudo-inputs are the FF outputs and whose pseudo-outputs are the FF
//!   data inputs;
//! * without scan access, BMC-style attacks (NEOS `bbo`/`int`/KC2, RANE)
//!   [`unroll`] the circuit for a bounded number of clock cycles, replicating
//!   the combinational logic once per frame while **sharing the key inputs
//!   across frames** — the constant-key assumption Cute-Lock exploits.
//!
//! Neither view is lowered to CNF here: `cutelock_sat::encode` consumes
//! them — its `MiterBuilder` encodes [`ScanView`] copies/frames with
//! shared-port wiring, and its `CircuitEncoder::encode_unrolled` wraps
//! [`unroll`] for the certifier and the bounded equivalence checks.

use std::collections::HashMap;

use crate::{NetId, Netlist, NetlistError};

/// How the initial state is modeled when unrolling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitState {
    /// Frame-0 state bits become fresh primary inputs (RANE models the
    /// initial state as a secret).
    Free,
    /// Use each flip-flop's recorded init value; unknown inits become 0.
    FromInit,
    /// All state bits start at 0 (common reset assumption).
    Zero,
}

/// Whether key inputs are shared across frames or replicated per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySharing {
    /// One copy of the key port drives all frames (constant-key attacks).
    Shared,
    /// Each frame gets its own key inputs (models an attacker who knows the
    /// key may vary over time; exponentially larger key space).
    PerFrame,
}

/// Result of unrolling a sequential netlist over `frames` clock cycles.
#[derive(Debug, Clone)]
pub struct Unrolled {
    /// The purely combinational expanded netlist.
    pub netlist: Netlist,
    /// Per frame, the copies of the original data (non-key) inputs, in the
    /// original declaration order.
    pub frame_inputs: Vec<Vec<NetId>>,
    /// Per frame, the copies of the original primary outputs.
    pub frame_outputs: Vec<Vec<NetId>>,
    /// The shared key inputs (empty when [`KeySharing::PerFrame`]).
    pub shared_keys: Vec<NetId>,
    /// Per frame key inputs (empty when [`KeySharing::Shared`]).
    pub frame_keys: Vec<Vec<NetId>>,
    /// Frame-0 state inputs, one per flip-flop (empty unless
    /// [`InitState::Free`]).
    pub initial_state: Vec<NetId>,
    /// Nets carrying the state *after* the last frame, one per flip-flop.
    pub final_state: Vec<NetId>,
}

/// Unrolls `nl` over `frames ≥ 1` clock cycles into a combinational netlist.
///
/// Net `x` of frame `t` is named `x@t`. Shared key inputs keep their
/// original names so the expanded circuit still "looks locked" to key-aware
/// tools.
///
/// # Errors
///
/// Propagates structural errors; fails if `nl` has a combinational cycle.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn unroll(
    nl: &Netlist,
    frames: usize,
    init: InitState,
    keys: KeySharing,
) -> Result<Unrolled, NetlistError> {
    assert!(frames > 0, "cannot unroll over zero frames");
    let mut out = Netlist::new(format!("{}_x{}", nl.name(), frames));
    let gate_order = crate::topo::gate_order(nl)?;
    let key_set: Vec<NetId> = nl.key_inputs();
    let is_key = |id: NetId| key_set.contains(&id);

    let mut shared_keys = Vec::new();
    if keys == KeySharing::Shared {
        for &k in &key_set {
            shared_keys.push(out.add_input(nl.net_name(k).to_string())?);
        }
    }

    // Current value (in `out`) of each original FF's q.
    let mut state: Vec<NetId> = Vec::with_capacity(nl.dff_count());
    let mut initial_state = Vec::new();
    for ff in nl.dffs() {
        let name = format!("{}@0", nl.net_name(ff.q()));
        let id = match init {
            InitState::Free => {
                let id = out.add_input(name)?;
                initial_state.push(id);
                id
            }
            InitState::FromInit => {
                let bit = ff.init().unwrap_or(false);
                let kind = if bit {
                    crate::GateKind::Const1
                } else {
                    crate::GateKind::Const0
                };
                out.add_gate(kind, name, &[])?
            }
            InitState::Zero => out.add_gate(crate::GateKind::Const0, name, &[])?,
        };
        state.push(id);
    }

    let mut frame_inputs = Vec::with_capacity(frames);
    let mut frame_outputs = Vec::with_capacity(frames);
    let mut frame_keys = Vec::with_capacity(frames);

    for t in 0..frames {
        // Map original net -> net in `out` for this frame.
        let mut map: HashMap<NetId, NetId> = HashMap::new();
        let mut this_inputs = Vec::new();
        let mut this_keys = Vec::new();
        for &inp in nl.inputs() {
            if is_key(inp) {
                match keys {
                    KeySharing::Shared => {
                        let idx = key_set.iter().position(|&k| k == inp).expect("key");
                        map.insert(inp, shared_keys[idx]);
                    }
                    KeySharing::PerFrame => {
                        let id = out.add_input(format!("{}@{t}", nl.net_name(inp)))?;
                        map.insert(inp, id);
                        this_keys.push(id);
                    }
                }
            } else {
                let id = out.add_input(format!("{}@{t}", nl.net_name(inp)))?;
                map.insert(inp, id);
                this_inputs.push(id);
            }
        }
        for (i, ff) in nl.dffs().iter().enumerate() {
            map.insert(ff.q(), state[i]);
        }
        for &g in &gate_order {
            let gate = &nl.gates()[g];
            let ins: Vec<NetId> = gate.inputs().iter().map(|&i| map[&i]).collect();
            let name = format!("{}@{t}", nl.net_name(gate.output()));
            let id = out.add_gate(gate.kind(), name, &ins)?;
            map.insert(gate.output(), id);
        }
        let mut this_outputs = Vec::new();
        for &o in nl.outputs() {
            let id = map[&o];
            out.mark_output(id)?;
            this_outputs.push(id);
        }
        // Advance state.
        let mut next = Vec::with_capacity(nl.dff_count());
        for ff in nl.dffs() {
            next.push(map[&ff.d()]);
        }
        state = next;
        frame_inputs.push(this_inputs);
        frame_outputs.push(this_outputs);
        frame_keys.push(this_keys);
    }

    out.validate()?;
    Ok(Unrolled {
        netlist: out,
        frame_inputs,
        frame_outputs,
        shared_keys,
        frame_keys,
        initial_state,
        final_state: state,
    })
}

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
    use crate::{bench, Driver};

    fn counter() -> Netlist {
        // 1-bit counter with enable: q' = q XOR en, out = q.
        bench::parse(
            "cnt",
            "INPUT(en)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
        )
        .unwrap()
    }

    #[test]
    fn unroll_three_frames_zero_init() {
        let nl = counter();
        let u = unroll(&nl, 3, InitState::Zero, KeySharing::Shared).unwrap();
        assert!(u.netlist.is_combinational());
        assert_eq!(u.frame_inputs.len(), 3);
        assert_eq!(u.frame_outputs.len(), 3);
        assert_eq!(u.final_state.len(), 1);
        assert!(u.initial_state.is_empty());
        // 3 copies of (XOR + BUF) + 1 const = 7 gates.
        assert_eq!(u.netlist.gate_count(), 7);
    }

    #[test]
    fn unroll_free_init_adds_state_inputs() {
        let nl = counter();
        let u = unroll(&nl, 2, InitState::Free, KeySharing::Shared).unwrap();
        assert_eq!(u.initial_state.len(), 1);
        // en@0, en@1, q@0.
        assert_eq!(u.netlist.input_count(), 3);
    }

    #[test]
    fn unroll_shares_keys_across_frames() {
        let nl = bench::parse(
            "locked",
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\nq = DFF(d)\n\
             d = XOR(a, q)\nx = XOR(d, keyinput0)\ny = BUF(x)\n",
        )
        .unwrap();
        let u = unroll(&nl, 4, InitState::Zero, KeySharing::Shared).unwrap();
        assert_eq!(u.shared_keys.len(), 1);
        assert_eq!(u.netlist.key_inputs().len(), 1);
        let upf = unroll(&nl, 4, InitState::Zero, KeySharing::PerFrame).unwrap();
        assert_eq!(upf.shared_keys.len(), 0);
        assert_eq!(upf.frame_keys.iter().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn unroll_from_init_uses_recorded_value() {
        let mut nl = counter();
        nl.set_dff_init(0, Some(true));
        let u = unroll(&nl, 1, InitState::FromInit, KeySharing::Shared).unwrap();
        // The q@0 net must be a CONST1 gate.
        let q0 = u.netlist.find_net("q@0").unwrap();
        match u.netlist.net(q0).driver() {
            Driver::Gate(g) => {
                assert_eq!(u.netlist.gates()[g].kind(), crate::GateKind::Const1)
            }
            other => panic!("unexpected driver {other:?}"),
        }
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
