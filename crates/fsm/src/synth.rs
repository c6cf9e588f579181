//! Synthesis of an [`Stg`] to a gate-level netlist.
//!
//! The paper elaborates its RTL designs with Xilinx Vivado; this module is
//! the equivalent in-workspace flow. The implementation is the canonical
//! decode-based one:
//!
//! * binary state encoding over `⌈log2(#states)⌉` flip-flops (`ps*`/`ns*`);
//! * a one-hot *state decode* per state (`st_*`);
//! * a *fire* signal per transition (`state decode AND cube literals`);
//! * next-state and output bits as ORs over fire signals.
//!
//! The returned [`SynthesizedStg`] exposes the state flip-flops and decode
//! nets so locking transforms (Cute-Lock-Beh) can splice into them.

use cutelock_netlist::{GateKind, NetId, Netlist, NetlistError};

use crate::{StateId, Stg};

/// A synthesized STG with handles into the interesting nets.
#[derive(Debug, Clone)]
pub struct SynthesizedStg {
    /// The gate-level implementation.
    pub netlist: Netlist,
    /// Flip-flop indices holding the state register, LSB first.
    pub state_ffs: Vec<usize>,
    /// Primary input nets `x0…`, in STG input order.
    pub input_nets: Vec<NetId>,
    /// Primary output nets `y0…`, in STG output order.
    pub output_nets: Vec<NetId>,
    /// One-hot decode net per state, indexed by `StateId::index`.
    pub state_decode: Vec<NetId>,
}

/// The binary code assigned to a state (its index).
pub(crate) fn state_code(state: StateId) -> u64 {
    state.index() as u64
}

/// Synthesizes `stg` into a fresh netlist.
///
/// # Errors
///
/// Fails if the STG is invalid (see [`Stg::validate`]) — reported as the
/// corresponding [`NetlistError`] only when construction trips an internal
/// invariant, so callers should validate the STG first for a better error.
pub fn synthesize(stg: &Stg) -> Result<SynthesizedStg, NetlistError> {
    let mut nl = Netlist::new(stg.name().to_string());
    let sbits = stg.state_bits();

    // Primary inputs and their complements.
    let mut input_nets = Vec::with_capacity(stg.num_inputs());
    let mut input_n = Vec::with_capacity(stg.num_inputs());
    for i in 0..stg.num_inputs() {
        let x = nl.add_input(format!("x{i}"))?;
        input_nets.push(x);
    }
    for (i, &x) in input_nets.iter().enumerate() {
        input_n.push(nl.add_gate(GateKind::Not, format!("x{i}_n"), &[x])?);
    }

    // State register: q nets now, d nets connected at the end.
    let mut ps = Vec::with_capacity(sbits);
    let mut ps_n = Vec::with_capacity(sbits);
    let mut ff_idx = Vec::with_capacity(sbits);
    for j in 0..sbits {
        let q = nl.add_net(format!("ps{j}"))?;
        ps.push(q);
    }
    for (j, &q) in ps.iter().enumerate() {
        ps_n.push(nl.add_gate(GateKind::Not, format!("ps{j}_n"), &[q])?);
    }

    // One-hot state decode.
    let mut state_decode = Vec::with_capacity(stg.num_states());
    for s in 0..stg.num_states() {
        let code = s as u64;
        let terms: Vec<NetId> = (0..sbits)
            .map(|j| if code >> j & 1 == 1 { ps[j] } else { ps_n[j] })
            .collect();
        let dec = add_and(&mut nl, &format!("st_{s}"), &terms)?;
        state_decode.push(dec);
    }

    // Transition fire signals, and collect OR terms for next-state/output.
    let mut ns_terms: Vec<Vec<NetId>> = vec![Vec::new(); sbits];
    let mut out_terms: Vec<Vec<NetId>> = vec![Vec::new(); stg.num_outputs()];
    for (sid, trans) in stg.iter_states() {
        for (ti, t) in trans.iter().enumerate() {
            let mut terms = vec![state_decode[sid.index()]];
            for (i, bit) in t.cube.literals() {
                terms.push(if bit { input_nets[i] } else { input_n[i] });
            }
            let fire = add_and(&mut nl, &format!("fire_{}_{ti}", sid.index()), &terms)?;
            let code = state_code(t.next);
            for (j, terms) in ns_terms.iter_mut().enumerate() {
                if code >> j & 1 == 1 {
                    terms.push(fire);
                }
            }
            for (o, terms) in out_terms.iter_mut().enumerate() {
                if t.outputs[o] {
                    terms.push(fire);
                }
            }
        }
    }

    // Next-state logic and flip-flops.
    for (j, terms) in ns_terms.iter().enumerate() {
        let d = add_or(&mut nl, &format!("ns{j}"), terms)?;
        let idx = nl.add_dff(format!("ff_ps{j}"), d, ps[j])?;
        let reset_bit = state_code(stg.reset()) >> j & 1 == 1;
        nl.set_dff_init(idx, Some(reset_bit));
        ff_idx.push(idx);
    }

    // Output logic.
    let mut output_nets = Vec::with_capacity(stg.num_outputs());
    for (o, terms) in out_terms.iter().enumerate() {
        let y = add_or(&mut nl, &format!("y{o}"), terms)?;
        nl.mark_output(y)?;
        output_nets.push(y);
    }

    nl.validate()?;
    Ok(SynthesizedStg {
        netlist: nl,
        state_ffs: ff_idx,
        input_nets,
        output_nets,
        state_decode,
    })
}

/// AND over `terms`, degenerating to BUF / CONST1 for small arities.
pub(crate) fn add_and(
    nl: &mut Netlist,
    name: &str,
    terms: &[NetId],
) -> Result<NetId, NetlistError> {
    let name = nl.fresh_name(name);
    match terms.len() {
        0 => nl.add_gate(GateKind::Const1, name, &[]),
        1 => nl.add_gate(GateKind::Buf, name, terms),
        _ => nl.add_gate(GateKind::And, name, terms),
    }
}

/// OR over `terms`, degenerating to BUF / CONST0 for small arities.
pub(crate) fn add_or(nl: &mut Netlist, name: &str, terms: &[NetId]) -> Result<NetId, NetlistError> {
    let name = nl.fresh_name(name);
    match terms.len() {
        0 => nl.add_gate(GateKind::Const0, name, &[]),
        1 => nl.add_gate(GateKind::Buf, name, terms),
        _ => nl.add_gate(GateKind::Or, name, terms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::sequence_detector;
    use crate::random::{random_fsm, RandomFsmConfig};
    use crate::sim::{unpack_bits, StgSimulator};
    use cutelock_sim::{Logic, Simulator};

    /// Checks the synthesized netlist against behavioral simulation on a
    /// pseudo-random stimulus.
    fn check_equivalence(stg: &Stg, cycles: usize, seed: u64) {
        stg.validate().unwrap();
        let syn = synthesize(stg).unwrap();
        let mut net_sim = Simulator::new(&syn.netlist).unwrap();
        net_sim.reset();
        let mut beh = StgSimulator::new(stg);
        let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for cycle in 0..cycles {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let bits = unpack_bits(rng, stg.num_inputs());
            let expect = beh.step(&bits);
            let logic: Vec<Logic> = bits.iter().map(|&b| Logic::from_bool(b)).collect();
            let got = net_sim.cycle_with(&logic);
            let got_bool: Vec<bool> = got
                .iter()
                .map(|v| v.to_bool().expect("synthesized netlist must be X-free"))
                .collect();
            assert_eq!(got_bool, expect, "cycle {cycle} of {}", stg.name());
        }
    }

    #[test]
    fn detector_netlist_matches_behavior() {
        for pattern in ["1", "1001", "0110", "11011"] {
            let stg = sequence_detector(pattern);
            check_equivalence(&stg, 200, 42);
        }
    }

    #[test]
    fn random_fsms_match_behavior() {
        for seed in 0..5 {
            let cfg = RandomFsmConfig {
                num_states: 6 + seed as usize,
                num_inputs: 3,
                num_outputs: 2,
                max_depth: 2,
                seed,
            };
            let stg = random_fsm(format!("r{seed}"), &cfg);
            check_equivalence(&stg, 150, seed * 7 + 1);
        }
    }

    #[test]
    fn reset_state_encoded_in_ff_init() {
        let mut stg = sequence_detector("1001");
        let s2 = crate::StateId::from_index(2);
        stg.set_reset(s2).unwrap();
        let syn = synthesize(&stg).unwrap();
        let inits: Vec<Option<bool>> = syn
            .state_ffs
            .iter()
            .map(|&i| syn.netlist.dffs()[i].init())
            .collect();
        // State 2 = binary 10 (LSB first: bit0=0, bit1=1).
        assert_eq!(inits, vec![Some(false), Some(true)]);
    }

    #[test]
    fn handles_single_state_machine() {
        let mut stg = Stg::new("one", 1, 1);
        let s = stg.add_state("only");
        stg.add_transition(s, crate::Cube::any(1), s, vec![true])
            .unwrap();
        check_equivalence(&stg, 10, 3);
    }

    #[test]
    fn exposes_decode_nets() {
        let stg = sequence_detector("1001");
        let syn = synthesize(&stg).unwrap();
        assert_eq!(syn.state_decode.len(), 4);
        assert_eq!(syn.state_ffs.len(), 2);
        assert_eq!(syn.input_nets.len(), 1);
        assert_eq!(syn.output_nets.len(), 1);
    }
}
