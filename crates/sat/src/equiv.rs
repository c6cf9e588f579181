//! SAT-based equivalence checking.
//!
//! Simulation-based validation (the `verify_equivalence` used by the
//! locking transforms) can only sample; this module decides equivalence
//! *exhaustively* — combinationally, or sequentially up to a bounded number
//! of clock cycles from reset. The lock transforms' correctness tests use
//! it to prove that Cute-Lock with the correct schedule is cycle-exact, not
//! merely unrefuted. Both checks lower through the unified
//! [`CircuitEncoder`]: one copy encoded
//! free, the second bound to the first's inputs, and a vector-differ
//! constraint on the outputs.

use cutelock_netlist::unroll::{scan_view, InitState, KeySharing};
use cutelock_netlist::{Netlist, NetlistError};

use crate::encode::{Binding, CircuitEncoder};
use crate::{Lit, SatResult};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The circuits agree on every input (sequence) within the bound.
    Equivalent,
    /// A distinguishing input assignment was found: per frame, the values
    /// of the first circuit's inputs (frame-major, declaration order).
    Counterexample(Vec<Vec<bool>>),
    /// The solver budget was exhausted.
    Unknown,
}

/// Checks sequential equivalence of `a` and `b` for **all** input sequences
/// of up to `frames` cycles from reset (recorded flip-flop inits; unknown
/// inits are 0).
///
/// Inputs/outputs are matched positionally. `conflict_budget` bounds each
/// SAT call (`None` = unlimited).
///
/// # Errors
///
/// Returns a [`NetlistError`] when the interfaces don't line up.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub(crate) fn bounded_seq_equiv(
    a: &Netlist,
    b: &Netlist,
    frames: usize,
    conflict_budget: Option<u64>,
) -> Result<EquivResult, NetlistError> {
    assert!(frames > 0, "need at least one frame");
    check_interfaces(a, b)?;
    let mut enc = CircuitEncoder::new();
    enc.solver.set_conflict_budget(conflict_budget);
    let (ua, cnf_a) = enc.encode_unrolled(
        a,
        frames,
        InitState::FromInit,
        KeySharing::PerFrame,
        &Binding::new(),
    )?;
    // Share frame inputs positionally (frame_inputs excludes key inputs;
    // keys were replicated per frame and are shared positionally too).
    let ub =
        cutelock_netlist::unroll::unroll(b, frames, InitState::FromInit, KeySharing::PerFrame)?;
    let mut shared = Binding::new();
    for t in 0..frames {
        shared.bind_all(&ub.frame_inputs[t], &cnf_a.lits(&ua.frame_inputs[t]));
        shared.bind_all(&ub.frame_keys[t], &cnf_a.lits(&ua.frame_keys[t]));
    }
    let cnf_b = enc.encode(&ub.netlist, &shared)?;
    let oa: Vec<Lit> = ua
        .frame_outputs
        .iter()
        .flatten()
        .map(|&o| cnf_a.lit(o))
        .collect();
    let ob: Vec<Lit> = ub
        .frame_outputs
        .iter()
        .flatten()
        .map(|&o| cnf_b.lit(o))
        .collect();
    let diff = enc.differ(&oa, &ob);
    enc.solver.add_clause(&[diff]);
    Ok(match enc.solver.solve() {
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Unknown => EquivResult::Unknown,
        SatResult::Sat => {
            let cex: Vec<Vec<bool>> = (0..frames)
                .map(|t| {
                    let mut frame = enc.values(&cnf_a.lits(&ua.frame_inputs[t]));
                    frame.extend(enc.values(&cnf_a.lits(&ua.frame_keys[t])));
                    frame
                })
                .collect();
            EquivResult::Counterexample(cex)
        }
    })
}

/// SAT-proves that a simplified netlist is equivalent to its original —
/// the self-check mode of the [`mod@cutelock_netlist::simplify`] engine,
/// decided through the same miter machinery the attacks use.
///
/// Two regimes, picked by flip-flop count:
///
/// * **Same state (state-preserving simplification, or combinational):**
///   the scan views of both circuits — pure combinational functions of
///   `(inputs, state)` — are checked by one combinational miter. Because
///   the simplifier preserves flip-flop count, order and init values in this
///   mode, scan-view equality is a *complete* proof of cycle-exact
///   sequential equivalence, not a bounded one.
/// * **State dropped (cone-of-influence trimming removed flip-flops):**
///   falls back to `bounded_seq_equiv` over `frames` cycles from reset,
///   each SAT call capped at `conflict_budget` conflicts.
///
/// # Errors
///
/// Returns a [`NetlistError`] when the primary interfaces don't line up
/// (which would itself be a simplifier bug).
pub fn simplify_self_check(
    original: &Netlist,
    simplified: &Netlist,
    frames: usize,
    conflict_budget: Option<u64>,
) -> Result<EquivResult, NetlistError> {
    check_interfaces(original, simplified)?;
    if original.dff_count() != simplified.dff_count() {
        return bounded_seq_equiv(original, simplified, frames, conflict_budget);
    }
    // Scan-view miter built from the explicit port vectors
    // (`primary_outputs` / `next_state_outputs`) rather than
    // `netlist.outputs()`: output marking dedupes, and simplification can
    // change which D-nets coincide with primary outputs, so the deduped
    // lists of the two views need not align positionally.
    let a = scan_view(original)?;
    let b = scan_view(simplified)?;
    let (na, nb) = (&a.netlist, &b.netlist);
    if na.input_count() != nb.input_count() {
        return Err(NetlistError::BadArity {
            kind: "scan-view inputs",
            expected: na.input_count(),
            got: nb.input_count(),
        });
    }
    let mut enc = CircuitEncoder::new();
    enc.solver.set_conflict_budget(conflict_budget);
    let cnf_a = enc.encode(na, &Binding::new())?;
    let mut shared = Binding::new();
    shared.bind_all(nb.inputs(), &cnf_a.lits(na.inputs()));
    let cnf_b = enc.encode(nb, &shared)?;
    let oa: Vec<Lit> = a
        .primary_outputs
        .iter()
        .chain(&a.next_state_outputs)
        .map(|&o| cnf_a.lit(o))
        .collect();
    let ob: Vec<Lit> = b
        .primary_outputs
        .iter()
        .chain(&b.next_state_outputs)
        .map(|&o| cnf_b.lit(o))
        .collect();
    let diff = enc.differ(&oa, &ob);
    enc.solver.add_clause(&[diff]);
    Ok(match enc.solver.solve() {
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Unknown => EquivResult::Unknown,
        SatResult::Sat => {
            let cex = enc.values(&cnf_a.lits(na.inputs()));
            EquivResult::Counterexample(vec![cex])
        }
    })
}

fn check_interfaces(a: &Netlist, b: &Netlist) -> Result<(), NetlistError> {
    if a.input_count() != b.input_count() {
        return Err(NetlistError::BadArity {
            kind: "equiv inputs",
            expected: a.input_count(),
            got: b.input_count(),
        });
    }
    if a.output_count() != b.output_count() {
        return Err(NetlistError::BadArity {
            kind: "equiv outputs",
            expected: a.output_count(),
            got: b.output_count(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_netlist::bench;

    #[test]
    fn demorgan_is_equivalent() {
        let a = bench::parse("a", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = NAND(x, y)\n").unwrap();
        let b = bench::parse(
            "b",
            "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nnx = NOT(x)\nny = NOT(y)\nz = OR(nx, ny)\n",
        )
        .unwrap();
        assert_eq!(
            simplify_self_check(&a, &b, 1, None).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn different_functions_yield_counterexample() {
        let a = bench::parse("a", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = AND(x, y)\n").unwrap();
        let b = bench::parse("b", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = OR(x, y)\n").unwrap();
        match simplify_self_check(&a, &b, 1, None).unwrap() {
            EquivResult::Counterexample(cex) => {
                // AND != OR exactly when inputs differ.
                assert_eq!(cex.len(), 1);
                assert_ne!(cex[0][0], cex[0][1]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn sequential_counter_equivalence() {
        let a = bench::parse(
            "a",
            "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
        )
        .unwrap();
        // Same function built differently: d = MUX(en, q, !q).
        let b = bench::parse(
            "b",
            "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nqn = NOT(q)\n\
             d = MUX(en, q, qn)\ny = BUF(q)\n",
        )
        .unwrap();
        assert_eq!(
            bounded_seq_equiv(&a, &b, 6, None).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn sequential_divergence_found_at_right_depth() {
        // b diverges only once the counter reaches 1 (second cycle).
        let a = bench::parse(
            "a",
            "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
        )
        .unwrap();
        let b = bench::parse(
            "b",
            "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = OR(q, en)\ny = BUF(q)\n",
        )
        .unwrap();
        // One frame: outputs both read initial q = 0 -> equivalent.
        assert_eq!(
            bounded_seq_equiv(&a, &b, 1, None).unwrap(),
            EquivResult::Equivalent
        );
        // Three frames: XOR toggles back, OR saturates -> counterexample.
        match bounded_seq_equiv(&a, &b, 3, None).unwrap() {
            EquivResult::Counterexample(cex) => assert_eq!(cex.len(), 3),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_rejected() {
        let a = bench::parse("a", "INPUT(x)\nOUTPUT(z)\nz = NOT(x)\n").unwrap();
        let b = bench::parse("b", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = AND(x, y)\n").unwrap();
        assert!(simplify_self_check(&a, &b, 1, None).is_err());
    }

    #[test]
    fn self_check_proves_simplified_equivalent() {
        use cutelock_netlist::simplify::{simplify, SimplifyConfig};
        // Sequential circuit with foldable structure and a dead FF cone.
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\n\
             one = CONST1()\nsel = AND(b, one)\nd = MUX(sel, q, a)\n\
             deadq = DFF(deadd)\ndeadd = AND(deadq, a)\n\
             n1 = NOT(a)\nn2 = NOT(n1)\ny = XOR(q, n2)\n",
        )
        .unwrap();
        // State-preserving: equal FF counts -> complete scan-view proof.
        let (kept, _) = simplify(&nl, &SimplifyConfig::preserving_state()).unwrap();
        assert_eq!(kept.dff_count(), nl.dff_count());
        assert_eq!(
            simplify_self_check(&nl, &kept, 4, None).unwrap(),
            EquivResult::Equivalent
        );
        // Default config drops the dead FF -> bounded sequential fallback.
        let (trimmed, _) = simplify(&nl, &SimplifyConfig::default()).unwrap();
        assert!(trimmed.dff_count() < nl.dff_count());
        assert_eq!(
            simplify_self_check(&nl, &trimmed, 4, None).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn self_check_catches_broken_rewrites() {
        // A wrong "simplification": OR instead of XOR in the next-state
        // function must produce a counterexample, not a proof.
        let a = bench::parse(
            "a",
            "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n",
        )
        .unwrap();
        let b = bench::parse(
            "b",
            "INPUT(en)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\nd = OR(q, en)\ny = BUF(q)\n",
        )
        .unwrap();
        match simplify_self_check(&a, &b, 4, None).unwrap() {
            EquivResult::Counterexample(_) => {}
            other => panic!("expected counterexample, got {other:?}"),
        }
    }
}
