//! SAT-based equivalence checking on [`MiterBuilder`] frames.
//!
//! Simulation-based validation (the `verify_equivalence` used by the
//! locking transforms) can only sample; this module decides equivalence
//! *exhaustively*. Every proof is one miter: both circuits' scan views are
//! encoded as [`MiterBuilder::frame`]s into one encoder, their data inputs
//! shared frame by frame, and a vector-differ constraint sits on their
//! observations. Three regimes:
//!
//! * **bounded, keys free** — each side's state threaded from its recorded
//!   reset over a number of frames, keys free per frame and shared by both
//!   sides ([`simplify_self_check`] after flip-flops were trimmed);
//! * **bounded, keys scheduled** — the same chains with side A's key port
//!   pinned frame by frame to a schedule ([`scheduled_equiv`], behind the
//!   designer-side certifier of `cutelock_attacks::certify`);
//! * **same state** — one frame from one free state shared by both sides,
//!   next state observed: a complete proof when the flip-flops line up
//!   ([`simplify_self_check`] on a state-preserving rewrite).
//!
//! Key bits bind in `key_inputs()` order, numeric `keyinputN`, like every
//! schedule and attack in the workspace.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cutelock_netlist::unroll::scan_view;
use cutelock_netlist::{Netlist, NetlistError};

use crate::encode::{Frame, MiterBuilder, PortVals};
use crate::{Lit, SatResult};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The circuits agree on every input (sequence) within the bound.
    Equivalent,
    /// A distinguishing assignment was found: per frame, the values of the
    /// shared data inputs, then the free key bits (none under a schedule),
    /// then, in the same-state proof, the shared state.
    Counterexample(Vec<Vec<bool>>),
    /// The solver budget was exhausted.
    Unknown,
}

/// SAT-proves that a simplified netlist is equivalent to its original —
/// the self-check mode of the [`mod@cutelock_netlist::simplify`] engine.
///
/// Two regimes, picked by the flip-flops' recorded inits:
///
/// * **Same state (state-preserving simplification, or combinational):**
///   when both circuits have the same flip-flops with the same inits, one
///   frame of each from one free state shared by both, primary outputs
///   and next state compared — a *complete* proof of cycle-exact
///   sequential equivalence, not a bounded one.
/// * **State dropped (cone-of-influence trimming removed flip-flops), or
///   any other reset:** `frames` cycles of each circuit from its reset,
///   keys free per frame and shared by both sides.
///
/// `conflict_budget` caps the SAT call (`None` = unlimited).
///
/// # Errors
///
/// Returns a [`NetlistError`] when the primary interfaces don't line up
/// (which would itself be a simplifier bug).
///
/// # Panics
///
/// Panics if `frames == 0` in the state-dropped regime.
pub fn simplify_self_check(
    original: &Netlist,
    simplified: &Netlist,
    frames: usize,
    conflict_budget: Option<u64>,
) -> Result<EquivResult, NetlistError> {
    let inits = |nl: &Netlist| nl.dffs().iter().map(|ff| ff.init()).collect::<Vec<_>>();
    let same_state = inits(original) == inits(simplified);
    let frames = if same_state { 1 } else { frames };
    miter(
        original,
        simplified,
        frames,
        same_state,
        None,
        conflict_budget,
        None,
    )
}

/// Proves that `locked`, its key port driven by `schedule[t]` in cycle `t`,
/// matches `original` on every input sequence of `schedule.len()` cycles
/// from reset. Data inputs and outputs are matched positionally; `original`
/// keeps any key port of its own free. `conflict_budget` caps the SAT call
/// (`None` = unlimited), and a raised `stop` flag aborts it; either way
/// the answer is [`EquivResult::Unknown`].
///
/// # Errors
///
/// Returns a [`NetlistError`] when the data inputs, the outputs or a
/// schedule entry's width don't line up.
///
/// # Panics
///
/// Panics if `schedule` is empty.
pub fn scheduled_equiv(
    locked: &Netlist,
    original: &Netlist,
    schedule: &[Vec<bool>],
    conflict_budget: Option<u64>,
    stop: Option<Arc<AtomicBool>>,
) -> Result<EquivResult, NetlistError> {
    miter(
        locked,
        original,
        schedule.len(),
        false,
        Some(schedule),
        conflict_budget,
        stop,
    )
}

/// The one equivalence miter: `frames` frames of `a`, then of `b` into the
/// same encoder, sharing `a`'s data inputs per frame. Both chains start
/// from each side's reset, or (`same_state`) from one free state shared by
/// both with next state observed. Keys are free and shared per frame, or
/// pinned per frame on side `a` to `schedule`.
fn miter(
    a: &Netlist,
    b: &Netlist,
    frames: usize,
    same_state: bool,
    schedule: Option<&[Vec<bool>]>,
    conflict_budget: Option<u64>,
    stop: Option<Arc<AtomicBool>>,
) -> Result<EquivResult, NetlistError> {
    assert!(frames > 0, "need at least one frame");
    let line_up = |kind, expected, got| {
        if expected == got {
            Ok(())
        } else {
            Err(NetlistError::BadArity {
                kind,
                expected,
                got,
            })
        }
    };
    line_up(
        "equiv data inputs",
        a.data_inputs().len(),
        b.data_inputs().len(),
    )?;
    line_up("equiv outputs", a.output_count(), b.output_count())?;
    let key_width = a.key_inputs().len();
    match schedule {
        None => line_up("equiv key inputs", key_width, b.key_inputs().len())?,
        Some(s) => s
            .iter()
            .try_for_each(|bits| line_up("schedule key bits", key_width, bits.len()))?,
    }
    let obs: Vec<usize> = if same_state {
        (0..a.dff_count()).collect()
    } else {
        Vec::new()
    };
    let mut ma = MiterBuilder::new(scan_view(a)?, &obs);
    ma.enc.solver.set_conflict_budget(conflict_budget);
    ma.enc.solver.set_stop(stop);
    let keys: Vec<Vec<Lit>> = (0..frames)
        .map(|t| match schedule {
            Some(s) => ma.enc.lits_const(&s[t]),
            None => ma.fresh_keys(),
        })
        .collect();
    let start = if same_state {
        ma.fresh_state()
    } else {
        ma.enc.lits_const(&reset(a))
    };
    let fa = chain(&mut ma, &keys, start, None)?;

    // Side B joins the same encoder.
    let mut mb = MiterBuilder::with_encoder(std::mem::take(&mut ma.enc), scan_view(b)?, &obs);
    let keys_b = match schedule {
        Some(_) => vec![mb.fresh_keys(); frames],
        None => keys.clone(),
    };
    let start = if same_state {
        fa[0].state.clone()
    } else {
        mb.enc.lits_const(&reset(b))
    };
    let fb = chain(&mut mb, &keys_b, start, Some(&fa))?;

    let oa: Vec<Lit> = fa.iter().flat_map(Frame::observations).collect();
    let ob: Vec<Lit> = fb.iter().flat_map(Frame::observations).collect();
    let enc = &mut mb.enc;
    let diff = enc.differ(&oa, &ob);
    enc.solver.add_clause(&[diff]);
    Ok(match enc.solver.solve() {
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Unknown => EquivResult::Unknown,
        SatResult::Sat => EquivResult::Counterexample(
            fa.iter()
                .zip(&keys)
                .map(|(f, k)| {
                    let mut cex = enc.values(&f.xs);
                    if schedule.is_none() {
                        cex.extend(enc.values(k));
                    }
                    if same_state {
                        cex.extend(enc.values(&f.state));
                    }
                    cex
                })
                .collect(),
        ),
    })
}

/// One frame per entry of `keys`, state threaded from `start`; data inputs
/// are fresh, or shared with the matching frame of `data`.
fn chain(
    m: &mut MiterBuilder,
    keys: &[Vec<Lit>],
    start: Vec<Lit>,
    data: Option<&[Frame]>,
) -> Result<Vec<Frame>, NetlistError> {
    let mut state = start;
    let mut frames = Vec::with_capacity(keys.len());
    for (t, k) in keys.iter().enumerate() {
        let xs = data.map_or(PortVals::Fresh, |d| PortVals::Shared(&d[t].xs));
        let f = m.frame(k, PortVals::Shared(&state), xs)?;
        state = f.next_state.clone();
        frames.push(f);
    }
    Ok(frames)
}

/// Each flip-flop's recorded init value; unknown inits are 0.
fn reset(nl: &Netlist) -> Vec<bool> {
    nl.dffs()
        .iter()
        .map(|ff| ff.init().unwrap_or(false))
        .collect()
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
            miter(&a, &b, 6, false, None, None, None).unwrap(),
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
            miter(&a, &b, 1, false, None, None, None).unwrap(),
            EquivResult::Equivalent
        );
        // Three frames: XOR toggles back, OR saturates -> counterexample.
        match miter(&a, &b, 3, false, None, None, None).unwrap() {
            EquivResult::Counterexample(cex) => assert_eq!(cex.len(), 3),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn chains_start_from_recorded_inits() {
        let counter = |init: u8| {
            let src = format!(
                "INPUT(en)\nOUTPUT(y)\n# @init q {init}\nq = DFF(d)\nd = XOR(q, en)\ny = BUF(q)\n"
            );
            bench::parse("c", &src).unwrap()
        };
        let (zero, one) = (counter(0), counter(1));
        assert_eq!(
            miter(&one, &one, 3, false, None, None, None).unwrap(),
            EquivResult::Equivalent
        );
        // The first frame already reads the differing reset, so the
        // self-check may not take the same-state proof either.
        match miter(&one, &zero, 1, false, None, None, None).unwrap() {
            EquivResult::Counterexample(cex) => assert_eq!(cex.len(), 1),
            other => panic!("expected counterexample, got {other:?}"),
        }
        assert!(matches!(
            simplify_self_check(&one, &zero, 1, None).unwrap(),
            EquivResult::Counterexample(_)
        ));
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
