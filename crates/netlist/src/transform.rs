//! Tests of the state-preserving cleanup sweep.
//!
//! Locking transforms leave degenerate structures behind (constant-fed
//! gates from `CONST0`/`CONST1` schedule bits, cones made unreachable by
//! re-routing). Overhead comparisons are only fair on swept netlists, so
//! `cutelock_synth::analyze` runs [`crate::simplify::simplify`] with
//! [`crate::SimplifyConfig::preserving_state`] before counting cells:
//! constants propagate, buffers forward, duplicates merge and unobservable
//! gates go, while inputs, outputs and every flip-flop stay. These tests
//! pin that configuration's behaviour on the small shapes locking produces.

mod tests {
    use crate::bench;
    use crate::simplify::{simplify, SimplifyConfig, SimplifyStats};
    use crate::{GateKind, Netlist};

    fn cleanup(nl: &Netlist) -> Result<(Netlist, SimplifyStats), crate::NetlistError> {
        simplify(nl, &SimplifyConfig::preserving_state())
    }

    #[test]
    fn constants_fold_through() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nOUTPUT(y)\nz = CONST1()\nt1 = AND(a, z)\n\
             t2 = XOR(t1, z)\ny = NOT(t2)\n",
        )
        .unwrap();
        let (clean, stats) = cleanup(&nl).unwrap();
        // y = NOT(XOR(a,1)) = NOT(NOT(a)) = a; structure shrinks.
        assert!(clean.gate_count() < nl.gate_count());
        assert!(stats.folded + stats.merged > 0);
        // Function preserved (exhaustive).
        for a in [false, true] {
            let eval = |nl: &Netlist| {
                let order = crate::topo::gate_order(nl).unwrap();
                let mut vals = vec![false; nl.net_count()];
                vals[nl.inputs()[0].index()] = a;
                for g in order {
                    let gate = &nl.gates()[g];
                    let ins: Vec<bool> = gate.inputs().iter().map(|&i| vals[i.index()]).collect();
                    vals[gate.output().index()] = gate.kind().eval(&ins);
                }
                vals[nl.outputs()[0].index()]
            };
            assert_eq!(eval(&nl), eval(&clean), "input {a}");
        }
    }

    #[test]
    fn dead_logic_swept() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ndead1 = AND(a, b)\n\
             dead2 = NOT(dead1)\ny = XOR(a, b)\n",
        )
        .unwrap();
        let (clean, stats) = cleanup(&nl).unwrap();
        assert_eq!(clean.gate_count(), 1);
        assert_eq!(stats.swept_gates, 2);
    }

    #[test]
    fn buffers_forwarded() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nOUTPUT(y)\nb1 = BUF(a)\nb2 = BUF(b1)\ny = NOT(b2)\n",
        )
        .unwrap();
        let (clean, _) = cleanup(&nl).unwrap();
        assert_eq!(clean.gate_count(), 1);
        let g = &clean.gates()[0];
        assert_eq!(g.kind(), GateKind::Not);
        assert_eq!(clean.net_name(g.inputs()[0]), "a");
    }

    #[test]
    fn flip_flops_and_interface_preserved() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nOUTPUT(y)\n# @init q 1\nq = DFF(d)\nz = CONST0()\n\
             d = OR(a, z)\ny = BUF(q)\n",
        )
        .unwrap();
        let (clean, _) = cleanup(&nl).unwrap();
        assert_eq!(clean.dff_count(), 1);
        assert_eq!(clean.dffs()[0].init(), Some(true));
        assert_eq!(clean.input_count(), 1);
        assert_eq!(clean.output_count(), 1);
        // d = OR(a, 0) folds to a (no gate needed on that path)...
        // but the OR itself folds only if we recognize single-operand OR;
        // at minimum the constant is gone or unused.
        clean.validate().unwrap();
    }

    #[test]
    fn mux_with_equal_branches_folds() {
        let nl = bench::parse(
            "t",
            "INPUT(s)\nINPUT(a)\nOUTPUT(y)\nm = MUX(s, a, a)\ny = NOT(m)\n",
        )
        .unwrap();
        let (clean, _) = cleanup(&nl).unwrap();
        assert_eq!(clean.gate_count(), 1);
    }

    #[test]
    fn structural_duplicates_merged() {
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng1 = AND(a, b)\ng2 = AND(b, a)\n\
             y = XOR(g1, g2)\n",
        )
        .unwrap();
        let (clean, stats) = cleanup(&nl).unwrap();
        // g2 merges into g1, XOR(g1, g1) folds to constant false.
        assert!(stats.folded + stats.merged > 0, "{stats:?}");
        assert!(clean.gate_count() <= 1, "got {}", clean.gate_count());
    }

    #[test]
    fn sequential_behavior_preserved_after_cleanup() {
        use crate::unroll::scan_view;
        // A locked-looking netlist with constants in the cone.
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n# @init q 0\nq = DFF(d)\n\
             one = CONST1()\nsel = AND(b, one)\nd = MUX(sel, q, a)\n\
             y = XOR(q, a)\n",
        )
        .unwrap();
        let (clean, _) = cleanup(&nl).unwrap();
        // Compare one scan step exhaustively over (a, b, q).
        let sva = scan_view(&nl).unwrap();
        let svb = scan_view(&clean).unwrap();
        for bits in 0..8u32 {
            let eval = |sv: &crate::unroll::ScanView| {
                let nl = &sv.netlist;
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
                nl.outputs()
                    .iter()
                    .map(|&o| vals[o.index()])
                    .collect::<Vec<_>>()
            };
            assert_eq!(eval(&sva), eval(&svb), "pattern {bits:03b}");
        }
    }
}
