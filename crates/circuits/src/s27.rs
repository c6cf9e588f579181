//! The ISCAS'89 `s27` benchmark, embedded verbatim.
//!
//! `s27` is the smallest ISCAS'89 circuit (4 inputs, 1 output, 3 flip-flops,
//! 10 gates) and the structural-locking validation vehicle of the paper's
//! Table II. It is small enough to reproduce exactly; flip-flops reset to 0
//! per the suite's convention.

use cutelock_netlist::{bench, Netlist};

/// The `.bench` source of `s27`, with reset-to-0 init directives.
pub(crate) const S27_BENCH: &str = "\
# s27 (ISCAS'89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
# @init G5 0
# @init G6 0
# @init G7 0
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

/// Parses the embedded `s27` netlist.
pub fn s27() -> Netlist {
    bench::parse("s27", S27_BENCH).expect("embedded s27 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_netlist::NetlistStats;

    #[test]
    fn s27_has_published_shape() {
        let nl = s27();
        let st = NetlistStats::of(&nl);
        assert_eq!(st.inputs, 4);
        assert_eq!(st.outputs, 1);
        assert_eq!(st.dffs, 3);
        assert_eq!(st.gates, 10);
        nl.validate().unwrap();
    }

    #[test]
    fn s27_simulates_from_reset() {
        use cutelock_sim::{NetlistOracle, SequentialOracle};
        let mut orc = NetlistOracle::new(s27()).unwrap();
        // From all-zero state with all-zero inputs: G12=NOR(0,0)=1,
        // G14=NOT(0)=1, G8=AND(1,0)=0, G15=OR(1,0)=1, G16=OR(0,0)=0,
        // G9=NAND(0,1)=1, G11=NOR(0,1)=0, G17=NOT(G11)=1.
        let out = orc.step(&[false, false, false, false]);
        assert_eq!(out, vec![true]);
    }
}
