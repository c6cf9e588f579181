use cutelock_netlist::GateKind;

/// Parameters of one standard cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Cell area in µm².
    pub area_um2: f64,
    /// Leakage power in nW.
    pub leakage_nw: f64,
    /// Switching energy per output toggle in fJ (includes typical load).
    pub energy_fj: f64,
}

/// A 45nm-class standard-cell library.
///
/// Values follow the open-source 45nm libraries (Nangate-class X1 drive):
/// a 2-input NAND is the canonical ~0.8 µm² cell, XOR/MUX cost roughly 2×,
/// a D flip-flop roughly 5.7×. Leakage and switching energies scale
/// similarly. The defaults give sensible *relative* costs — which is all
/// the Fig. 4 comparison consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    /// 2-input AND.
    pub and2: CellParams,
    /// 2-input OR.
    pub or2: CellParams,
    /// 2-input NAND.
    pub nand2: CellParams,
    /// 2-input NOR.
    pub nor2: CellParams,
    /// 2-input XOR.
    pub xor2: CellParams,
    /// 2-input XNOR.
    pub xnor2: CellParams,
    /// Inverter.
    pub inv: CellParams,
    /// Buffer.
    pub buf: CellParams,
    /// 2:1 MUX.
    pub mux2: CellParams,
    /// D flip-flop.
    pub dff: CellParams,
    /// Constant tie cell (tie-high/tie-low).
    pub tie: CellParams,
    /// Clock frequency used for dynamic power, in MHz.
    pub clock_mhz: f64,
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::nangate45_like()
    }
}

impl CellLibrary {
    /// The default 45nm-class library.
    pub(crate) fn nangate45_like() -> Self {
        let c = |area_um2: f64, leakage_nw: f64, energy_fj: f64| CellParams {
            area_um2,
            leakage_nw,
            energy_fj,
        };
        Self {
            and2: c(1.064, 20.9, 1.6),
            or2: c(1.064, 21.5, 1.7),
            nand2: c(0.798, 15.9, 1.2),
            nor2: c(0.798, 16.4, 1.2),
            xor2: c(1.596, 31.9, 2.8),
            xnor2: c(1.596, 32.3, 2.8),
            inv: c(0.532, 9.6, 0.7),
            buf: c(0.798, 14.2, 1.1),
            mux2: c(1.862, 28.4, 2.4),
            dff: c(4.522, 74.3, 6.1),
            tie: c(0.266, 2.1, 0.0),
            clock_mhz: 1000.0,
        }
    }

    /// Parameters of the 2-input cell implementing `kind` (constants map to
    /// tie cells, inverter/buffer to their 1-input cells).
    pub(crate) fn cell(&self, kind: GateKind) -> CellParams {
        match kind {
            GateKind::And => self.and2,
            GateKind::Or => self.or2,
            GateKind::Nand => self.nand2,
            GateKind::Nor => self.nor2,
            GateKind::Xor => self.xor2,
            GateKind::Xnor => self.xnor2,
            GateKind::Not => self.inv,
            GateKind::Buf => self.buf,
            GateKind::Mux => self.mux2,
            GateKind::Const0 | GateKind::Const1 => self.tie,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_costs_are_ordered_sensibly() {
        let lib = CellLibrary::default();
        assert!(lib.inv.area_um2 < lib.nand2.area_um2);
        assert!(lib.nand2.area_um2 < lib.xor2.area_um2);
        assert!(lib.xor2.area_um2 < lib.dff.area_um2);
        assert!(lib.mux2.area_um2 > lib.nand2.area_um2);
        assert!(lib.dff.leakage_nw > lib.inv.leakage_nw);
    }

    #[test]
    fn cell_lookup_covers_all_kinds() {
        let lib = CellLibrary::default();
        for kind in GateKind::ALL {
            assert!(lib.cell(kind).area_um2 > 0.0, "{kind}");
        }
    }
}
