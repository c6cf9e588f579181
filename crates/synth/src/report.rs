use std::collections::BTreeMap;
use std::fmt;

use cutelock_netlist::{simplify, GateKind, Netlist, NetlistError, SimplifyConfig};
use cutelock_sim::activity::switching_activity;

use crate::CellLibrary;

/// The technology-mapped composition of a netlist: 2-input-equivalent cell
/// counts per kind, plus flip-flops.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TechMapped {
    /// 2-input-equivalent cells per gate kind.
    pub cells: BTreeMap<GateKind, usize>,
    /// Flip-flop count.
    pub dffs: usize,
}

impl TechMapped {
    /// Total mapped cell count (gates + flip-flops) — Fig. 4(c)'s metric.
    pub(crate) fn cell_count(&self) -> usize {
        self.cells.values().sum::<usize>() + self.dffs
    }
}

/// Maps `nl` onto 2-input library cells: an `n`-ary gate becomes `n-1`
/// two-input cells of the same kind (a balanced decomposition tree), the
/// granularity at which Genus-style reports count cells.
pub fn tech_map(nl: &Netlist) -> TechMapped {
    let mut cells: BTreeMap<GateKind, usize> = BTreeMap::new();
    for gate in nl.gates() {
        let n = gate.inputs().len();
        let count = match gate.kind() {
            GateKind::Not | GateKind::Buf | GateKind::Mux | GateKind::Const0 | GateKind::Const1 => {
                1
            }
            _ => n.saturating_sub(1).max(1),
        };
        *cells.entry(gate.kind()).or_insert(0) += count;
    }
    TechMapped {
        cells,
        dffs: nl.dff_count(),
    }
}

/// One circuit's overhead metrics — one point of each Fig. 4 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// Total power in W (leakage + dynamic at the library clock).
    pub power_w: f64,
    /// Total cell area in µm².
    pub area_um2: f64,
    /// Mapped cell count.
    pub cells: usize,
    /// Primary I/O count (inputs + outputs).
    pub ios: usize,
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "power={:.3e} W  area={:.1} µm²  cells={}  IOs={}",
            self.power_w, self.area_um2, self.cells, self.ios
        )
    }
}

/// Analyzes `nl` under `lib`: maps it, sums area and leakage, and estimates
/// dynamic power from `activity_cycles` cycles of random-stimulus switching
/// activity (seeded, deterministic).
///
/// # Errors
///
/// Fails if the netlist has a combinational cycle.
pub fn analyze(
    nl: &Netlist,
    lib: &CellLibrary,
    activity_cycles: usize,
    seed: u64,
) -> Result<OverheadReport, NetlistError> {
    // Synthesis tools sweep constants and dead logic before reporting;
    // doing the same keeps locked-vs-original comparisons fair. Flip-flops
    // are state, so the sweep keeps every one of them.
    let (nl, _stats) = simplify(nl, &SimplifyConfig::preserving_state())?;
    let nl = &nl;
    let mapped = tech_map(nl);
    let mut area = 0.0;
    let mut leakage_nw = 0.0;
    for (&kind, &count) in &mapped.cells {
        let cell = lib.cell(kind);
        area += cell.area_um2 * count as f64;
        leakage_nw += cell.leakage_nw * count as f64;
    }
    area += lib.dff.area_um2 * mapped.dffs as f64;
    leakage_nw += lib.dff.leakage_nw * mapped.dffs as f64;

    // Dynamic power: per-gate output toggle rate × switching energy × f.
    let act = switching_activity(nl, activity_cycles, seed)?;
    let f_hz = lib.clock_mhz * 1e6;
    let mut dynamic_w = 0.0;
    for gate in nl.gates() {
        let cell = lib.cell(gate.kind());
        let rate = act.toggle_rate[gate.output().index()];
        // n-ary gates decompose into n-1 cells; attribute the same output
        // activity to each (a pessimistic but consistent estimate).
        let n = match gate.kind() {
            GateKind::Not | GateKind::Buf | GateKind::Mux | GateKind::Const0 | GateKind::Const1 => {
                1
            }
            _ => gate.inputs().len().saturating_sub(1).max(1),
        };
        dynamic_w += rate * cell.energy_fj * 1e-15 * f_hz * n as f64;
    }
    for ff in nl.dffs() {
        let rate = act.toggle_rate[ff.q().index()];
        dynamic_w += rate * lib.dff.energy_fj * 1e-15 * f_hz;
        // Clock pin switches every cycle.
        dynamic_w += 0.5 * lib.dff.energy_fj * 0.3 * 1e-15 * f_hz;
    }

    Ok(OverheadReport {
        power_w: leakage_nw * 1e-9 + dynamic_w,
        area_um2: area,
        cells: mapped.cell_count(),
        ios: nl.input_count() + nl.output_count(),
    })
}

/// Locked-vs-original overhead percentages — one Fig. 4 series entry.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadComparison {
    /// The original circuit's metrics.
    pub original: OverheadReport,
    /// The locked circuit's metrics.
    pub locked: OverheadReport,
}

impl OverheadComparison {
    /// Computes the comparison of `locked` against `original`.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn between(
        original: &Netlist,
        locked: &Netlist,
        lib: &CellLibrary,
        activity_cycles: usize,
        seed: u64,
    ) -> Result<Self, NetlistError> {
        Ok(Self {
            original: analyze(original, lib, activity_cycles, seed)?,
            locked: analyze(locked, lib, activity_cycles, seed)?,
        })
    }

    /// Power overhead in percent.
    pub fn power_pct(&self) -> f64 {
        pct(self.original.power_w, self.locked.power_w)
    }

    /// Area overhead in percent.
    pub fn area_pct(&self) -> f64 {
        pct(self.original.area_um2, self.locked.area_um2)
    }

    /// Cell-count overhead in percent.
    pub fn cells_pct(&self) -> f64 {
        pct(self.original.cells as f64, self.locked.cells as f64)
    }

    /// I/O-count overhead in percent.
    pub fn ios_pct(&self) -> f64 {
        pct(self.original.ios as f64, self.locked.ios as f64)
    }
}

fn pct(orig: f64, locked: f64) -> f64 {
    if orig == 0.0 {
        return 0.0;
    }
    (locked - orig) / orig * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_netlist::bench;

    fn toy() -> Netlist {
        bench::parse(
            "toy",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\n\
             d = XOR(a, q)\nt = AND(a, b, d)\ny = NOT(t)\n",
        )
        .unwrap()
    }

    #[test]
    fn tech_map_decomposes_wide_gates() {
        let nl = toy();
        let m = tech_map(&nl);
        assert_eq!(m.cells[&GateKind::And], 2); // 3-input AND -> 2 AND2
        assert_eq!(m.cells[&GateKind::Xor], 1);
        assert_eq!(m.cells[&GateKind::Not], 1);
        assert_eq!(m.dffs, 1);
        assert_eq!(m.cell_count(), 5);
    }

    #[test]
    fn analyze_produces_positive_metrics() {
        let nl = toy();
        let rep = analyze(&nl, &CellLibrary::default(), 200, 1).unwrap();
        assert!(rep.power_w > 0.0);
        assert!(rep.area_um2 > 0.0);
        assert_eq!(rep.cells, 5);
        assert_eq!(rep.ios, 3);
        let shown = rep.to_string();
        assert!(shown.contains("IOs=3"));
    }

    #[test]
    fn analysis_is_deterministic() {
        let nl = toy();
        let lib = CellLibrary::default();
        let a = analyze(&nl, &lib, 100, 7).unwrap();
        let b = analyze(&nl, &lib, 100, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn comparison_measures_added_logic() {
        let orig = toy();
        let mut locked = orig.clone();
        let a = locked.find_net("a").unwrap();
        let k = locked.add_key_input(0).unwrap();
        let g = locked.add_gate(GateKind::Xor, "kx", &[a, k]).unwrap();
        locked.mark_output(g).unwrap();
        let cmp =
            OverheadComparison::between(&orig, &locked, &CellLibrary::default(), 100, 3).unwrap();
        assert!(cmp.area_pct() > 0.0);
        assert!(cmp.cells_pct() > 0.0);
        assert!(cmp.ios_pct() > 0.0);
        assert!(cmp.power_pct() > 0.0);
    }

    #[test]
    fn pct_formula_and_edge_cases() {
        // Plain percentage growth…
        assert!((pct(100.0, 112.5) - 12.5).abs() < 1e-9);
        // …negative overhead (locked smaller than original) stays signed…
        assert!((pct(200.0, 150.0) + 25.0).abs() < 1e-9);
        // …unchanged is exactly zero…
        assert_eq!(pct(7.0, 7.0), 0.0);
        // …and a zero baseline reports 0 instead of dividing by zero.
        assert_eq!(pct(0.0, 42.0), 0.0);
    }

    #[test]
    fn comparison_percentages_match_reports() {
        let cmp = OverheadComparison {
            original: OverheadReport {
                power_w: 2.0e-3,
                area_um2: 100.0,
                cells: 80,
                ios: 10,
            },
            locked: OverheadReport {
                power_w: 2.5e-3,
                area_um2: 110.0,
                cells: 100,
                ios: 12,
            },
        };
        assert!((cmp.power_pct() - 25.0).abs() < 1e-9);
        assert!((cmp.area_pct() - 10.0).abs() < 1e-9);
        assert!((cmp.cells_pct() - 25.0).abs() < 1e-9);
        assert!((cmp.ios_pct() - 20.0).abs() < 1e-9);
        // The Fig. 4 caption style: signed, one decimal.
        assert_eq!(format!("{:+.1}%", cmp.area_pct()), "+10.0%");
        assert_eq!(format!("{:+.1}%", pct(200.0, 150.0)), "-25.0%");
    }

    #[test]
    fn report_display_formatting() {
        let rep = OverheadReport {
            power_w: 1.234e-3,
            area_um2: 456.78,
            cells: 42,
            ios: 7,
        };
        let shown = rep.to_string();
        assert_eq!(shown, "power=1.234e-3 W  area=456.8 µm²  cells=42  IOs=7");
    }

    #[test]
    fn bigger_circuit_smaller_relative_overhead() {
        // The Fig. 4 trend: the same lock on a larger circuit costs less in
        // relative terms.
        use cutelock_circuits::itc99;
        use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};
        let lib = CellLibrary::default();
        let mut pcts = Vec::new();
        for name in ["b01", "b12"] {
            let c = itc99(name).unwrap();
            let lc = CuteLockStr::new(CuteLockStrConfig {
                keys: 4,
                key_bits: 3,
                locked_ffs: 2,
                seed: 1,
                schedule: None,
                ..Default::default()
            })
            .lock(&c.netlist)
            .unwrap();
            let cmp = OverheadComparison::between(&c.netlist, &lc.netlist, &lib, 100, 5).unwrap();
            pcts.push(cmp.area_pct());
        }
        assert!(
            pcts[0] > pcts[1],
            "b01 overhead {:.1}% should exceed b12 overhead {:.1}%",
            pcts[0],
            pcts[1]
        );
    }
}
