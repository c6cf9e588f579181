//! The calls the workloads make into the layers, each inside its span,
//! with the counters read off their results; and the encode and
//! clause-sharing probes of a traced run.

use std::time::Duration;

use cutelock_attacks::certify::prove_locked_equivalence;
use cutelock_attacks::{
    run_attack, simplify_locked, AttackBudget, AttackReport, AttackSpec, AttackStrategy, Portfolio,
};
use cutelock_circuits::iscas89;
use cutelock_core::baselines::XorLock;
use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_netlist::unroll::scan_view;
use cutelock_netlist::NetlistStats;
use cutelock_sat::equiv::EquivResult;
use cutelock_sat::{MiterBuilder, PortVals};

use crate::trace::{SpanId, Tracer};

/// Frames and conflict budget of every SAT certification (the daemon's
/// `verify` defaults).
pub const CERTIFY_FRAMES: usize = 4;
pub const CERTIFY_CONFLICTS: u64 = 2_000_000;

fn gates(lc: &LockedCircuit) -> f64 {
    NetlistStats::of(&lc.netlist).gates as f64
}

/// Runs a lock (span `core.lock`) and counts the gates of its result.
pub fn lock<E: std::fmt::Display>(
    tr: &Tracer,
    lock: impl FnOnce() -> Result<LockedCircuit, E>,
) -> Result<LockedCircuit, String> {
    let lc = tr
        .time("core.lock", None, None, |_| lock())
        .map_err(|e| e.to_string())?;
    tr.count("core.locked_gates", gates(&lc));
    Ok(lc)
}

/// One attack cell, run the way `run_attack` runs it with simplification
/// on: `simplify_locked` (span `netlist.simplify`), then `run_attack` with
/// simplification off (span `attacks.run_attack`). Counts the gates the
/// simplifier removed and the report; returns the simplified lock too.
pub fn attack_cell(
    tr: &Tracer,
    lc: &LockedCircuit,
    spec: &AttackSpec,
    op: Option<u64>,
    parent: Option<SpanId>,
) -> (LockedCircuit, AttackReport) {
    let simple = tr.time("netlist.simplify", op, parent, |_| simplify_locked(lc));
    tr.count("netlist.gates_removed", gates(lc) - gates(&simple));
    let spec = spec.clone().with_simplify(false);
    let report = tr.time("attacks.run_attack", op, parent, |_| {
        run_attack(&simple, &spec)
    });
    tr.count("attacks.iterations", report.iterations as f64);
    tr.count("attacks.bound", report.bound as f64);
    tr.count("sat.conflicts", report.stats.conflicts as f64);
    tr.count("sat.propagations", report.stats.propagations as f64);
    tr.count("sat.gc_runs", report.stats.gc_runs as f64);
    (simple, report)
}

/// SAT certification of a lock under its own schedule (span
/// `attacks.certify`), the work of the daemon's `verify` job.
pub fn certify(
    tr: &Tracer,
    lc: &LockedCircuit,
    op: Option<u64>,
    parent: Option<SpanId>,
) -> Result<EquivResult, String> {
    tr.time("attacks.certify", op, parent, |_| {
        prove_locked_equivalence(lc, CERTIFY_FRAMES, Some(CERTIFY_CONFLICTS))
    })
    .map_err(|e| e.to_string())
}

/// Share of 64-lane random-stimulus cycles on which `key` corrupts the
/// outputs (span `sim.corruption`).
pub fn corruption(
    tr: &Tracer,
    lc: &LockedCircuit,
    key: &KeyValue,
    stimulus: u64,
) -> Result<f64, String> {
    tr.time("sim.corruption", None, None, |_| {
        lc.wide_corruption_rate(key, 64, stimulus)
    })
    .map_err(|e| e.to_string())
}

/// For each flip-flop of the original, its index among the locked
/// netlist's flip-flops (matched by q-net name, as the scan attacks do).
fn shared_ffs(lc: &LockedCircuit) -> Vec<usize> {
    let locked: Vec<&str> = lc
        .netlist
        .dffs()
        .iter()
        .map(|ff| lc.netlist.net_name(ff.q()))
        .collect();
    lc.original
        .dffs()
        .iter()
        .filter_map(|ff| {
            let name = lc.original.net_name(ff.q());
            locked.iter().position(|&n| n == name)
        })
        .collect()
}

/// Encodes the scan attacks' two-copy miter of `lc` (span `sat.encode`)
/// and counts its clauses.
pub fn encode(tr: &Tracer, lc: &LockedCircuit) {
    let clauses = tr.time("sat.encode", None, None, |_| {
        let sv = scan_view(&lc.netlist).ok()?;
        let mut m = MiterBuilder::new(sv, &shared_ffs(lc));
        let (k1, k2) = (m.fresh_keys(), m.fresh_keys());
        let (xs, ss) = (m.fresh_data(), m.fresh_state());
        let f1 = m
            .frame(&k1, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .ok()?;
        let f2 = m
            .frame(&k2, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .ok()?;
        let differ = m.obs_differ(&f1, &f2);
        m.enc.solver.add_clause(&[differ]);
        Some(m.enc.solver.stats().clauses)
    });
    if let Some(c) = clauses {
        tr.count("sat.clauses", c as f64);
    }
}

/// The clause-sharing probe (span `attacks.share_probe`). The workloads'
/// queries finish inside a portfolio's first epoch slice, so their races
/// never reach an exchange; this race does. It is the attack goldens'
/// sharing pin: scan SAT on XorLock(12, 3) of s510 under a 2-entrant
/// sharing portfolio with one-conflict first slices, capped at 3000
/// conflicts per query. Its ledger alone feeds `attacks.share_*`. Fails if
/// no clause was exchanged.
pub fn share(tr: &Tracer) -> Result<(), String> {
    let nl = iscas89("s510").map_err(|e| e.to_string())?.netlist;
    let lc = XorLock::new(12, 3).lock(&nl).map_err(|e| e.to_string())?;
    let portfolio = Portfolio {
        epoch_base: 1,
        ..Portfolio::new(2, 1)
    }
    .with_share(true);
    let spec = AttackSpec::new(AttackStrategy::ScanSat)
        .with_budget(AttackBudget {
            timeout: Duration::from_secs(60),
            max_bound: 6,
            max_iterations: 8,
            conflict_budget: Some(3_000),
            ..AttackBudget::default()
        })
        .with_portfolio(portfolio);
    tr.time("attacks.share_probe", None, None, |_| {
        run_attack(&lc, &spec)
    });
    let (exported, imported, _) = spec.portfolio.share_stats();
    tr.count("attacks.share_exported", exported as f64);
    tr.count("attacks.share_imported", imported as f64);
    if exported > 0 && imported > 0 {
        Ok(())
    } else {
        Err(format!(
            "sharing probe exchanged {exported}/{imported} clauses"
        ))
    }
}
