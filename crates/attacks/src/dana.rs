//! DANA — Dataflow Analysis for Netlist reverse engineering (Albartus et
//! al., CHES 2020).
//!
//! DANA groups the flip-flops of a flattened netlist into *register words*
//! by analyzing the dataflow between them, giving a reverse engineer the
//! high-level structure back. Following the published algorithm's shape,
//! this implementation runs **partition refinement over register-level
//! dataflow signatures**: starting from one all-inclusive group, flip-flops
//! are repeatedly split by (driver gate kind, predecessor register set,
//! successor register set, primary-input visibility) until a fixpoint —
//! word bits, which share sources, sinks and their bit-slice recipe,
//! stay together; unrelated registers separate.
//!
//! Output quality is scored with **Normalized Mutual Information** ([`nmi`])
//! against the ground-truth word partition recorded by the circuit
//! generators, as in the paper. The paper's Table V reports 0.87–0.99 on
//! the original circuits and an average of ≈0.41 under Cute-Lock-Str,
//! because locked flip-flops are re-wired through MUX trees into foreign
//! cones and the counter. This implementation scores far lower on clean
//! circuits: `table5 --quick` prints averages of 0.58 clean and 0.50
//! locked, full `table5` 0.65 and 0.57. `ROADMAP.md` item 4 ("Table V
//! does not reproduce") tracks the gap.

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use cutelock_netlist::{cone, Driver, GateKind, Netlist};

use crate::AttackBudget;

/// Refinement signature of one flip-flop: driver kind, whether its cone reads
/// a primary input, predecessor labels, successor labels, and its own label.
type FfSignature = (Option<GateKind>, bool, Vec<usize>, Vec<usize>, usize);

/// Result of a DANA run.
#[derive(Debug, Clone)]
pub struct DanaReport {
    /// Recovered register groups (flip-flop indices).
    pub clusters: Vec<Vec<usize>>,
    /// Cluster label per flip-flop index.
    pub labels: Vec<usize>,
    /// CPU time.
    pub elapsed: Duration,
    /// True when [`AttackBudget::timeout`] expired before the refinement
    /// reached a fixpoint; `clusters`/`labels` then hold the partial (still
    /// well-formed) partition computed so far.
    pub timed_out: bool,
}

/// Runs register clustering on `nl`, enforcing `budget.timeout` across the
/// per-flip-flop cone analysis and every refinement round.
///
/// DANA is graph refinement, not SAT, so the deadline is polled between
/// units of work (one cone, one round); a run that exhausts its budget
/// returns the coarser partition it had with
/// [`DanaReport::timed_out`] set instead of overrunning the clock.
pub fn dana_attack_with_budget(nl: &Netlist, budget: &AttackBudget) -> DanaReport {
    let start = budget.start();
    let out_of_time = || budget.remaining(start).is_none();
    let n = nl.dff_count();
    if n == 0 {
        return DanaReport {
            clusters: Vec::new(),
            labels: Vec::new(),
            elapsed: budget.clock.now().duration_since(start),
            timed_out: false,
        };
    }

    let mut timed_out = out_of_time();

    // Register-level dataflow: predecessors and successors per FF.
    let mut preds: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    if !timed_out {
        let graph = cone::ff_dependency_graph(nl);
        for (&src, dsts) in &graph {
            for &dst in dsts {
                succs[src].insert(dst);
                preds[dst].insert(src);
            }
        }
    }

    // Static per-FF features: the recipe of its next-state slice.
    let driver_kind: Vec<Option<GateKind>> = nl
        .dffs()
        .iter()
        .map(|ff| match nl.net(ff.d()).driver() {
            Driver::Gate(g) => Some(nl.gates()[g].kind()),
            _ => None,
        })
        .collect();
    let mut reads_pi = vec![false; n];
    for (f, ff) in nl.dffs().iter().enumerate() {
        if timed_out {
            break;
        }
        // One cone analysis = one unit of virtual time, ticked *before*
        // the check so a zero budget expires at cone 0 deterministically.
        budget.clock.tick(1);
        if out_of_time() {
            timed_out = true;
            break;
        }
        reads_pi[f] = cone::cone_support(nl, ff.d())
            .iter()
            .any(|&s| nl.net(s).driver() == Driver::Input);
    }

    // Partition refinement.
    let mut labels = vec![0usize; n];
    for _round in 0..64 {
        if timed_out {
            break;
        }
        // One refinement round = one unit of virtual time.
        budget.clock.tick(1);
        if out_of_time() {
            timed_out = true;
            break;
        }
        let mut sig_map: HashMap<FfSignature, usize> = HashMap::new();
        let mut next = vec![0usize; n];
        for f in 0..n {
            let pred_groups: BTreeSet<usize> = preds[f].iter().map(|&p| labels[p]).collect();
            let succ_groups: BTreeSet<usize> = succs[f].iter().map(|&s| labels[s]).collect();
            let sig = (
                driver_kind[f],
                reads_pi[f],
                pred_groups.into_iter().collect::<Vec<_>>(),
                succ_groups.into_iter().collect::<Vec<_>>(),
                labels[f],
            );
            let id = sig_map.len();
            let group = *sig_map.entry(sig).or_insert(id);
            next[f] = group;
        }
        if next == labels {
            break;
        }
        labels = next;
    }

    // Canonicalize labels and build cluster lists.
    let mut remap: HashMap<usize, usize> = HashMap::new();
    for l in &mut labels {
        let id = remap.len();
        *l = *remap.entry(*l).or_insert(id);
    }
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); remap.len()];
    for (f, &l) in labels.iter().enumerate() {
        clusters[l].push(f);
    }
    DanaReport {
        clusters,
        labels,
        elapsed: budget.clock.now().duration_since(start),
        timed_out,
    }
}

/// Normalized Mutual Information between two labelings of the same items,
/// `2·I(A;B) / (H(A)+H(B))`, in `[0, 1]`.
///
/// Degenerate cases follow the usual convention: two trivial (single-class)
/// labelings score 1; a trivial labeling against a non-trivial one scores 0.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn nmi(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "labelings must cover the same items");
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    let count = |labels: &[usize]| -> HashMap<usize, f64> {
        let mut m = HashMap::new();
        for &l in labels {
            *m.entry(l).or_insert(0.0) += 1.0;
        }
        m
    };
    let ca = count(a);
    let cb = count(b);
    let nf = n as f64;
    let entropy = |c: &HashMap<usize, f64>| -> f64 {
        c.values()
            .map(|&x| {
                let p = x / nf;
                -p * p.ln()
            })
            .sum()
    };
    let ha = entropy(&ca);
    let hb = entropy(&cb);
    if ha == 0.0 && hb == 0.0 {
        return 1.0;
    }
    if ha == 0.0 || hb == 0.0 {
        return 0.0;
    }
    let mut joint: HashMap<(usize, usize), f64> = HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *joint.entry((x, y)).or_insert(0.0) += 1.0;
    }
    let mut mi = 0.0;
    for (&(x, y), &c) in &joint {
        let pxy = c / nf;
        let px = ca[&x] / nf;
        let py = cb[&y] / nf;
        mi += pxy * (pxy / (px * py)).ln();
    }
    (2.0 * mi / (ha + hb)).clamp(0.0, 1.0)
}

/// Scores a DANA result against ground truth restricted to the first
/// `n_original` flip-flops (lock-inserted state elements have no ground
/// truth and are excluded, as in the paper's locked-vs-original scoring).
pub fn score_against_ground_truth(report: &DanaReport, ground_truth_labels: &[usize]) -> f64 {
    let n = ground_truth_labels.len();
    nmi(
        &report.labels[..n.min(report.labels.len())],
        ground_truth_labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_circuits::itc99;
    use cutelock_core::str_lock::{CuteLockStr, CuteLockStrConfig};

    /// Clustering under the default budget.
    fn dana(nl: &Netlist) -> DanaReport {
        dana_attack_with_budget(nl, &AttackBudget::default())
    }

    #[test]
    fn nmi_identical_labelings_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi(&a, &a) - 1.0).abs() < 1e-9);
        // Label permutation does not matter.
        let b = vec![5, 5, 9, 9, 7, 7];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nmi_degenerate_cases() {
        assert_eq!(nmi(&[0, 0, 0], &[0, 0, 0]), 1.0);
        assert_eq!(nmi(&[0, 0, 0], &[0, 1, 2]), 0.0);
        assert_eq!(nmi(&[], &[]), 1.0);
    }

    #[test]
    fn nmi_partial_agreement_between_zero_and_one() {
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 1, 0, 1];
        let v = nmi(&a, &b);
        assert!((0.0..0.1).contains(&v), "independent labelings: {v}");
        let c = vec![0, 0, 1, 2];
        let v2 = nmi(&a, &c);
        assert!(v2 > 0.5 && v2 < 1.0, "partial agreement: {v2}");
    }

    #[test]
    fn dana_recovers_words_on_clean_circuit() {
        let c = itc99("b12").unwrap();
        let report = dana(&c.netlist);
        let score = score_against_ground_truth(&report, &c.word_labels());
        assert!(score > 0.6, "clean-circuit NMI too low: {score}");
    }

    #[test]
    fn dana_degrades_on_locked_circuit() {
        let c = itc99("b12").unwrap();
        let clean = score_against_ground_truth(&dana(&c.netlist), &c.word_labels());
        let lc = CuteLockStr::new(CuteLockStrConfig {
            keys: 4,
            key_bits: 5,
            locked_ffs: c.netlist.dff_count() / 2,
            seed: 9,
            schedule: None,
            ..Default::default()
        })
        .lock(&c.netlist)
        .unwrap();
        let locked_score = score_against_ground_truth(&dana(&lc.netlist), &c.word_labels());
        assert!(
            locked_score < clean,
            "locking must degrade NMI: clean {clean} vs locked {locked_score}"
        );
    }

    #[test]
    fn dana_times_out_at_exact_virtual_instants() {
        // Replaces the old zero-wall-timeout regression, which raced the
        // scheduler: under a virtual clock (1 ms per work unit — one cone
        // analysis, one refinement round) the timeout fires at an exact,
        // machine-independent point in the algorithm.
        use cutelock_core::clock::VirtualClock;
        let ms = Duration::from_millis;
        let c = itc99("b12").unwrap();
        let n = c.netlist.dff_count() as u64;

        // Zero budget: the first cone analysis expires it. The partial
        // partition is still well-formed: every FF labeled, one coarse
        // cluster covering the whole FF set.
        let vc = VirtualClock::with_tick(1_000_000);
        let budget = AttackBudget {
            timeout: Duration::ZERO,
            clock: vc.handle(),
            ..Default::default()
        };
        let report = dana_attack_with_budget(&c.netlist, &budget);
        assert!(report.timed_out);
        assert_eq!(report.labels.len(), c.netlist.dff_count());
        let covered: usize = report.clusters.iter().map(Vec::len).sum();
        assert_eq!(covered, c.netlist.dff_count());
        assert_eq!(report.clusters.len(), 1, "no refinement round ran");
        assert_eq!(report.elapsed, ms(1), "expired at cone 0");

        // Exactly n units: every cone is analyzed, refinement round 0
        // expires — the partition is still the single coarse cluster.
        let vc = VirtualClock::with_tick(1_000_000);
        let budget = AttackBudget {
            timeout: ms(n),
            clock: vc.handle(),
            ..Default::default()
        };
        let report = dana_attack_with_budget(&c.netlist, &budget);
        assert!(report.timed_out);
        assert_eq!(report.clusters.len(), 1, "expired before round 0 split");
        assert_eq!(report.elapsed, ms(n + 1), "expired at refinement round 0");

        // n + 1 units buys exactly one refinement round: the partition
        // refines past the coarse cluster but short of the fixpoint.
        let vc = VirtualClock::with_tick(1_000_000);
        let budget = AttackBudget {
            timeout: ms(n + 1),
            clock: vc.handle(),
            ..Default::default()
        };
        let one_round = dana_attack_with_budget(&c.netlist, &budget);
        assert!(one_round.timed_out);
        assert!(one_round.clusters.len() > 1, "round 0 split the cluster");

        // A generous virtual budget reaches the fixpoint and matches the
        // default wall-clock run label for label.
        let vc = VirtualClock::with_tick(1_000_000);
        let budget = AttackBudget {
            timeout: Duration::from_secs(3600),
            clock: vc.handle(),
            ..Default::default()
        };
        let report = dana_attack_with_budget(&c.netlist, &budget);
        assert!(!report.timed_out);
        assert_eq!(report.labels, dana(&c.netlist).labels);
        assert!(report.clusters.len() >= one_round.clusters.len());
    }

    #[test]
    fn dana_handles_stateless_netlist() {
        let nl =
            cutelock_netlist::bench::parse("comb", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let report = dana(&nl);
        assert!(report.clusters.is_empty());
    }
}
