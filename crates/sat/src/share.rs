//! Deterministic clause sharing between portfolio entrants.
//!
//! Entrants of a portfolio race clone the same base solver, so they agree
//! on variable numbering — a learnt clause is meaningful verbatim in every
//! sibling. At each epoch barrier the race collects each entrant's best
//! learnts ([`Solver::export_learnts`](crate::Solver::export_learnts)),
//! merges them with [`merge_exports`] into one canonical batch, and
//! re-imports the batch into every entrant
//! ([`Solver::import_clauses`](crate::Solver::import_clauses)) before the
//! next slice.
//!
//! Everything here is shaped by the repo's determinism rulebook
//! (`docs/DETERMINISM.md` Rule 7): exports are gathered in entrant-index
//! order, the merged batch is sorted into a canonical order that is a pure
//! function of the *set* of exported clauses, and caps are fixed numbers —
//! so the batch an entrant imports never depends on thread scheduling.

use std::collections::HashMap;

use crate::Lit;

/// Quality/size caps on a clause-sharing exchange.
///
/// The defaults follow the usual portfolio heuristics: short clauses and
/// low-LBD ("glue") clauses travel well, everything else is noise that
/// just bloats sibling databases. The batch cap bounds the per-epoch
/// import cost no matter how many entrants race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareCap {
    /// Longest clause (in literals) an entrant may export.
    pub max_len: usize,
    /// Highest literal-block distance an entrant may export.
    pub max_lbd: u32,
    /// Most clauses a single [`merge_exports`] batch may carry (the best
    /// survive — the batch is sorted by quality before truncation).
    pub max_clauses: usize,
}

impl Default for ShareCap {
    fn default() -> Self {
        Self {
            max_len: 8,
            max_lbd: 4,
            max_clauses: 256,
        }
    }
}

impl ShareCap {
    /// A cap scaled by a single knob (the `clause_sharing` benchmark's
    /// wider filter): clauses up to `n` literals and LBD up to `n/2` qualify, batches carry up to
    /// `32 * n` clauses. `ShareCap::default()` equals `with_limit(8)`.
    pub fn with_limit(n: usize) -> Self {
        let n = n.max(2);
        Self {
            max_len: n,
            max_lbd: (n / 2).max(1) as u32,
            max_clauses: 32 * n,
        }
    }
}

/// A learnt clause in transit between entrants: canonically sorted
/// literals plus the LBD it was learnt with (the receiver files it under
/// the same glue score).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SharedClause {
    /// The clause's literals, sorted (the canonical form duplicates are
    /// detected by).
    pub lits: Vec<Lit>,
    /// Literal-block distance recorded when the clause was learnt.
    pub lbd: u32,
}

/// Merges per-entrant export sets into one canonical batch.
///
/// The result is a pure function of the *multiset union* of the inputs:
/// duplicates (same sorted literals) collapse to one clause keeping the
/// lowest LBD seen, and the batch is sorted by `(lbd, len, lits)` —
/// best-glue first — before truncation to `cap.max_clauses`. Permuting
/// the export sets, or the clauses within one set, cannot change the
/// output (pinned by a property test at the workspace root).
pub fn merge_exports(exports: &[Vec<SharedClause>], cap: ShareCap) -> Vec<SharedClause> {
    let mut best: HashMap<Vec<Lit>, u32> = HashMap::new();
    for set in exports {
        for c in set {
            debug_assert!(c.lits.windows(2).all(|w| w[0] < w[1]), "lits not canonical");
            best.entry(c.lits.clone())
                .and_modify(|lbd| *lbd = (*lbd).min(c.lbd))
                .or_insert(c.lbd);
        }
    }
    let mut batch: Vec<SharedClause> = best
        .into_iter()
        .map(|(lits, lbd)| SharedClause { lits, lbd })
        .collect();
    // Canonical order: glue quality first, then size, then the literals
    // themselves — a total order, so the HashMap's iteration order (the
    // only nondeterminism above) washes out entirely.
    batch.sort_unstable_by(|a, b| {
        (a.lbd, a.lits.len(), &a.lits).cmp(&(b.lbd, b.lits.len(), &b.lits))
    });
    batch.truncate(cap.max_clauses);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, Var};

    fn lit(v: u32, pos: bool) -> Lit {
        if pos {
            Lit::positive(Var::from_index(v as usize))
        } else {
            Lit::negative(Var::from_index(v as usize))
        }
    }

    fn sc(vars: &[u32], lbd: u32) -> SharedClause {
        let mut lits: Vec<Lit> = vars.iter().map(|&v| lit(v, true)).collect();
        lits.sort();
        SharedClause { lits, lbd }
    }

    #[test]
    fn merge_dedups_keeping_the_best_lbd() {
        let a = vec![sc(&[0, 1], 3), sc(&[2, 3], 2)];
        let b = vec![sc(&[0, 1], 1)];
        let m = merge_exports(&[a, b], ShareCap::default());
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], sc(&[0, 1], 1), "duplicate keeps the lower lbd");
        assert_eq!(m[1], sc(&[2, 3], 2));
    }

    #[test]
    fn merge_is_permutation_invariant() {
        let a = vec![sc(&[0, 1], 2), sc(&[4, 5], 1)];
        let b = vec![sc(&[2, 3], 3)];
        let fwd = merge_exports(&[a.clone(), b.clone()], ShareCap::default());
        let rev = merge_exports(&[b, a], ShareCap::default());
        assert_eq!(fwd, rev);
    }

    #[test]
    fn merge_truncates_to_the_batch_cap_keeping_best_glue() {
        let cap = ShareCap {
            max_clauses: 2,
            ..ShareCap::default()
        };
        let set = vec![sc(&[0, 1], 5), sc(&[2, 3], 1), sc(&[4, 5], 2)];
        let m = merge_exports(&[set], cap);
        assert_eq!(m.len(), 2);
        assert!(m.iter().all(|c| c.lbd <= 2), "worst glue truncated first");
    }

    #[test]
    fn with_limit_scales_the_default() {
        assert_eq!(ShareCap::with_limit(8), ShareCap::default());
        let tight = ShareCap::with_limit(2);
        assert_eq!(tight.max_len, 2);
        assert_eq!(tight.max_lbd, 1);
        assert_eq!(tight.max_clauses, 64);
    }
}
