//! Solver diversification for portfolio solving.
//!
//! A portfolio race runs several clones of one [`Solver`](crate::Solver)
//! on the same formula and takes the first answer. Clones only help when
//! they search *differently*, so each entrant gets a [`SolverConfig`]
//! perturbing the heuristics that steer CDCL without affecting soundness:
//!
//! * **variable ordering** — a seeded activity perturbation reshuffles the
//!   VSIDS tie-breaking so entrants branch into different subtrees;
//! * **polarity** — the initial phase assignment (keep saved phases, all
//!   true, all false, or seeded pseudo-random);
//! * **restart cadence** — the Luby base multiplier, trading focus for
//!   breadth;
//! * **conflict stagger** — extra conflicts granted per portfolio epoch
//!   slice, so entrants cross their budget boundaries at different points.
//!
//! [`SolverConfig::portfolio`] builds the standard diversified family:
//! index 0 is always [`SolverConfig::default`] (a no-op, so a 1-entrant
//! portfolio is bit-identical to the plain solver), later indices draw
//! seeds from a SplitMix64 stream. Every derived value is a pure function
//! of the index — no global state, no clocks — which is what keeps
//! portfolio races reproducible (see `docs/DETERMINISM.md` at the
//! repository root).

/// How a [`SolverConfig`] sets the initial phase of every variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolarityMode {
    /// Leave the saved phases untouched (the default; applying it is a
    /// no-op, preserving bit-identical behavior for entrant 0).
    #[default]
    Keep,
    /// Branch true-first on every variable.
    AllTrue,
    /// Branch false-first on every variable (the classic MiniSat default).
    AllFalse,
    /// Pseudo-random phases drawn from the config's seed.
    Seeded,
}

/// A diversified search configuration for one portfolio entrant.
///
/// Applied with [`Solver::apply_config`](crate::Solver::apply_config).
/// The default config changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Seed for the variable-ordering (VSIDS activity) perturbation and
    /// the [`PolarityMode::Seeded`] phase stream. `0` leaves the ordering
    /// untouched.
    pub var_seed: u64,
    /// Initial phase assignment.
    pub polarity: PolarityMode,
    /// Luby restart base multiplier (conflicts before the first restart).
    /// The solver default is 100.
    pub restart_base: u64,
    /// Extra conflicts added to this entrant's budget slice in every
    /// portfolio epoch, so entrants hit their budget boundaries staggered.
    pub conflict_stagger: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            var_seed: 0,
            polarity: PolarityMode::Keep,
            restart_base: 100,
            conflict_stagger: 0,
        }
    }
}

impl SolverConfig {
    /// The standard diversified family of `k` configs for a portfolio
    /// race. Index 0 is always the default (no perturbation), so the
    /// single-entrant portfolio degenerates to the plain solver; the
    /// first few indices cover the classic hand-picked diversifications
    /// and everything beyond draws from a seeded stream.
    pub fn portfolio(k: usize) -> Vec<SolverConfig> {
        (0..k).map(Self::diversified).collect()
    }

    /// The `i`-th member of the standard diversified family — a pure
    /// function of `i` (see [`SolverConfig::portfolio`]).
    pub(crate) fn diversified(i: usize) -> SolverConfig {
        match i {
            0 => Self::default(),
            1 => Self {
                var_seed: 0,
                polarity: PolarityMode::AllTrue,
                restart_base: 150,
                conflict_stagger: 32,
            },
            2 => Self {
                var_seed: splitmix64(2),
                polarity: PolarityMode::Seeded,
                restart_base: 70,
                conflict_stagger: 64,
            },
            3 => Self {
                var_seed: splitmix64(3),
                polarity: PolarityMode::AllFalse,
                restart_base: 220,
                conflict_stagger: 96,
            },
            i => {
                let s = splitmix64(i as u64);
                Self {
                    var_seed: s | 1,
                    polarity: PolarityMode::Seeded,
                    restart_base: 60 + s % 180,
                    conflict_stagger: 32 * i as u64,
                }
            }
        }
    }
}

/// SplitMix64 — the canonical seed expander (Steele et al.), used to turn
/// small entrant indices into well-spread 64-bit seeds.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entrant_zero_is_the_default() {
        assert_eq!(SolverConfig::diversified(0), SolverConfig::default());
        assert_eq!(SolverConfig::portfolio(1), vec![SolverConfig::default()]);
    }

    #[test]
    fn family_members_differ() {
        let family = SolverConfig::portfolio(8);
        assert_eq!(family.len(), 8);
        for (i, a) in family.iter().enumerate() {
            for b in family.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn family_is_a_pure_function_of_the_index() {
        // Same index, same config — the determinism contract.
        for i in 0..16 {
            assert_eq!(SolverConfig::diversified(i), SolverConfig::diversified(i));
        }
        assert!(SolverConfig::diversified(7).restart_base >= 1);
    }

    #[test]
    fn splitmix_spreads_small_inputs() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff_ffff, 0);
    }
}
