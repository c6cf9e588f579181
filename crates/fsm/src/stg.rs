use std::fmt;

use crate::Cube;

/// Identifier of a state within one [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Dense index of the state.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a state id from a dense index.
    #[cfg(test)]
    pub(crate) fn from_index(i: usize) -> Self {
        Self(i as u32)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One Mealy transition: when the input matches `cube`, emit `outputs` and
/// move to `next`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Input condition.
    pub cube: Cube,
    /// Destination state.
    pub next: StateId,
    /// Mealy output vector for this transition.
    pub outputs: Vec<bool>,
}

/// Errors produced while building or validating an STG.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsmError {
    /// A transition references a state that does not exist.
    UnknownState(u32),
    /// A transition's cube width doesn't match the machine's input count.
    CubeWidthMismatch {
        /// State whose transition is malformed.
        state: u32,
        /// Cube width found.
        got: usize,
        /// Input count expected.
        expected: usize,
    },
    /// A transition's output vector has the wrong width.
    OutputWidthMismatch {
        /// State whose transition is malformed.
        state: u32,
        /// Output width found.
        got: usize,
        /// Output count expected.
        expected: usize,
    },
    /// Two transitions of a state overlap (non-deterministic machine).
    Overlap {
        /// State with overlapping transitions.
        state: u32,
        /// Indices of the overlapping transitions.
        first: usize,
        /// Second overlapping transition.
        second: usize,
    },
    /// The transitions of a state do not cover all input patterns.
    Incomplete {
        /// State with uncovered input patterns.
        state: u32,
    },
    /// The machine has no states.
    Empty,
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownState(s) => write!(f, "unknown state S{s}"),
            Self::CubeWidthMismatch {
                state,
                got,
                expected,
            } => write!(
                f,
                "state S{state}: cube width {got} does not match {expected} inputs"
            ),
            Self::OutputWidthMismatch {
                state,
                got,
                expected,
            } => write!(
                f,
                "state S{state}: output width {got} does not match {expected} outputs"
            ),
            Self::Overlap {
                state,
                first,
                second,
            } => write!(
                f,
                "state S{state}: transitions {first} and {second} overlap"
            ),
            Self::Incomplete { state } => {
                write!(f, "state S{state}: transitions do not cover all inputs")
            }
            Self::Empty => write!(f, "machine has no states"),
        }
    }
}

impl std::error::Error for FsmError {}

/// A Mealy-machine State Transition Graph.
///
/// Transitions of each state must be pairwise disjoint and jointly complete
/// (checked by [`Stg::validate`]), so the machine is deterministic and
/// always defined — the properties required for netlist synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stg {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    state_names: Vec<String>,
    transitions: Vec<Vec<Transition>>,
    reset: StateId,
}

impl Stg {
    /// Creates an empty machine with the given interface widths.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 64` (the [`Cube`] limit).
    pub(crate) fn new(name: impl Into<String>, num_inputs: usize, num_outputs: usize) -> Self {
        assert!(num_inputs <= 64, "at most 64 FSM inputs supported");
        Self {
            name: name.into(),
            num_inputs,
            num_outputs,
            state_names: Vec::new(),
            transitions: Vec::new(),
            reset: StateId(0),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output bits.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Adds a state, returning its id. The first state added becomes the
    /// reset state.
    pub(crate) fn add_state(&mut self, name: impl Into<String>) -> StateId {
        let id = StateId(self.state_names.len() as u32);
        self.state_names.push(name.into());
        self.transitions.push(Vec::new());
        id
    }

    /// The state's display name.
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    #[cfg(test)]
    pub(crate) fn state_name(&self, id: StateId) -> &str {
        &self.state_names[id.index()]
    }

    /// Sets the reset state.
    ///
    /// # Errors
    ///
    /// Fails for a foreign id.
    #[cfg(test)]
    pub(crate) fn set_reset(&mut self, id: StateId) -> Result<(), FsmError> {
        if id.index() >= self.num_states() {
            return Err(FsmError::UnknownState(id.0));
        }
        self.reset = id;
        Ok(())
    }

    /// The reset state.
    pub(crate) fn reset(&self) -> StateId {
        self.reset
    }

    /// Adds a transition from `from`.
    ///
    /// # Errors
    ///
    /// Fails on foreign states or mismatched cube/output widths; overlap
    /// and completeness are deferred to [`Stg::validate`].
    pub(crate) fn add_transition(
        &mut self,
        from: StateId,
        cube: Cube,
        next: StateId,
        outputs: Vec<bool>,
    ) -> Result<(), FsmError> {
        if from.index() >= self.num_states() {
            return Err(FsmError::UnknownState(from.0));
        }
        if next.index() >= self.num_states() {
            return Err(FsmError::UnknownState(next.0));
        }
        if cube.width() != self.num_inputs {
            return Err(FsmError::CubeWidthMismatch {
                state: from.0,
                got: cube.width(),
                expected: self.num_inputs,
            });
        }
        if outputs.len() != self.num_outputs {
            return Err(FsmError::OutputWidthMismatch {
                state: from.0,
                got: outputs.len(),
                expected: self.num_outputs,
            });
        }
        self.transitions[from.index()].push(Transition {
            cube,
            next,
            outputs,
        });
        Ok(())
    }

    /// Transitions out of `from`.
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    #[cfg(test)]
    pub(crate) fn transitions(&self, from: StateId) -> &[Transition] {
        &self.transitions[from.index()]
    }

    /// Iterates `(state, transitions)` pairs.
    pub(crate) fn iter_states(&self) -> impl Iterator<Item = (StateId, &[Transition])> {
        self.transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (StateId(i as u32), t.as_slice()))
    }

    /// The transition taken from `state` on input `bits`, if defined.
    #[cfg(test)]
    pub(crate) fn step(&self, state: StateId, bits: u64) -> Option<&Transition> {
        self.transitions[state.index()]
            .iter()
            .find(|t| t.cube.matches(bits))
    }

    /// Checks determinism (pairwise-disjoint cubes per state) and
    /// completeness (cube sizes sum to `2^n`, exact given disjointness).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), FsmError> {
        if self.num_states() == 0 {
            return Err(FsmError::Empty);
        }
        for (sid, trans) in self.iter_states() {
            for i in 0..trans.len() {
                for j in i + 1..trans.len() {
                    if trans[i].cube.overlaps(&trans[j].cube) {
                        return Err(FsmError::Overlap {
                            state: sid.0,
                            first: i,
                            second: j,
                        });
                    }
                }
            }
            let covered: u128 = trans.iter().map(|t| t.cube.size()).sum();
            if covered != 1u128 << self.num_inputs {
                return Err(FsmError::Incomplete { state: sid.0 });
            }
        }
        Ok(())
    }

    /// Number of state bits needed for binary encoding.
    pub(crate) fn state_bits(&self) -> usize {
        usize::max(
            1,
            (usize::BITS - (self.num_states() - 1).leading_zeros()) as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle_machine() -> Stg {
        // Two states; input bit flips the state; output = state.
        let mut m = Stg::new("toggle", 1, 1);
        let s0 = m.add_state("OFF");
        let s1 = m.add_state("ON");
        let one = Cube::from_str_lsb_first("1");
        let zero = Cube::from_str_lsb_first("0");
        m.add_transition(s0, one, s1, vec![false]).unwrap();
        m.add_transition(s0, zero, s0, vec![false]).unwrap();
        m.add_transition(s1, one, s0, vec![true]).unwrap();
        m.add_transition(s1, zero, s1, vec![true]).unwrap();
        m
    }

    #[test]
    fn build_and_validate() {
        let m = toggle_machine();
        m.validate().unwrap();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.state_bits(), 1);
        assert_eq!(m.reset().index(), 0);
        assert_eq!(m.state_name(StateId(1)), "ON");
    }

    #[test]
    fn step_follows_cubes() {
        let m = toggle_machine();
        let t = m.step(StateId(0), 1).unwrap();
        assert_eq!(t.next, StateId(1));
        let t = m.step(StateId(0), 0).unwrap();
        assert_eq!(t.next, StateId(0));
    }

    #[test]
    fn overlap_rejected() {
        let mut m = Stg::new("bad", 1, 0);
        let s0 = m.add_state("A");
        m.add_transition(s0, Cube::any(1), s0, vec![]).unwrap();
        m.add_transition(s0, Cube::from_str_lsb_first("1"), s0, vec![])
            .unwrap();
        assert!(matches!(m.validate(), Err(FsmError::Overlap { .. })));
    }

    #[test]
    fn incomplete_rejected() {
        let mut m = Stg::new("bad", 2, 0);
        let s0 = m.add_state("A");
        m.add_transition(s0, Cube::from_str_lsb_first("11"), s0, vec![])
            .unwrap();
        assert!(matches!(m.validate(), Err(FsmError::Incomplete { .. })));
    }

    #[test]
    fn width_mismatches_rejected() {
        let mut m = Stg::new("bad", 2, 1);
        let s0 = m.add_state("A");
        assert!(matches!(
            m.add_transition(s0, Cube::any(3), s0, vec![true]),
            Err(FsmError::CubeWidthMismatch { .. })
        ));
        assert!(matches!(
            m.add_transition(s0, Cube::any(2), s0, vec![]),
            Err(FsmError::OutputWidthMismatch { .. })
        ));
        assert!(matches!(
            m.add_transition(s0, Cube::any(2), StateId(9), vec![true]),
            Err(FsmError::UnknownState(9))
        ));
    }

    #[test]
    fn state_bits_rounding() {
        let mut m = Stg::new("s", 1, 0);
        m.add_state("a");
        assert_eq!(m.state_bits(), 1);
        m.add_state("b");
        assert_eq!(m.state_bits(), 1);
        m.add_state("c");
        assert_eq!(m.state_bits(), 2);
        for i in 0..5 {
            m.add_state(format!("x{i}"));
        }
        assert_eq!(m.num_states(), 8);
        assert_eq!(m.state_bits(), 3);
        m.add_state("y");
        assert_eq!(m.state_bits(), 4);
    }

    #[test]
    fn empty_machine_invalid() {
        let m = Stg::new("none", 1, 1);
        assert!(matches!(m.validate(), Err(FsmError::Empty)));
    }
}
