use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered densely from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Constructs a variable from its dense index.
    pub fn from_index(i: usize) -> Self {
        Self(i as u32)
    }

    /// The dense index of this variable.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `var * 2 + negated`, MiniSat-style, so literals index watch
/// lists directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn positive(var: Var) -> Self {
        Self(var.0 << 1)
    }

    /// The negative literal of `var`.
    pub fn negative(var: Var) -> Self {
        Self((var.0 << 1) | 1)
    }

    /// Builds a literal with an explicit polarity (`true` = positive).
    pub(crate) fn new(var: Var, positive: bool) -> Self {
        if positive {
            Self::positive(var)
        } else {
            Self::negative(var)
        }
    }

    /// The underlying variable.
    pub(crate) fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True when the literal is positive (un-negated).
    pub(crate) fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The dense index of this literal (`2*var + negated`), used for watch
    /// lists.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::index`].
    #[cfg(test)]
    pub(crate) fn from_index(i: usize) -> Self {
        Self(i as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().0)
        } else {
            write!(f, "!v{}", self.var().0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var::from_index(5);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(p.index(), 10);
        assert_eq!(n.index(), 11);
        assert_eq!(Lit::from_index(11), n);
        assert_eq!(Lit::new(v, false), n);
    }

    #[test]
    fn display_forms() {
        let v = Var::from_index(3);
        assert_eq!(Lit::positive(v).to_string(), "v3");
        assert_eq!(Lit::negative(v).to_string(), "!v3");
        assert_eq!(v.to_string(), "v3");
    }
}
