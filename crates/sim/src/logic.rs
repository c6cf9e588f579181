use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use cutelock_netlist::GateKind;

/// A three-valued logic level: `0`, `1` or unknown (`X`).
///
/// `X` models un-initialized flip-flops and don't-know propagation, with the
/// usual pessimistic Kleene semantics (`0 AND X = 0`, `1 AND X = X`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic low.
    #[default]
    Zero,
    /// Logic high.
    One,
    /// Unknown.
    X,
}

impl Logic {
    /// Converts a `bool`.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Self::One
        } else {
            Self::Zero
        }
    }

    /// Returns the known value, or `None` for `X`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Self::Zero => Some(false),
            Self::One => Some(true),
            Self::X => None,
        }
    }

    /// True when the value is `0` or `1`.
    pub(crate) fn is_known(self) -> bool {
        self != Self::X
    }

    /// Evaluates `kind` over three-valued inputs.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the arity is wrong for `kind`.
    pub(crate) fn eval_gate(kind: GateKind, inputs: &[Logic]) -> Logic {
        use Logic::*;
        match kind {
            GateKind::And => {
                if inputs.contains(&Zero) {
                    Zero
                } else if inputs.contains(&X) {
                    X
                } else {
                    One
                }
            }
            GateKind::Or => {
                if inputs.contains(&One) {
                    One
                } else if inputs.contains(&X) {
                    X
                } else {
                    Zero
                }
            }
            GateKind::Nand => !Self::eval_gate(GateKind::And, inputs),
            GateKind::Nor => !Self::eval_gate(GateKind::Or, inputs),
            GateKind::Xor => inputs.iter().copied().fold(Zero, |a, b| a ^ b),
            GateKind::Xnor => !Self::eval_gate(GateKind::Xor, inputs),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::Mux => match inputs[0] {
                Zero => inputs[1],
                One => inputs[2],
                X => {
                    if inputs[1] == inputs[2] && inputs[1].is_known() {
                        inputs[1]
                    } else {
                        X
                    }
                }
            },
            GateKind::Const0 => Zero,
            GateKind::Const1 => One,
        }
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Self::from_bool(b)
    }
}

impl Not for Logic {
    type Output = Logic;
    fn not(self) -> Logic {
        match self {
            Self::Zero => Self::One,
            Self::One => Self::Zero,
            Self::X => Self::X,
        }
    }
}

impl BitAnd for Logic {
    type Output = Logic;
    fn bitand(self, rhs: Logic) -> Logic {
        Logic::eval_gate(GateKind::And, &[self, rhs])
    }
}

impl BitOr for Logic {
    type Output = Logic;
    fn bitor(self, rhs: Logic) -> Logic {
        Logic::eval_gate(GateKind::Or, &[self, rhs])
    }
}

impl BitXor for Logic {
    type Output = Logic;
    fn bitxor(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Self::X, _) | (_, Self::X) => Self::X,
            (a, b) => Self::from_bool(a != b),
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Zero => "0",
            Self::One => "1",
            Self::X => "x",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::*;

    #[test]
    fn kleene_and_or() {
        assert_eq!(Zero & X, Zero);
        assert_eq!(One & X, X);
        assert_eq!(One & One, One);
        assert_eq!(One | X, One);
        assert_eq!(Zero | X, X);
        assert_eq!(Zero | Zero, Zero);
    }

    #[test]
    fn xor_with_x_is_x() {
        assert_eq!(One ^ X, X);
        assert_eq!(X ^ X, X);
        assert_eq!(One ^ Zero, One);
        assert_eq!(One ^ One, Zero);
    }

    #[test]
    fn not_x_is_x() {
        assert_eq!(!X, X);
        assert_eq!(!One, Zero);
        assert_eq!(!Zero, One);
    }

    #[test]
    fn mux_x_select_agreeing_inputs() {
        assert_eq!(Logic::eval_gate(GateKind::Mux, &[X, One, One]), One);
        assert_eq!(Logic::eval_gate(GateKind::Mux, &[X, One, Zero]), X);
        assert_eq!(Logic::eval_gate(GateKind::Mux, &[Zero, One, Zero]), One);
        assert_eq!(Logic::eval_gate(GateKind::Mux, &[One, One, Zero]), Zero);
    }

    #[test]
    fn matches_two_valued_eval_on_known_inputs() {
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for bits in 0..4u8 {
                let a = bits & 1 != 0;
                let b = bits & 2 != 0;
                let expect = kind.eval(&[a, b]);
                let got = Logic::eval_gate(kind, &[a.into(), b.into()]);
                assert_eq!(got, Logic::from_bool(expect), "{kind}({a},{b})");
            }
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Logic::from_bool(true), One);
        assert_eq!(One.to_bool(), Some(true));
        assert_eq!(X.to_bool(), None);
        assert!(!X.is_known());
        assert_eq!(format!("{Zero}{One}{X}"), "01x");
    }
}
