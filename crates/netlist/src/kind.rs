use std::fmt;

use crate::NetlistError;

/// The combinational gate primitives understood by the suite.
///
/// These are exactly the primitives of the `.bench` format plus a 2-to-1
/// multiplexer (`MUX`) and constants, which several locking schemes insert
/// and which ABC-style writers also emit.
///
/// # Multiplexer convention
///
/// `Mux` takes its **select input first**: `MUX(s, a, b)` outputs `a` when
/// `s = 0` and `b` when `s = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Logical AND of two or more inputs.
    And,
    /// Logical OR of two or more inputs.
    Or,
    /// Complement of AND.
    Nand,
    /// Complement of OR.
    Nor,
    /// Exclusive OR of two or more inputs (odd parity).
    Xor,
    /// Complement of XOR (even parity).
    Xnor,
    /// Inverter (exactly one input).
    Not,
    /// Buffer (exactly one input).
    Buf,
    /// 2-to-1 multiplexer; inputs are `[sel, a, b]`, output `a` when `sel=0`.
    Mux,
    /// Constant logic 0 (no inputs).
    Const0,
    /// Constant logic 1 (no inputs).
    Const1,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for histograms).
    pub const ALL: [GateKind; 11] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Mux,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// The canonical upper-case `.bench` mnemonic for this kind.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            Self::And => "AND",
            Self::Or => "OR",
            Self::Nand => "NAND",
            Self::Nor => "NOR",
            Self::Xor => "XOR",
            Self::Xnor => "XNOR",
            Self::Not => "NOT",
            Self::Buf => "BUF",
            Self::Mux => "MUX",
            Self::Const0 => "CONST0",
            Self::Const1 => "CONST1",
        }
    }

    /// Parses a `.bench` mnemonic (case-insensitive).
    pub(crate) fn from_mnemonic(s: &str) -> Option<Self> {
        let up = s.to_ascii_uppercase();
        Some(match up.as_str() {
            "AND" => Self::And,
            "OR" => Self::Or,
            "NAND" => Self::Nand,
            "NOR" => Self::Nor,
            "XOR" => Self::Xor,
            "XNOR" => Self::Xnor,
            "NOT" | "INV" => Self::Not,
            "BUF" | "BUFF" => Self::Buf,
            "MUX" => Self::Mux,
            "CONST0" | "GND" => Self::Const0,
            "CONST1" | "VCC" | "VDD" => Self::Const1,
            _ => return None,
        })
    }

    /// Returns `(min, max)` permitted input counts; `max = usize::MAX` for
    /// variadic kinds.
    pub(crate) fn arity(self) -> (usize, usize) {
        match self {
            Self::And | Self::Or | Self::Nand | Self::Nor | Self::Xor | Self::Xnor => {
                (2, usize::MAX)
            }
            Self::Not | Self::Buf => (1, 1),
            Self::Mux => (3, 3),
            Self::Const0 | Self::Const1 => (0, 0),
        }
    }

    /// Checks that `n` inputs is a legal arity for this kind.
    pub(crate) fn check_arity(self, n: usize) -> Result<(), NetlistError> {
        let (lo, hi) = self.arity();
        if n < lo || n > hi {
            Err(NetlistError::BadArity {
                kind: self.mnemonic(),
                expected: lo,
                got: n,
            })
        } else {
            Ok(())
        }
    }

    /// Evaluates the gate over two-valued inputs.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the arity is violated; in release builds the
    /// result for a malformed input slice is unspecified but memory-safe.
    pub fn eval(self, inputs: &[bool]) -> bool {
        debug_assert!(self.check_arity(inputs.len()).is_ok());
        match self {
            Self::And => inputs.iter().all(|&b| b),
            Self::Or => inputs.iter().any(|&b| b),
            Self::Nand => !inputs.iter().all(|&b| b),
            Self::Nor => !inputs.iter().any(|&b| b),
            Self::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            Self::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            Self::Not => !inputs[0],
            Self::Buf => inputs[0],
            Self::Mux => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
            Self::Const0 => false,
            Self::Const1 => true,
        }
    }

    /// Returns `true` for kinds whose output inverts when all inputs invert
    /// (self-dual is not required; this is used by structural analyses).
    pub(crate) fn is_inverting(self) -> bool {
        matches!(self, Self::Nand | Self::Nor | Self::Not | Self::Xnor)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_round_trip() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_mnemonic(kind.mnemonic()), Some(kind));
            assert_eq!(
                GateKind::from_mnemonic(&kind.mnemonic().to_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(GateKind::from_mnemonic("DFF"), None);
        assert_eq!(GateKind::from_mnemonic(""), None);
    }

    #[test]
    fn aliases_parse() {
        assert_eq!(GateKind::from_mnemonic("INV"), Some(GateKind::Not));
        assert_eq!(GateKind::from_mnemonic("BUFF"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_mnemonic("gnd"), Some(GateKind::Const0));
        assert_eq!(GateKind::from_mnemonic("VCC"), Some(GateKind::Const1));
    }

    #[test]
    fn eval_two_input_truth_tables() {
        let cases = [
            (GateKind::And, [false, false, false, true]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, expect) in cases {
            for (i, &e) in expect.iter().enumerate() {
                let a = i & 1 != 0;
                let b = i & 2 != 0;
                assert_eq!(kind.eval(&[b, a]), e, "{kind}({b},{a})");
            }
        }
    }

    #[test]
    fn eval_unary_and_const() {
        assert!(GateKind::Not.eval(&[false]));
        assert!(!GateKind::Not.eval(&[true]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(!GateKind::Const0.eval(&[]));
        assert!(GateKind::Const1.eval(&[]));
    }

    #[test]
    fn eval_mux_select_first() {
        // MUX(s, a, b): s=0 -> a, s=1 -> b.
        assert!(!GateKind::Mux.eval(&[false, false, true]));
        assert!(GateKind::Mux.eval(&[true, false, true]));
        assert!(GateKind::Mux.eval(&[false, true, false]));
        assert!(!GateKind::Mux.eval(&[true, true, false]));
    }

    #[test]
    fn eval_variadic_parity() {
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true, true, true]));
        assert!(!GateKind::Xnor.eval(&[true, true, true]));
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false, true]));
    }

    #[test]
    fn arity_checks() {
        assert!(GateKind::Not.check_arity(1).is_ok());
        assert!(GateKind::Not.check_arity(2).is_err());
        assert!(GateKind::And.check_arity(1).is_err());
        assert!(GateKind::And.check_arity(5).is_ok());
        assert!(GateKind::Mux.check_arity(3).is_ok());
        assert!(GateKind::Mux.check_arity(2).is_err());
        assert!(GateKind::Const0.check_arity(0).is_ok());
        assert!(GateKind::Const0.check_arity(1).is_err());
    }
}
