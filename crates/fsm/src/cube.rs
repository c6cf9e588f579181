use std::fmt;

/// A ternary cube over up to 64 input variables.
///
/// Each input position is `0`, `1` or don't-care (`-`). Cubes describe the
/// input condition of an STG transition; a set of pairwise-disjoint cubes
/// whose sizes sum to `2^n` is a deterministic, complete condition set.
///
/// Bit `i` of the masks corresponds to input `i` (LSB = input 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    care: u64,
    value: u64,
    width: u8,
}

impl Cube {
    /// A cube matching *every* pattern of `width` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub(crate) fn any(width: usize) -> Self {
        assert!(width <= 64, "cubes support at most 64 inputs");
        Self {
            care: 0,
            value: 0,
            width: width as u8,
        }
    }

    /// A cube from a ternary string, **input 0 first** (`"1-0"` constrains
    /// input 0 to 1, leaves input 1 free, constrains input 2 to 0).
    ///
    /// # Panics
    ///
    /// Panics on characters other than `0`, `1`, `-` or on length > 64.
    #[cfg(test)]
    pub(crate) fn from_str_lsb_first(s: &str) -> Self {
        assert!(s.len() <= 64);
        let mut care = 0u64;
        let mut value = 0u64;
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => care |= 1 << i,
                '1' => {
                    care |= 1 << i;
                    value |= 1 << i;
                }
                '-' => {}
                other => panic!("invalid cube character `{other}`"),
            }
        }
        Self {
            care,
            value,
            width: s.len() as u8,
        }
    }

    /// Number of input variables this cube ranges over.
    pub(crate) fn width(&self) -> usize {
        self.width as usize
    }

    /// True when the input pattern `bits` (bit `i` = input `i`) satisfies
    /// the cube.
    #[cfg(test)]
    pub(crate) fn matches(&self, bits: u64) -> bool {
        bits & self.care == self.value
    }

    /// True when some input pattern satisfies both cubes.
    pub(crate) fn overlaps(&self, other: &Cube) -> bool {
        let common = self.care & other.care;
        (self.value ^ other.value) & common == 0
    }

    /// Number of minterms covered: `2^(width - |care|)`.
    pub(crate) fn size(&self) -> u128 {
        1u128 << (self.width as u32 - self.care.count_ones())
    }

    /// Constrains input `i` to `bit`, returning the refined cube.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or already constrained differently.
    pub(crate) fn with_bit(&self, i: usize, bit: bool) -> Self {
        assert!(i < self.width(), "input index out of range");
        let m = 1u64 << i;
        if self.care & m != 0 {
            assert_eq!(self.value & m != 0, bit, "conflicting constraint");
            return *self;
        }
        Self {
            care: self.care | m,
            value: if bit { self.value | m } else { self.value },
            width: self.width,
        }
    }

    /// Iterates over the constrained positions as `(index, bit)` pairs.
    pub(crate) fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..self.width()).filter_map(move |i| {
            let m = 1u64 << i;
            if self.care & m != 0 {
                Some((i, self.value & m != 0))
            } else {
                None
            }
        })
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.width() {
            let m = 1u64 << i;
            let c = if self.care & m == 0 {
                '-'
            } else if self.value & m != 0 {
                '1'
            } else {
                '0'
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let c = Cube::from_str_lsb_first("1-0");
        assert_eq!(c.to_string(), "1-0");
        assert_eq!(c.width(), 3);
        assert!(c.matches(0b001));
        assert!(c.matches(0b011));
        assert!(!c.matches(0b101));
        assert!(!c.matches(0b000));
    }

    #[test]
    fn any_matches_everything() {
        let c = Cube::any(4);
        for bits in 0..16 {
            assert!(c.matches(bits));
        }
        assert_eq!(c.size(), 16);
    }

    #[test]
    fn overlap_detection() {
        let a = Cube::from_str_lsb_first("1-");
        let b = Cube::from_str_lsb_first("-0");
        let c = Cube::from_str_lsb_first("0-");
        assert!(a.overlaps(&b)); // 10 satisfies both
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn with_bit_refines() {
        let c = Cube::any(3).with_bit(1, true);
        assert_eq!(c.to_string(), "-1-");
        assert_eq!(c.size(), 4);
        let c2 = c.with_bit(1, true); // idempotent
        assert_eq!(c, c2);
        let c3 = c.with_bit(0, false);
        assert_eq!(c3.to_string(), "01-");
    }

    #[test]
    #[should_panic(expected = "conflicting constraint")]
    fn with_bit_conflict_panics() {
        let _ = Cube::any(2).with_bit(0, true).with_bit(0, false);
    }

    #[test]
    fn literals_enumerate_constraints() {
        let c = Cube::from_str_lsb_first("0-1");
        let lits: Vec<_> = c.literals().collect();
        assert_eq!(lits, vec![(0, false), (2, true)]);
    }

    #[test]
    fn sizes_sum_for_partition() {
        // 1-, 00, 01 partition the 2-input space.
        let parts = [
            Cube::from_str_lsb_first("1-"),
            Cube::from_str_lsb_first("00"),
            Cube::from_str_lsb_first("01"),
        ];
        let total: u128 = parts.iter().map(Cube::size).sum();
        assert_eq!(total, 4);
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                assert!(!parts[i].overlaps(&parts[j]));
            }
        }
    }
}
