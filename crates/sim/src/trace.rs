//! Waveform capture for validation tables.
//!
//! Tables I and II of the paper are simulation traces comparing the original
//! circuit with the locked circuit under correct and wrong keys. A
//! [`Waveform`] records named signal columns over time and renders them as a
//! text table; [`bus_hex`] collapses a multi-bit bus to the compact hex
//! notation the paper uses (`2aaaa`, `e`, …).

use std::fmt;

use crate::Logic;

/// A recorded multi-signal waveform.
#[derive(Debug, Clone, Default)]
pub struct Waveform {
    columns: Vec<String>,
    rows: Vec<(u64, Vec<String>)>,
}

impl Waveform {
    /// Creates a waveform with the given column labels.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Self {
        Self {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Records a row at `time` with one rendered cell per column.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len()` differs from the column count.
    pub fn push<S: Into<String>>(&mut self, time: u64, cells: impl IntoIterator<Item = S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.columns.len(), "cell count mismatch");
        self.rows.push((time, cells));
    }
}

impl fmt::Display for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for (_, cells) in &self.rows {
            for (w, c) in widths.iter_mut().zip(cells) {
                *w = (*w).max(c.len());
            }
        }
        let twidth = self
            .rows
            .iter()
            .map(|(t, _)| t.to_string().len())
            .max()
            .unwrap_or(4)
            .max("Time".len());
        write!(f, "{:>twidth$}", "Time")?;
        for (w, c) in widths.iter().zip(&self.columns) {
            write!(f, "  {c:>w$}")?;
        }
        writeln!(f)?;
        for (t, cells) in &self.rows {
            write!(f, "{t:>twidth$}")?;
            for (w, c) in widths.iter().zip(cells) {
                write!(f, "  {c:>w$}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Renders a bus (most-significant bit first) as lower-case hex, the format
/// used in the paper's validation tables.
///
/// Any nibble containing an `X` renders as `x`; an all-`X` bus renders as a
/// single `x`. Leading zero nibbles are trimmed (but one digit is always
/// kept), matching the paper's `2aaaa` / `0` style.
pub fn bus_hex(bits: &[Logic]) -> String {
    if bits.is_empty() {
        return "0".to_string();
    }
    if bits.iter().all(|&b| b == Logic::X) {
        return "x".to_string();
    }
    // Pad to a multiple of 4 on the MSB side.
    let pad = (4 - bits.len() % 4) % 4;
    let mut nibbles = Vec::new();
    let mut cur = vec![Logic::Zero; pad];
    for &b in bits {
        cur.push(b);
        if cur.len() == 4 {
            nibbles.push(nibble_char(&cur));
            cur.clear();
        }
    }
    let s: String = nibbles.into_iter().collect();
    let trimmed = s.trim_start_matches('0');
    if trimmed.is_empty() {
        "0".to_string()
    } else {
        trimmed.to_string()
    }
}

fn nibble_char(bits: &[Logic]) -> char {
    let mut v = 0u8;
    for &b in bits {
        v <<= 1;
        match b {
            Logic::One => v |= 1,
            Logic::Zero => {}
            Logic::X => return 'x',
        }
    }
    char::from_digit(u32::from(v), 16).expect("nibble")
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::*;

    #[test]
    fn hex_formats_like_the_paper() {
        // 0b10_1010_1010_1010_1010 = 0x2aaaa (18 bits, MSB first).
        let mut bits = Vec::new();
        for _ in 0..9 {
            bits.push(One);
            bits.push(Zero);
        }
        assert_eq!(bus_hex(&bits), "2aaaa");
        // A leading zero bit is trimmed away.
        bits.insert(0, Zero);
        assert_eq!(bus_hex(&bits), "2aaaa");
    }

    #[test]
    fn hex_zero_and_unknown() {
        assert_eq!(bus_hex(&[Zero, Zero, Zero, Zero, Zero]), "0");
        assert_eq!(bus_hex(&[X, X, X]), "x");
        // One unknown nibble renders as x, known nibbles still shown.
        let bits = [One, Zero, Zero, Zero, X, Zero, Zero, Zero];
        assert_eq!(bus_hex(&bits), "8x");
    }

    #[test]
    fn hex_small_values() {
        assert_eq!(bus_hex(&[One, One, One, Zero]), "e");
        assert_eq!(bus_hex(&[One]), "1");
        assert_eq!(bus_hex(&[]), "0");
    }

    #[test]
    fn waveform_renders_table() {
        let mut wf = Waveform::new(["x[7:0]", "y"]);
        wf.push(0, ["0", "0"]);
        wf.push(60, ["2aaaa", "1"]);
        let s = wf.to_string();
        assert!(s.contains("Time"));
        assert!(s.contains("2aaaa"));
        assert_eq!(wf.rows.len(), 2);
        assert_eq!(wf.rows[1].0, 60);
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn waveform_rejects_wrong_width() {
        let mut wf = Waveform::new(["a"]);
        wf.push(0, ["1", "2"]);
    }
}
