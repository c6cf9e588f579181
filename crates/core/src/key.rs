use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One key value: `ki` bits, LSB first (`bits[j]` drives `keyinput{j}`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyValue {
    bits: Vec<bool>,
}

impl KeyValue {
    /// Builds a key value from bits (LSB first).
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// Builds a `width`-bit key from the low bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(width <= 64);
        Self {
            bits: (0..width).map(|j| value >> j & 1 == 1).collect(),
        }
    }

    /// The key bits, LSB first.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of bits.
    pub(crate) fn width(&self) -> usize {
        self.bits.len()
    }

    /// The key as an integer (LSB-first), if it fits in 64 bits.
    pub fn as_u64(&self) -> Option<u64> {
        if self.width() > 64 {
            return None;
        }
        Some(
            self.bits
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, &b)| acc | (u64::from(b) << j)),
        )
    }

    /// Parses an MSB-first binary string (the [`fmt::Display`] form used in
    /// key files and the paper's key listings).
    ///
    /// # Errors
    ///
    /// Returns a message for empty strings or non-binary characters.
    pub(crate) fn parse_binary(s: &str) -> Result<Self, String> {
        if s.is_empty() {
            return Err("empty key value".into());
        }
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars().rev() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                other => return Err(format!("invalid key bit `{other}` in `{s}`")),
            }
        }
        Ok(Self { bits })
    }

    /// A key differing from `self` in at least one bit (flips the bit at
    /// `position % width`).
    ///
    /// # Panics
    ///
    /// Panics on an empty key.
    pub fn flipped(&self, position: usize) -> Self {
        assert!(!self.bits.is_empty());
        let mut bits = self.bits.clone();
        let p = position % bits.len();
        bits[p] = !bits[p];
        Self { bits }
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // MSB-first binary, like the paper's key listings.
        for &b in self.bits.iter().rev() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

/// The time-indexed key schedule of a Cute-Lock design: `keys[t]` must be
/// applied while the counter reads `t`; the counter counts `0..k-1`
/// cyclically, so cycle `n` requires `keys[n % k]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySchedule {
    keys: Vec<KeyValue>,
}

impl KeySchedule {
    /// Builds a schedule from per-time key values.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or widths are inconsistent.
    pub fn new(keys: Vec<KeyValue>) -> Self {
        assert!(!keys.is_empty(), "schedule needs at least one key");
        let w = keys[0].width();
        assert!(
            keys.iter().all(|k| k.width() == w),
            "inconsistent key widths"
        );
        Self { keys }
    }

    /// A uniform random schedule of `k` keys, `ki` bits each.
    ///
    /// For `k ≥ 2` the schedule is guaranteed non-constant (at least two
    /// time slots hold different keys): an all-equal draw would silently
    /// reduce the lock to the SAT-attackable single-key scheme, defeating
    /// the multi-key design. Use [`KeySchedule::constant`] when the
    /// single-key reduction is wanted (paper §IV.A validation).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `ki == 0`.
    pub fn random(k: usize, ki: usize, seed: u64) -> Self {
        assert!(k > 0 && ki > 0, "k and ki must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4b45_5953); // "KEYS"
        let mut keys: Vec<KeyValue> = (0..k)
            .map(|_| KeyValue::from_bits((0..ki).map(|_| rng.gen()).collect()))
            .collect();
        if k >= 2 && keys.windows(2).all(|w| w[0] == w[1]) {
            keys[1] = keys[1].flipped(rng.gen_range(0..ki));
        }
        Self::new(keys)
    }

    /// A schedule that repeats the same key at every time — the single-key
    /// reduction used in the paper's validation (§IV.A), which *is*
    /// SAT-attackable.
    pub fn constant(key: KeyValue, k: usize) -> Self {
        assert!(k > 0);
        Self::new(vec![key; k])
    }

    /// Number of keys (`k`).
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Key width (`ki`).
    pub fn key_bits(&self) -> usize {
        self.keys[0].width()
    }

    /// The key scheduled for counter time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= k`.
    pub fn key_at_time(&self, t: usize) -> &KeyValue {
        &self.keys[t]
    }

    /// The key required in absolute clock cycle `cycle` (counter wraps).
    pub fn key_at_cycle(&self, cycle: u64) -> &KeyValue {
        &self.keys[(cycle % self.keys.len() as u64) as usize]
    }

    /// All keys, time-ordered.
    pub(crate) fn keys(&self) -> &[KeyValue] {
        &self.keys
    }

    /// True when every time slot holds the same key value (the insecure
    /// single-key reduction).
    pub fn is_constant(&self) -> bool {
        self.keys.windows(2).all(|w| w[0] == w[1])
    }

    /// Serializes the schedule in the key-file format shared by
    /// `cutelock lock --keys-out`, `lock --schedule-file`, and
    /// `cutelock verify --keys`: `#`-comments, then one `t<N> <bits>` line
    /// per time slot (bits MSB-first).
    ///
    /// ```text
    /// # scheme: cutelock-str
    /// # k = 2, ki = 3
    /// t0 101
    /// t1 010
    /// ```
    pub fn to_key_file(&self, scheme: &str) -> String {
        let mut text = format!(
            "# scheme: {scheme}\n# k = {}, ki = {}\n",
            self.num_keys(),
            self.key_bits()
        );
        for (t, key) in self.keys.iter().enumerate() {
            text.push_str(&format!("t{t} {key}\n"));
        }
        text
    }

    /// Parses the key-file format written by
    /// [`to_key_file`](KeySchedule::to_key_file). Blank lines and
    /// `#`-comments are ignored; the `t<N>` indices must form a contiguous
    /// `0..k` range (in any order) with consistent key widths.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending line.
    pub fn parse_key_file(text: &str) -> Result<Self, String> {
        let mut entries: Vec<(usize, KeyValue)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| format!("key file line {}: {msg}", lineno + 1);
            let (slot, bits) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(format!("expected `t<N> <bits>`, got `{line}`")))?;
            let t: usize = slot
                .strip_prefix('t')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| err(format!("bad time slot `{slot}`")))?;
            let key = KeyValue::parse_binary(bits.trim()).map_err(err)?;
            if entries.iter().any(|&(seen, _)| seen == t) {
                return Err(err(format!("duplicate time slot t{t}")));
            }
            entries.push((t, key));
        }
        if entries.is_empty() {
            return Err("key file has no `t<N> <bits>` entries".into());
        }
        entries.sort_by_key(|&(t, _)| t);
        let k = entries.len();
        if entries.last().expect("non-empty").0 != k - 1 {
            return Err(format!("time slots must cover t0..t{} contiguously", k - 1));
        }
        let ki = entries[0].1.width();
        if let Some((t, bad)) = entries.iter().find(|(_, key)| key.width() != ki) {
            return Err(format!("t{t} is {} bits wide but t0 is {ki}", bad.width()));
        }
        Ok(Self::new(entries.into_iter().map(|(_, key)| key).collect()))
    }
}

impl fmt::Display for KeySchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, k) in self.keys.iter().enumerate() {
            if t > 0 {
                write!(f, ", ")?;
            }
            write!(f, "t{t}:{k}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips_u64() {
        let k = KeyValue::from_u64(0b1011, 4);
        assert_eq!(k.bits(), &[true, true, false, true]);
        assert_eq!(k.as_u64(), Some(0b1011));
        assert_eq!(k.to_string(), "1011");
        assert_eq!(k.width(), 4);
    }

    #[test]
    fn flipped_differs() {
        let k = KeyValue::from_u64(0b00, 2);
        assert_ne!(k.flipped(0), k);
        assert_ne!(k.flipped(1), k);
        assert_eq!(k.flipped(0).as_u64(), Some(0b01));
        assert_eq!(k.flipped(5).as_u64(), Some(0b10));
    }

    #[test]
    fn schedule_cycles_through_keys() {
        let s = KeySchedule::new(vec![
            KeyValue::from_u64(1, 2),
            KeyValue::from_u64(3, 2),
            KeyValue::from_u64(2, 2),
            KeyValue::from_u64(0, 2),
        ]);
        assert_eq!(s.num_keys(), 4);
        assert_eq!(s.key_bits(), 2);
        assert_eq!(s.key_at_cycle(0).as_u64(), Some(1));
        assert_eq!(s.key_at_cycle(5).as_u64(), Some(3));
        assert_eq!(s.key_at_cycle(7).as_u64(), Some(0));
        assert!(!s.is_constant());
    }

    #[test]
    fn random_schedule_deterministic() {
        let a = KeySchedule::random(6, 18, 9);
        let b = KeySchedule::random(6, 18, 9);
        assert_eq!(a, b);
        let c = KeySchedule::random(6, 18, 10);
        assert_ne!(a, c);
        assert_eq!(a.num_keys(), 6);
        assert_eq!(a.key_bits(), 18);
    }

    #[test]
    fn constant_schedule_detected() {
        let s = KeySchedule::constant(KeyValue::from_u64(5, 3), 4);
        assert!(s.is_constant());
        assert_eq!(s.num_keys(), 4);
    }

    #[test]
    fn key_value_parses_msb_first_binary() {
        let k = KeyValue::parse_binary("1011").unwrap();
        assert_eq!(k, KeyValue::from_u64(0b1011, 4));
        assert_eq!(k.to_string(), "1011");
        assert!(KeyValue::parse_binary("").is_err());
        assert!(KeyValue::parse_binary("10x1").is_err());
    }

    #[test]
    fn key_file_round_trips() {
        let s = KeySchedule::random(4, 3, 77);
        let text = s.to_key_file("cutelock-str");
        assert!(text.starts_with("# scheme: cutelock-str\n"));
        let parsed = KeySchedule::parse_key_file(&text).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn key_file_accepts_shuffled_slots_and_comments() {
        let parsed =
            KeySchedule::parse_key_file("# a comment\n\n t1 01 \nt0 11\n# trailing\n").unwrap();
        assert_eq!(parsed.key_at_time(0), &KeyValue::from_u64(0b11, 2));
        assert_eq!(parsed.key_at_time(1), &KeyValue::from_u64(0b01, 2));
    }

    #[test]
    fn key_file_rejects_malformed_inputs() {
        // No entries at all.
        assert!(KeySchedule::parse_key_file("# nothing\n").is_err());
        // Gap in the time slots.
        assert!(KeySchedule::parse_key_file("t0 1\nt2 0\n").is_err());
        // Duplicate slot.
        assert!(KeySchedule::parse_key_file("t0 1\nt0 0\n").is_err());
        // Width mismatch.
        assert!(KeySchedule::parse_key_file("t0 10\nt1 011\n").is_err());
        // Bad slot name and bad bits.
        assert!(KeySchedule::parse_key_file("x0 10\n").is_err());
        assert!(KeySchedule::parse_key_file("t0 10a\n").is_err());
        // Missing value.
        assert!(KeySchedule::parse_key_file("t0\n").is_err());
    }
}
