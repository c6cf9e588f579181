//! First-seen-order string interning for
//! [`ColumnType::Str`](crate::ColumnType::Str) columns.
//!
//! Codes are assigned sequentially in the order strings are first interned,
//! so the same sequence of pushed rows always produces the same codes — a
//! precondition for byte-identical store files. The dictionary also tracks
//! which entries have already been flushed to disk, so the streaming writer
//! can emit **delta** frames (only the strings interned since the last
//! frame) instead of rewriting the whole dictionary.

use std::collections::HashMap;

/// An interning dictionary: `String -> u32` code in first-seen order.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    strings: Vec<String>,
    index: HashMap<String, u32>,
    flushed: usize,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The code for `s`, interning it if unseen. Codes are dense and
    /// assigned in first-seen order.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.strings.len()).expect("dictionary exceeds u32 codes");
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), code);
        code
    }

    /// The code for `s` if already interned (queries must not grow the
    /// dictionary).
    pub fn code(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string behind `code`.
    pub(crate) fn resolve(&self, code: u32) -> Option<&str> {
        self.strings.get(code as usize).map(String::as_str)
    }

    /// All interned strings, in code order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.strings.iter().map(String::as_str)
    }

    /// Strings interned since the last [`Dictionary::mark_flushed`] — the
    /// content of the next on-disk dictionary-delta frame.
    pub(crate) fn pending(&self) -> &[String] {
        &self.strings[self.flushed..]
    }

    /// Marks every current entry as flushed to disk.
    pub(crate) fn mark_flushed(&mut self) {
        self.flushed = self.strings.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_first_seen_order() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("s27"), 0);
        assert_eq!(d.intern("b01"), 1);
        assert_eq!(d.intern("s27"), 0, "re-interning is stable");
        assert_eq!(d.resolve(1), Some("b01"));
        assert_eq!(d.resolve(2), None);
        assert_eq!(d.code("b01"), Some(1));
        assert_eq!(d.code("nope"), None);
        assert_eq!(d.strings.len(), 2);
    }

    #[test]
    fn pending_tracks_unflushed_deltas() {
        let mut d = Dictionary::new();
        d.intern("a");
        d.intern("b");
        assert_eq!(d.pending(), ["a".to_string(), "b".to_string()]);
        d.mark_flushed();
        assert!(d.pending().is_empty());
        d.intern("a"); // already interned: no new pending entry
        d.intern("c");
        assert_eq!(d.pending(), ["c".to_string()]);
    }
}
