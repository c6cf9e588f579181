//! Content fingerprints for cache keys.
//!
//! The job daemon's result cache (`cutelock_jobs`) keys cached attack
//! verdicts by *what was attacked*: the locked circuit's full content —
//! both netlists, the key schedule, the scheme label — hashed into one
//! `u64`. [`Fingerprint`] is a streaming FNV-1a hasher: tiny, dependency
//! free, stable across platforms and runs (unlike `std`'s `DefaultHasher`,
//! whose algorithm is explicitly unspecified), which is what a cache key
//! that participates in the determinism story needs.
//!
//! FNV-1a is not collision resistant against adversaries; the cache treats
//! a fingerprint hit as identity, which is fine for its job — memoizing a
//! user's own resubmissions — and documented as such in the daemon.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher with a stable, documented algorithm.
///
/// ```
/// use cutelock_core::fingerprint::Fingerprint;
///
/// let mut fp = Fingerprint::new();
/// fp.update_str("s27");
/// fp.update_str("cutelock-str");
/// let a = fp.finish();
/// // Chunk boundaries are part of the input.
/// let mut b = Fingerprint::new();
/// b.update_str("s27c");
/// b.update_str("utelock-str");
/// assert_ne!(a, b.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string's UTF-8 bytes followed by a `0xff` domain
    /// separator, so `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn update_str(&mut self, s: &str) {
        self.update(s.as_bytes());
        self.update(&[0xff]);
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The accumulated 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// One-shot fingerprint of a sequence of byte chunks, each chunk
    /// domain separated as in [`Fingerprint::update_str`].
    #[cfg(test)]
    pub(crate) fn of(chunks: &[&[u8]]) -> u64 {
        let mut fp = Self::new();
        for chunk in chunks {
            fp.update(chunk);
            fp.update(&[0xff]);
        }
        fp.finish()
    }
}

/// One-shot FNV-1a 64-bit hash of a byte string (no domain separator).
#[cfg(test)]
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update(bytes);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference values from the FNV specification (Noll).
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut fp = Fingerprint::new();
        fp.update(b"foo");
        fp.update(b"bar");
        assert_eq!(fp.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn domain_separation_distinguishes_chunk_boundaries() {
        assert_ne!(
            Fingerprint::of(&[b"ab", b"c"]),
            Fingerprint::of(&[b"a", b"bc"]),
        );
        let mut a = Fingerprint::new();
        a.update_str("ab");
        a.update_str("c");
        let mut b = Fingerprint::new();
        b.update_str("a");
        b.update_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn u64_feed_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.update_u64(1);
        a.update_u64(2);
        let mut b = Fingerprint::new();
        b.update_u64(2);
        b.update_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
