//! Stable content digests of simulation results.
//!
//! The golden table in `tests/determinism.rs` and the benchmark's
//! output digests fingerprint every run's cycles and statistics. Those
//! pinned values must not move with the build, so [`Fnv1a`] feeds
//! explicit, length-disciplined values instead of hashing a `Debug`
//! rendering, which changes on every struct edit.
//!
//! # Examples
//!
//! ```
//! use pl_base::digest::Fnv1a;
//! let mut h = Fnv1a::new();
//! h.write_u64(42);
//! h.write_str("stream");
//! let a = h.finish();
//! let mut h2 = Fnv1a::new();
//! h2.write_u64(42);
//! h2.write_str("stream");
//! assert_eq!(a, h2.finish());
//! ```

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher with typed, length-disciplined
/// write methods. Deterministic across platforms and builds: only the
/// byte sequence fed to it matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    h: u64,
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a { h: FNV_OFFSET }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.h ^= b as u64;
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Feeds a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` (so 32- and 64-bit builds agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a string as its length followed by its UTF-8 bytes, so
    /// `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(Fnv1a::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c (published test vector).
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn strings_are_length_disciplined() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn typed_writes_are_order_sensitive() {
        let mut a = Fnv1a::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
