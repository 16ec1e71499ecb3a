//! Physical addresses and cache-line addresses.
//!
//! The simulator models a flat physical address space. Cache lines are 64
//! bytes, matching Table 1 of the paper. [`Addr`] is a byte address and
//! [`LineAddr`] is the address shifted right by [`LINE_SHIFT`]; keeping the
//! two as distinct newtypes prevents the classic bug of indexing a cache
//! with a byte address.

/// Number of bytes in a cache line (Table 1: "64 B line").
pub const LINE_BYTES: u64 = 64;

/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// A byte-granularity physical address.
///
/// # Examples
///
/// ```
/// use pl_base::Addr;
/// let a = Addr::new(0x1234);
/// assert_eq!(a.raw(), 0x1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte address.
    pub fn new(raw: u64) -> Addr {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::Addr;
    /// assert_eq!(Addr::new(64).line(), Addr::new(127).line());
    /// assert_ne!(Addr::new(63).line(), Addr::new(64).line());
    /// ```
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::Addr;
    /// assert_eq!(Addr::new(8).offset(8), Addr::new(16));
    /// ```
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }

    /// Returns `true` if this address is aligned to `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn is_aligned(self, align: u64) -> bool {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.0 & (align - 1) == 0
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Addr {
        Addr(raw)
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line-granularity address (a byte address shifted right by
/// [`LINE_SHIFT`]).
///
/// All coherence-protocol traffic, directory state, pinned-line records,
/// and cache tags operate on `LineAddr`.
///
/// # Examples
///
/// ```
/// use pl_base::{Addr, LineAddr};
/// let l = Addr::new(0x1040).line();
/// assert_eq!(l.base(), Addr::new(0x1040));
/// assert_eq!(l.index_bits(6), (0x1040u64 >> 6) & 0x3f);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number (byte address divided
    /// by the line size).
    pub fn from_line_number(n: u64) -> LineAddr {
        LineAddr(n)
    }

    /// Returns the raw line number.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of the line.
    pub fn base(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// Extracts the low `bits` bits of the line number, used as a set index
    /// by caches with `2^bits` sets.
    pub fn index_bits(self, bits: u32) -> u64 {
        if bits == 0 {
            0
        } else {
            self.0 & ((1u64 << bits) - 1)
        }
    }

    /// Returns the tag remaining after removing `bits` index bits.
    pub fn tag_bits(self, bits: u32) -> u64 {
        self.0 >> bits
    }

    /// A cheap, well-mixing 64-bit hash of the line number.
    ///
    /// Used by the Cache Shadow Table (Section 6.2) which stores hashes of
    /// line addresses rather than full addresses, and by the LLC slice
    /// selector. The mixer is the finalizer of SplitMix64.
    pub fn hash64(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl From<Addr> for LineAddr {
    fn from(a: Addr) -> LineAddr {
        a.line()
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_mapping() {
        assert_eq!(Addr::new(0).line(), LineAddr::from_line_number(0));
        assert_eq!(Addr::new(63).line(), LineAddr::from_line_number(0));
        assert_eq!(Addr::new(64).line(), LineAddr::from_line_number(1));
        assert_eq!(Addr::new(0x1040).line().base(), Addr::new(0x1040));
    }

    #[test]
    fn addr_offset_wraps() {
        assert_eq!(Addr::new(u64::MAX).offset(1), Addr::new(0));
    }

    #[test]
    fn addr_alignment() {
        assert!(Addr::new(64).is_aligned(64));
        assert!(!Addr::new(65).is_aligned(64));
        assert!(Addr::new(0).is_aligned(8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn addr_alignment_rejects_non_power_of_two() {
        let _ = Addr::new(0).is_aligned(3);
    }

    #[test]
    fn line_index_and_tag_partition_the_address() {
        let l = LineAddr::from_line_number(0xdead_beef);
        for bits in [0u32, 4, 6, 10] {
            let rebuilt = (l.tag_bits(bits) << bits) | l.index_bits(bits);
            assert_eq!(rebuilt, l.raw());
        }
    }

    #[test]
    fn line_hash_differs_for_adjacent_lines() {
        let a = LineAddr::from_line_number(100).hash64();
        let b = LineAddr::from_line_number(101).hash64();
        assert_ne!(a, b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(LineAddr::from_line_number(2).to_string(), "line 0x2");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
    }
}
