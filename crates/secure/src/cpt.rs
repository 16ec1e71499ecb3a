//! The Cannot-Pin Table (Section 6.3).
//!
//! When a write is denied because a sharer pinned the line, the writer
//! retries with `GetX*`, whose `Inv*` makes every sharer insert the line
//! into its CPT — forbidding further pins of that line until the write
//! succeeds and a `Clear` removes it. If the CPT fills up, the core stops
//! pinning *all* loads until the table is half empty, which preserves
//! correctness at some performance cost (Section 6.4).

use pl_base::LineAddr;

/// A per-core Cannot-Pin Table.
///
/// # Examples
///
/// ```
/// use pl_base::Addr;
/// use pl_secure::Cpt;
///
/// let mut cpt = Cpt::new(4);
/// let line = Addr::new(0x80).line();
/// assert!(cpt.insert(line));
/// assert!(cpt.contains(line));
/// assert!(cpt.pinning_allowed());
/// cpt.remove(line);
/// assert!(!cpt.contains(line));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpt {
    lines: Vec<LineAddr>,
    capacity: Option<usize>,
    blocked: bool,
    insert_attempts: u64,
    overflows: u64,
    peak_occupancy: usize,
}

impl Cpt {
    /// Creates a CPT holding up to `capacity` line addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Cpt {
        assert!(capacity > 0, "CPT capacity must be nonzero");
        Cpt {
            lines: Vec::with_capacity(capacity),
            capacity: Some(capacity),
            blocked: false,
            insert_attempts: 0,
            overflows: 0,
            peak_occupancy: 0,
        }
    }

    /// Creates an unbounded CPT, used by the Section 9.2.2 occupancy study.
    pub fn ideal() -> Cpt {
        Cpt {
            lines: Vec::new(),
            capacity: None,
            blocked: false,
            insert_attempts: 0,
            overflows: 0,
            peak_occupancy: 0,
        }
    }

    /// Records that `line` may not be pinned (an `Inv*` arrived).
    ///
    /// Returns `false` if the table was full and the address could not be
    /// recorded, in which case the core must stop pinning loads until
    /// [`Cpt::pinning_allowed`] turns true again.
    pub fn insert(&mut self, line: LineAddr) -> bool {
        self.insert_attempts += 1;
        if self.lines.contains(&line) {
            return true;
        }
        if let Some(cap) = self.capacity {
            if self.lines.len() == cap {
                self.overflows += 1;
                self.blocked = true;
                return false;
            }
        }
        self.lines.push(line);
        self.peak_occupancy = self.peak_occupancy.max(self.lines.len());
        true
    }

    /// Removes `line` (a `Clear` arrived). Unblocks pinning once the
    /// table drains to half capacity. Returns `true` if the line was
    /// present (a `Clear` for a line the CPT never recorded — e.g. after
    /// an overflow — is legal and returns `false`).
    pub fn remove(&mut self, line: LineAddr) -> bool {
        let before = self.lines.len();
        self.lines.retain(|&l| l != line);
        if self.blocked {
            if let Some(cap) = self.capacity {
                if self.lines.len() <= cap / 2 {
                    self.blocked = false;
                }
            }
        }
        self.lines.len() != before
    }

    /// Returns `true` if `line` is currently un-pinnable.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains(&line)
    }

    /// Returns `false` while the core must refrain from pinning any load
    /// because the CPT overflowed.
    pub fn pinning_allowed(&self) -> bool {
        !self.blocked
    }

    /// Current number of recorded lines.
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }

    /// Table capacity, or `None` for the ideal (unbounded) CPT.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Highest occupancy ever observed (Section 9.2.2 reports 4–7 for an
    /// ideal CPT).
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total insert attempts, the denominator of the overflow rate.
    pub fn insert_attempts(&self) -> u64 {
        self.insert_attempts
    }

    /// Number of failed inserts.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::Addr;

    fn line(n: u64) -> LineAddr {
        Addr::new(n * 64).line()
    }

    #[test]
    fn insert_remove_contains() {
        let mut cpt = Cpt::new(4);
        assert!(cpt.insert(line(1)));
        assert!(cpt.contains(line(1)));
        assert!(!cpt.contains(line(2)));
        cpt.remove(line(1));
        assert!(!cpt.contains(line(1)));
        assert_eq!(cpt.insert_attempts(), 1);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut cpt = Cpt::new(2);
        assert!(cpt.insert(line(1)));
        assert!(cpt.insert(line(1)));
        assert_eq!(cpt.occupancy(), 1);
    }

    #[test]
    fn overflow_blocks_until_half_empty() {
        let mut cpt = Cpt::new(4);
        for i in 0..4 {
            assert!(cpt.insert(line(i)));
        }
        assert!(!cpt.insert(line(9)));
        assert!(!cpt.pinning_allowed());
        assert_eq!(cpt.overflows(), 1);
        cpt.remove(line(0));
        assert!(!cpt.pinning_allowed(), "3 > 4/2, still blocked");
        cpt.remove(line(1));
        assert!(cpt.pinning_allowed(), "2 <= 4/2, unblocked");
    }

    #[test]
    fn ideal_cpt_never_overflows() {
        let mut cpt = Cpt::ideal();
        for i in 0..1000 {
            assert!(cpt.insert(line(i)));
        }
        assert!(cpt.pinning_allowed());
        assert_eq!(cpt.peak_occupancy(), 1000);
        assert_eq!(cpt.overflows(), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut cpt = Cpt::new(4);
        cpt.insert(line(1));
        cpt.insert(line(2));
        cpt.remove(line(1));
        cpt.insert(line(3));
        assert_eq!(cpt.peak_occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = Cpt::new(0);
    }
}
