//! Miss status holding registers.
//!
//! The L1 allocates one MSHR per outstanding missing line; subsequent
//! requests for the same line merge into the existing entry. A full MSHR
//! file back-pressures the load/store unit.

use pl_base::{LineAddr, SeqNum};
use std::error::Error;
use std::fmt;

use crate::line_table::LineTable;

/// Error returned by [`MshrFile::allocate`] when all entries are in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrError;

impl fmt::Display for MshrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all MSHR entries are in use")
    }
}

impl Error for MshrError {}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct MshrEntry {
    /// Sequence numbers of loads waiting on this line.
    waiters: Vec<SeqNum>,
    /// Set when the fill for this line was issued with write intent.
    write_intent: bool,
    /// Set when the fill should be pinned on arrival (Early Pinning marks
    /// the MSHR, Section 6.1.2).
    pinned: bool,
}

/// The MSHR file of one cache.
///
/// # Examples
///
/// ```
/// use pl_base::{Addr, SeqNum};
/// use pl_mem::MshrFile;
///
/// let mut mshrs = MshrFile::new(2);
/// let line = Addr::new(0x40).line();
/// assert!(mshrs.allocate(line, SeqNum(1), false)?);      // primary miss
/// assert!(!mshrs.allocate(line, SeqNum(2), false)?);     // merged
/// let waiters = mshrs.complete(line);
/// assert_eq!(waiters, vec![SeqNum(1), SeqNum(2)]);
/// # Ok::<(), pl_mem::MshrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrFile {
    /// Outstanding misses in allocation order ([`LineTable`] keeps
    /// iteration deterministic and the storage pre-allocated at the
    /// file's capacity).
    entries: LineTable<MshrEntry>,
    capacity: usize,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            entries: LineTable::with_capacity(capacity),
            capacity,
        }
    }

    /// Registers `waiter` as missing on `line`.
    ///
    /// Returns `Ok(true)` if this is a primary miss (the caller must issue
    /// the fill request) or `Ok(false)` if it merged into an existing
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`MshrError`] if a new entry is needed but the file is
    /// full.
    pub fn allocate(
        &mut self,
        line: LineAddr,
        waiter: SeqNum,
        write_intent: bool,
    ) -> Result<bool, MshrError> {
        if let Some(e) = self.entries.get_mut(line) {
            if !e.waiters.contains(&waiter) {
                e.waiters.push(waiter);
            }
            e.write_intent |= write_intent;
            return Ok(false);
        }
        if self.entries.len() == self.capacity {
            return Err(MshrError);
        }
        self.entries.insert(
            line,
            MshrEntry {
                waiters: vec![waiter],
                write_intent,
                pinned: false,
            },
        );
        Ok(true)
    }

    /// Returns `true` if `line` has an outstanding miss.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.contains_key(line)
    }

    /// Marks the entry for `line` as pinned (Early Pinning pins the MSHR
    /// before the data arrives, Section 6.1.2).
    pub fn set_pinned(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.get_mut(line) {
            e.pinned = true;
        }
    }

    /// Returns `true` if the entry for `line` is marked pinned.
    pub fn is_pinned(&self, line: LineAddr) -> bool {
        self.entries.get(line).is_some_and(|e| e.pinned)
    }

    /// Completes the miss on `line`, freeing the entry and returning the
    /// waiting sequence numbers in arrival order. Returns an empty vector
    /// if no entry exists.
    pub fn complete(&mut self, line: LineAddr) -> Vec<SeqNum> {
        self.entries
            .remove(line)
            .map(|e| e.waiters)
            .unwrap_or_default()
    }

    /// Removes all waiters with sequence numbers `>= from` (bulk squash).
    /// Entries whose waiter list empties are retained: the fill is
    /// already in flight and still arrives, installing the line with no
    /// one to wake.
    pub fn squash_younger(&mut self, from: SeqNum) {
        for e in self.entries.values_mut() {
            e.waiters.retain(|&w| w < from);
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if no new entry can be allocated.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Iterates over the lines with outstanding misses.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.entries.keys()
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
    fn primary_and_secondary_misses() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.allocate(line(1), SeqNum(1), false), Ok(true));
        assert_eq!(m.allocate(line(1), SeqNum(2), true), Ok(false));
        assert!(m.contains(line(1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn full_file_rejects_new_lines_but_merges() {
        let mut m = MshrFile::new(1);
        m.allocate(line(1), SeqNum(1), false).unwrap();
        assert_eq!(m.allocate(line(2), SeqNum(2), false), Err(MshrError));
        assert!(m.is_full());
        // Merging into the existing line still works.
        assert_eq!(m.allocate(line(1), SeqNum(3), false), Ok(false));
    }

    #[test]
    fn complete_returns_waiters_in_order() {
        let mut m = MshrFile::new(2);
        m.allocate(line(5), SeqNum(10), false).unwrap();
        m.allocate(line(5), SeqNum(11), false).unwrap();
        m.allocate(line(5), SeqNum(11), false).unwrap(); // duplicate ignored
        assert_eq!(m.complete(line(5)), vec![SeqNum(10), SeqNum(11)]);
        assert!(m.is_empty());
        assert_eq!(m.complete(line(5)), Vec::<SeqNum>::new());
    }

    #[test]
    fn squash_removes_young_waiters_but_keeps_entry() {
        let mut m = MshrFile::new(2);
        m.allocate(line(1), SeqNum(5), false).unwrap();
        m.allocate(line(1), SeqNum(9), false).unwrap();
        m.squash_younger(SeqNum(6));
        assert_eq!(m.complete(line(1)), vec![SeqNum(5)]);
    }

    #[test]
    fn pinned_flag_round_trip() {
        let mut m = MshrFile::new(2);
        m.allocate(line(3), SeqNum(1), false).unwrap();
        assert!(!m.is_pinned(line(3)));
        m.set_pinned(line(3));
        assert!(m.is_pinned(line(3)));
        m.set_pinned(line(9)); // no entry: silently ignored
        assert!(!m.is_pinned(line(9)));
    }

    #[test]
    fn lines_iterator() {
        let mut m = MshrFile::new(4);
        m.allocate(line(1), SeqNum(1), false).unwrap();
        m.allocate(line(2), SeqNum(2), false).unwrap();
        let ls: Vec<_> = m.lines().collect();
        assert_eq!(ls, vec![line(1), line(2)]);
    }

    #[test]
    fn iteration_is_allocation_ordered_not_address_ordered() {
        // The MSHR file's iteration order feeds observable paths (debug
        // summaries, fill bookkeeping), so it must be a deterministic
        // function of the allocation sequence — never of a hash.
        let mut m = MshrFile::new(8);
        for n in [9, 2, 7, 4] {
            m.allocate(line(n), SeqNum(n), false).unwrap();
        }
        let ls: Vec<_> = m.lines().collect();
        assert_eq!(ls, vec![line(9), line(2), line(7), line(4)]);
        m.complete(line(7));
        m.allocate(line(1), SeqNum(1), false).unwrap();
        let ls: Vec<_> = m.lines().collect();
        assert_eq!(ls, vec![line(9), line(2), line(4), line(1)]);
    }
}
