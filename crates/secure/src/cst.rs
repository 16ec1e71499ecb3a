//! The Cache Shadow Table (Section 6.2).
//!
//! Early Pinning must guarantee, *before issuing a load*, that the line it
//! will pin has space in the L1 and in the directory/LLC, given all the
//! already-pinned lines. Each core keeps two CSTs — one shadowing the L1,
//! one shadowing the directory/LLC — each a small hash table of entries
//! with `M` records. A record holds a hash of the line address, the
//! (long) LQ ID of the youngest pinned load reading the line, and a valid
//! bit.
//!
//! Finite CSTs can produce *false positives* — denying a pin although real
//! capacity exists — from entry aliasing (two `{set, slice}` pairs hashing
//! to the same entry, which safely underestimates capacity) and from
//! line-hash collisions (detected through the LQ ID as the paper
//! describes, and also treated as "no space"). Section 9.2.1 measures
//! both; [`Cst::ideal`] provides the reference with neither.

use pl_base::LineAddr;

/// Result of a pin attempt against one CST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CstOutcome {
    /// The line is already pinned by an older load; the record's LQ ID was
    /// advanced to the new youngest pinned load. No extra capacity used.
    AlreadyPinned,
    /// A fresh record was created; one unit of capacity consumed.
    NewRecord,
    /// The entry has no room for another record.
    NoSpace,
    /// A different line's hash matched the record (detected via the LQ
    /// ID); treated exactly like [`CstOutcome::NoSpace`] (Section 6.2).
    HashCollision,
}

impl CstOutcome {
    /// Returns `true` if the pin may proceed.
    pub fn allowed(self) -> bool {
        matches!(self, CstOutcome::AlreadyPinned | CstOutcome::NewRecord)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    line_hash: u64,
    lq_id: u64,
}

/// Number of line-address hash bits stored per record (with the 24-bit LQ
/// ID and the valid bit this reproduces the paper's 37-bit record and its
/// 444-byte / 370-byte CST sizes, Section 9.2.4).
pub const RECORD_HASH_BITS: u32 = 12;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Table {
    /// `entry = hash(key) % n`, at most `m` records per entry.
    Finite(Vec<Vec<Record>>),
    /// One logical entry per exact key, at most `m` records per entry —
    /// no aliasing, no hash collisions.
    Ideal(std::collections::HashMap<u64, Vec<Record>>),
}

/// One Cache Shadow Table.
///
/// Keys are opaque `u64`s identifying a `{set}` (L1 CST) or `{set, slice}`
/// (directory/LLC CST); the caller derives them from the cache geometry.
///
/// # Examples
///
/// ```
/// use pl_base::Addr;
/// use pl_secure::{Cst, CstOutcome};
///
/// let mut cst = Cst::finite(40, 2);
/// let line = Addr::new(0x40).line();
/// // `live` maps an LQ ID to the line its (still-allocated) load reads.
/// let live = |_id: u64| -> Option<pl_base::LineAddr> { None };
/// assert_eq!(cst.try_pin(7, line, 100, &live), CstOutcome::NewRecord);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cst {
    table: Table,
    records_per_entry: usize,
}

impl Cst {
    /// Creates a finite CST with `entries` hash-table entries of
    /// `records_per_entry` records each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn finite(entries: usize, records_per_entry: usize) -> Cst {
        assert!(
            entries > 0 && records_per_entry > 0,
            "CST dimensions must be nonzero"
        );
        Cst {
            table: Table::Finite(vec![Vec::new(); entries]),
            records_per_entry,
        }
    }

    /// Creates an ideal (infinitely large, collision-free) CST that still
    /// enforces the per-key record limit — the Section 9.2.1 reference.
    ///
    /// # Panics
    ///
    /// Panics if `records_per_entry` is zero.
    pub fn ideal(records_per_entry: usize) -> Cst {
        assert!(records_per_entry > 0, "CST record limit must be nonzero");
        Cst {
            table: Table::Ideal(std::collections::HashMap::new()),
            records_per_entry,
        }
    }

    fn line_hash(line: LineAddr) -> u64 {
        line.hash64() & ((1 << RECORD_HASH_BITS) - 1)
    }

    fn key_hash(key: u64) -> u64 {
        LineAddr::from_line_number(key ^ 0x5bd1_e995).hash64()
    }

    /// Attempts to account for pinning `line` (which maps to `key`) by the
    /// load with `lq_id`.
    ///
    /// `live` resolves an LQ ID to the line read by that still-allocated
    /// load, or `None` if the slot is no longer in use; it drives the lazy
    /// expunging of stale records and the hash-collision check of
    /// Section 6.2.
    pub fn try_pin<F>(&mut self, key: u64, line: LineAddr, lq_id: u64, live: &F) -> CstOutcome
    where
        F: Fn(u64) -> Option<LineAddr>,
    {
        let m = self.records_per_entry;
        let entry = self.entry_mut(key);
        // Lazily expunge records whose LQ ID no longer points at a live
        // load.
        entry.retain(|r| live(r.lq_id).is_some());

        let h = Self::line_hash(line);
        if let Some(r) = entry.iter_mut().find(|r| r.line_hash == h) {
            // Confirm via the LQ ID that the record really is our line.
            return if live(r.lq_id) == Some(line) {
                r.lq_id = lq_id;
                CstOutcome::AlreadyPinned
            } else {
                CstOutcome::HashCollision
            };
        }
        if entry.len() < m {
            entry.push(Record {
                line_hash: h,
                lq_id,
            });
            CstOutcome::NewRecord
        } else {
            CstOutcome::NoSpace
        }
    }

    /// Number of live records currently charged to `key` (after lazy
    /// cleanup at the next `try_pin`; this accessor does not clean).
    pub fn records_for(&self, key: u64) -> usize {
        match &self.table {
            Table::Finite(entries) => {
                entries[(Self::key_hash(key) % entries.len() as u64) as usize].len()
            }
            Table::Ideal(map) => map.get(&key).map_or(0, Vec::len),
        }
    }

    /// Clears every record (used on LQ-ID wraparound, Section 6.2).
    pub fn clear(&mut self) {
        match &mut self.table {
            Table::Finite(entries) => entries.iter_mut().for_each(Vec::clear),
            Table::Ideal(map) => map.clear(),
        }
    }

    /// The per-entry record limit.
    pub fn records_per_entry(&self) -> usize {
        self.records_per_entry
    }

    /// Total records currently stored across all entries (including
    /// stale records not yet lazily expunged).
    pub fn total_records(&self) -> usize {
        match &self.table {
            Table::Finite(entries) => entries.iter().map(Vec::len).sum(),
            Table::Ideal(map) => map.values().map(Vec::len).sum(),
        }
    }

    /// Total record capacity, or `None` for the ideal (unbounded) table.
    pub fn capacity(&self) -> Option<usize> {
        match &self.table {
            Table::Finite(entries) => Some(entries.len() * self.records_per_entry),
            Table::Ideal(_) => None,
        }
    }

    fn entry_mut(&mut self, key: u64) -> &mut Vec<Record> {
        match &mut self.table {
            Table::Finite(entries) => {
                let idx = (Self::key_hash(key) % entries.len() as u64) as usize;
                &mut entries[idx]
            }
            Table::Ideal(map) => map.entry(key).or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::Addr;
    use std::cell::RefCell;
    use std::collections::HashMap;

    fn line(n: u64) -> LineAddr {
        Addr::new(n * 64).line()
    }

    /// A mutable map standing in for the LQ.
    struct FakeLq(RefCell<HashMap<u64, LineAddr>>);

    impl FakeLq {
        fn new() -> FakeLq {
            FakeLq(RefCell::new(HashMap::new()))
        }
        fn set(&self, id: u64, l: LineAddr) {
            self.0.borrow_mut().insert(id, l);
        }
        fn unset(&self, id: u64) {
            self.0.borrow_mut().remove(&id);
        }
        fn live(&self) -> impl Fn(u64) -> Option<LineAddr> + '_ {
            move |id| self.0.borrow().get(&id).copied()
        }
    }

    #[test]
    fn new_record_then_already_pinned() {
        let lq = FakeLq::new();
        let mut cst = Cst::finite(8, 2);
        lq.set(1, line(5));
        assert_eq!(
            cst.try_pin(3, line(5), 1, &lq.live()),
            CstOutcome::NewRecord
        );
        lq.set(2, line(5));
        assert_eq!(
            cst.try_pin(3, line(5), 2, &lq.live()),
            CstOutcome::AlreadyPinned
        );
        assert_eq!(cst.records_for(3), 1);
    }

    #[test]
    fn no_space_when_entry_full() {
        let lq = FakeLq::new();
        let mut cst = Cst::finite(8, 2);
        lq.set(1, line(1));
        lq.set(2, line(2));
        lq.set(3, line(3));
        assert!(cst.try_pin(4, line(1), 1, &lq.live()).allowed());
        assert!(cst.try_pin(4, line(2), 2, &lq.live()).allowed());
        assert_eq!(cst.try_pin(4, line(3), 3, &lq.live()), CstOutcome::NoSpace);
    }

    #[test]
    fn stale_records_are_expunged_lazily() {
        let lq = FakeLq::new();
        let mut cst = Cst::finite(8, 1);
        lq.set(1, line(1));
        assert!(cst.try_pin(4, line(1), 1, &lq.live()).allowed());
        // Load 1 retires: its LQ slot is reused or freed.
        lq.unset(1);
        lq.set(2, line(2));
        assert_eq!(
            cst.try_pin(4, line(2), 2, &lq.live()),
            CstOutcome::NewRecord
        );
    }

    #[test]
    fn hash_collision_detected_through_lq() {
        let lq = FakeLq::new();
        let mut cst = Cst::finite(8, 4);
        // Find two lines with equal RECORD_HASH_BITS-bit hashes.
        let base = line(1);
        let target = Cst::line_hash(base);
        let collider = (2..100_000)
            .map(line)
            .find(|&l| Cst::line_hash(l) == target && l != base)
            .expect("a 12-bit hash collides within 100k lines");
        lq.set(1, base);
        assert!(cst.try_pin(0, base, 1, &lq.live()).allowed());
        lq.set(2, collider);
        assert_eq!(
            cst.try_pin(0, collider, 2, &lq.live()),
            CstOutcome::HashCollision
        );
    }

    #[test]
    fn ideal_cst_has_no_entry_aliasing() {
        let lq = FakeLq::new();
        let mut finite = Cst::finite(1, 1); // every key aliases
        let mut ideal = Cst::ideal(1);
        lq.set(1, line(1));
        lq.set(2, line(2));
        assert!(finite.try_pin(10, line(1), 1, &lq.live()).allowed());
        assert_eq!(
            finite.try_pin(11, line(2), 2, &lq.live()),
            CstOutcome::NoSpace
        );
        assert!(ideal.try_pin(10, line(1), 1, &lq.live()).allowed());
        assert!(ideal.try_pin(11, line(2), 2, &lq.live()).allowed());
    }

    #[test]
    fn clear_resets_everything() {
        let lq = FakeLq::new();
        let mut cst = Cst::finite(4, 1);
        lq.set(1, line(1));
        assert!(cst.try_pin(0, line(1), 1, &lq.live()).allowed());
        cst.clear();
        assert_eq!(cst.records_for(0), 0);
        lq.set(2, line(2));
        assert!(cst.try_pin(0, line(2), 2, &lq.live()).allowed());
    }

    #[test]
    fn outcome_allowed_classification() {
        assert!(CstOutcome::AlreadyPinned.allowed());
        assert!(CstOutcome::NewRecord.allowed());
        assert!(!CstOutcome::NoSpace.allowed());
        assert!(!CstOutcome::HashCollision.allowed());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimensions_panic() {
        let _ = Cst::finite(0, 2);
    }
}
