//! Branch target buffer.

use pl_isa::Pc;

/// A direct-mapped branch target buffer.
///
/// Maps the PC of a control instruction to its most recent target. The
/// paper's core has 4096 entries (Table 1).
///
/// # Examples
///
/// ```
/// use pl_predictor::Btb;
/// use pl_isa::Pc;
///
/// let mut btb = Btb::new(16);
/// assert_eq!(btb.lookup(Pc(3)), None);
/// btb.insert(Pc(3), Pc(77));
/// assert_eq!(btb.lookup(Pc(3)), Some(Pc(77)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    entries: Vec<Option<(u64, Pc)>>,
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> Btb {
        assert!(
            entries.is_power_of_two(),
            "BTB entry count must be a power of two"
        );
        Btb {
            entries: vec![None; entries],
        }
    }

    fn slot(&self, pc: Pc) -> usize {
        pc.0 & (self.entries.len() - 1)
    }

    /// Returns the predicted target for the instruction at `pc`, or `None`
    /// on a miss (no entry, or tag mismatch from aliasing).
    pub fn lookup(&self, pc: Pc) -> Option<Pc> {
        match self.entries[self.slot(pc)] {
            Some((tag, target)) if tag == pc.0 as u64 => Some(target),
            _ => None,
        }
    }

    /// Installs or replaces the entry for `pc`.
    pub fn insert(&mut self, pc: Pc, target: Pc) {
        let slot = self.slot(pc);
        self.entries[slot] = Some((pc.0 as u64, target));
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Btb::new(3);
    }

    #[test]
    fn aliasing_entries_evict_each_other() {
        let mut btb = Btb::new(4);
        btb.insert(Pc(1), Pc(100));
        btb.insert(Pc(5), Pc(200)); // same slot as Pc(1) in a 4-entry BTB
        assert_eq!(btb.lookup(Pc(1)), None, "tag mismatch must miss, not alias");
        assert_eq!(btb.lookup(Pc(5)), Some(Pc(200)));
    }

    #[test]
    fn reinsert_updates_target() {
        let mut btb = Btb::new(4);
        btb.insert(Pc(2), Pc(10));
        btb.insert(Pc(2), Pc(20));
        assert_eq!(btb.lookup(Pc(2)), Some(Pc(20)));
        assert_eq!(btb.capacity(), 4);
    }
}
