//! Return address stack.

use pl_isa::Pc;

/// A fixed-capacity return address stack.
///
/// Calls push their return address; returns pop the predicted target.
/// When full, a push overwrites the oldest entry (circular behavior), as
/// hardware RASes do. The whole stack is small (16 entries in Table 1) and
/// `Clone`, so the pipeline snapshots it into every [`crate::Checkpoint`]
/// and restores it wholesale on squash — the simplest correct recovery
/// scheme.
///
/// # Examples
///
/// ```
/// use pl_predictor::Ras;
/// use pl_isa::Pc;
///
/// let mut ras = Ras::new(4);
/// ras.push(Pc(10));
/// ras.push(Pc(20));
/// assert_eq!(ras.pop(), Some(Pc(20)));
/// assert_eq!(ras.pop(), Some(Pc(10)));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ras {
    slots: Vec<Option<Pc>>,
    /// Index of the next slot to fill.
    top: usize,
    /// Number of live entries (saturates at capacity).
    depth: usize,
}

impl Ras {
    /// Creates an empty RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Ras {
        assert!(capacity > 0, "RAS capacity must be nonzero");
        Ras {
            slots: vec![None; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Returns `true` if no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Pushes a return address, overwriting the oldest entry when full.
    pub fn push(&mut self, return_to: Pc) {
        self.slots[self.top] = Some(return_to);
        self.top = (self.top + 1) % self.slots.len();
        self.depth = (self.depth + 1).min(self.slots.len());
    }

    /// Pops the most recent return address, or `None` if empty.
    pub fn pop(&mut self) -> Option<Pc> {
        if self.depth == 0 {
            return None;
        }
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.depth -= 1;
        self.slots[self.top].take()
    }

    /// Peeks at the most recent return address without popping.
    pub fn peek(&self) -> Option<Pc> {
        if self.depth == 0 {
            return None;
        }
        let idx = (self.top + self.slots.len() - 1) % self.slots.len();
        self.slots[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = Ras::new(0);
    }

    #[test]
    fn lifo_order() {
        let mut ras = Ras::new(8);
        for i in 0..5 {
            ras.push(Pc(i));
        }
        assert_eq!(ras.depth(), 5);
        for i in (0..5).rev() {
            assert_eq!(ras.pop(), Some(Pc(i)));
        }
        assert!(ras.is_empty());
    }

    #[test]
    fn overflow_wraps_and_loses_oldest() {
        let mut ras = Ras::new(2);
        ras.push(Pc(1));
        ras.push(Pc(2));
        ras.push(Pc(3)); // overwrites Pc(1)
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(Pc(3)));
        assert_eq!(ras.pop(), Some(Pc(2)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut ras = Ras::new(4);
        ras.push(Pc(9));
        assert_eq!(ras.peek(), Some(Pc(9)));
        assert_eq!(ras.depth(), 1);
        assert_eq!(ras.pop(), Some(Pc(9)));
        assert_eq!(ras.peek(), None);
    }

    #[test]
    fn clone_snapshot_restores_exactly() {
        let mut ras = Ras::new(4);
        ras.push(Pc(1));
        ras.push(Pc(2));
        let snapshot = ras.clone();
        ras.pop();
        ras.push(Pc(99));
        let restored = snapshot;
        assert_eq!(restored.peek(), Some(Pc(2)));
        assert_eq!(restored.depth(), 2);
    }
}
