//! Taint tracking for Speculative Taint Tracking (STT).
//!
//! STT marks the result of every load that executes before its Visibility
//! Point as *tainted*, propagates taint through dependent instructions,
//! and blocks loads whose address operands are tainted. When the source
//! load reaches its VP, its taint — and transitively its dependents' —
//! clears, which is exactly the lever Pinned Loads accelerates.
//!
//! The tracker is a set of tainted producers keyed by [`SeqNum`]; the
//! pipeline recomputes derived taints in program order each cycle, which
//! is correct because sources are always older than consumers.

use pl_base::SeqNum;
use std::collections::HashSet;

/// Tracks which in-flight instructions produce tainted values.
///
/// # Examples
///
/// ```
/// use pl_base::SeqNum;
/// use pl_secure::TaintTracker;
///
/// let mut t = TaintTracker::new();
/// t.mark(SeqNum(1));                       // a pre-VP load's result
/// assert!(t.is_tainted(SeqNum(1)));
/// assert!(t.any_tainted([SeqNum(1), SeqNum(2)]));
/// t.clear(SeqNum(1));                      // the load reached its VP
/// assert!(!t.is_tainted(SeqNum(1)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaintTracker {
    tainted: HashSet<SeqNum>,
}

impl TaintTracker {
    /// Creates an empty tracker.
    pub fn new() -> TaintTracker {
        TaintTracker::default()
    }

    /// Marks the value produced by `producer` as tainted.
    pub fn mark(&mut self, producer: SeqNum) {
        self.tainted.insert(producer);
    }

    /// Clears the taint on `producer` (it reached its VP, or it squashed).
    pub fn clear(&mut self, producer: SeqNum) {
        self.tainted.remove(&producer);
    }

    /// Returns `true` if `producer`'s value is currently tainted.
    pub fn is_tainted(&self, producer: SeqNum) -> bool {
        self.tainted.contains(&producer)
    }

    /// Returns `true` if any of `producers` is tainted — the check applied
    /// to a consumer's source operands.
    pub fn any_tainted<I: IntoIterator<Item = SeqNum>>(&self, producers: I) -> bool {
        producers.into_iter().any(|p| self.tainted.contains(&p))
    }

    /// Derives a consumer's taint from its sources and records it.
    /// Returns the derived taint.
    pub fn derive<I: IntoIterator<Item = SeqNum>>(&mut self, consumer: SeqNum, sources: I) -> bool {
        self.derive_changed(consumer, sources).0
    }

    /// Like [`TaintTracker::derive`], but also reports whether the
    /// tracked set actually changed — the pipeline's idle-cycle detection
    /// treats an unchanged recomputation as inactivity.
    pub fn derive_changed<I: IntoIterator<Item = SeqNum>>(
        &mut self,
        consumer: SeqNum,
        sources: I,
    ) -> (bool, bool) {
        let t = self.any_tainted(sources);
        let changed = if t {
            self.tainted.insert(consumer)
        } else {
            self.tainted.remove(&consumer)
        };
        (t, changed)
    }

    /// Removes all taints with sequence numbers `>= from` (a squash).
    pub fn squash_younger(&mut self, from: SeqNum) {
        self.tainted.retain(|&s| s < from);
    }

    /// Number of currently tainted producers.
    pub fn len(&self) -> usize {
        self.tainted.len()
    }

    /// Returns `true` if nothing is tainted.
    pub fn is_empty(&self) -> bool {
        self.tainted.is_empty()
    }

    /// Shifts every tainted sequence number forward by `dseq` — the
    /// spin-parking replay's uniform renumbering of the in-flight window.
    pub fn spin_shift(&mut self, dseq: u64) {
        if dseq == 0 || self.tainted.is_empty() {
            return;
        }
        self.tainted = self.tainted.iter().map(|s| SeqNum(s.0 + dseq)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_clear_roundtrip() {
        let mut t = TaintTracker::new();
        assert!(t.is_empty());
        t.mark(SeqNum(5));
        assert!(t.is_tainted(SeqNum(5)));
        assert_eq!(t.len(), 1);
        t.clear(SeqNum(5));
        assert!(t.is_empty());
    }

    #[test]
    fn derive_propagates_and_unpropagates() {
        let mut t = TaintTracker::new();
        t.mark(SeqNum(1));
        assert!(t.derive(SeqNum(2), [SeqNum(1)]));
        assert!(t.derive(SeqNum(3), [SeqNum(2)]));
        assert!(t.is_tainted(SeqNum(3)));
        // Source reaches VP: recomputing in order clears the chain.
        t.clear(SeqNum(1));
        assert!(!t.derive(SeqNum(2), [SeqNum(1)]));
        assert!(!t.derive(SeqNum(3), [SeqNum(2)]));
        assert!(t.is_empty());
    }

    #[test]
    fn any_tainted_over_multiple_sources() {
        let mut t = TaintTracker::new();
        t.mark(SeqNum(7));
        assert!(t.any_tainted([SeqNum(6), SeqNum(7)]));
        assert!(!t.any_tainted([SeqNum(6)]));
        assert!(!t.any_tainted(std::iter::empty()));
    }

    #[test]
    fn squash_drops_young_taints() {
        let mut t = TaintTracker::new();
        t.mark(SeqNum(3));
        t.mark(SeqNum(8));
        t.squash_younger(SeqNum(5));
        assert!(t.is_tainted(SeqNum(3)));
        assert!(!t.is_tainted(SeqNum(8)));
    }

    #[test]
    fn derive_untainted_clears_previous_taint() {
        let mut t = TaintTracker::new();
        t.mark(SeqNum(2));
        t.derive(SeqNum(4), [SeqNum(2)]);
        t.clear(SeqNum(2));
        // Re-derivation with clean sources must remove the stale taint.
        assert!(!t.derive(SeqNum(4), [SeqNum(2)]));
        assert!(!t.is_tainted(SeqNum(4)));
    }
}
