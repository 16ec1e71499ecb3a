//! Loop predictor, the "L" in LTAGE.
//!
//! Detects branches with a stable trip count (taken N times, then
//! not-taken once, repeating) and overrides TAGE for them once confident.

use pl_isa::Pc;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LoopEntry {
    tag: u64,
    /// Learned trip count (iterations before the exit).
    trip: u32,
    /// Taken-count in the current traversal.
    current: u32,
    /// Confidence: number of consecutive traversals confirming `trip`.
    confidence: u8,
    valid: bool,
}

/// A loop predictor with a small direct-mapped table.
///
/// [`LoopPredictor::predict`] returns `Some(direction)` only when the entry
/// is confident; otherwise the caller should fall back to TAGE.
///
/// # Examples
///
/// ```
/// use pl_predictor::LoopPredictor;
/// use pl_isa::Pc;
///
/// let mut lp = LoopPredictor::new(16);
/// let pc = Pc(8);
/// // Train: taken 3 times then not taken, repeatedly.
/// for _ in 0..8 {
///     for _ in 0..3 { lp.update(pc, true); }
///     lp.update(pc, false);
/// }
/// assert_eq!(lp.predict(pc), Some(true));  // start of a traversal
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    confidence_threshold: u8,
}

impl LoopPredictor {
    /// Creates a loop predictor with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> LoopPredictor {
        assert!(
            entries.is_power_of_two(),
            "loop predictor size must be a power of two"
        );
        LoopPredictor {
            entries: vec![LoopEntry::default(); entries],
            confidence_threshold: 3,
        }
    }

    fn slot(&self, pc: Pc) -> usize {
        pc.0 & (self.entries.len() - 1)
    }

    /// Returns a confident loop-based prediction, or `None` to defer to
    /// TAGE.
    pub fn predict(&self, pc: Pc) -> Option<bool> {
        let e = &self.entries[self.slot(pc)];
        if !e.valid || e.tag != pc.0 as u64 || e.confidence < self.confidence_threshold {
            return None;
        }
        // Predict not-taken exactly at the learned trip count.
        Some(e.current < e.trip)
    }

    /// Trains the entry for `pc` with the resolved direction.
    pub fn update(&mut self, pc: Pc, taken: bool) {
        let slot = self.slot(pc);
        let threshold = self.confidence_threshold;
        let e = &mut self.entries[slot];
        if !e.valid || e.tag != pc.0 as u64 {
            // Allocate only when we observe a loop exit, which anchors the
            // traversal boundary.
            if !taken {
                *e = LoopEntry {
                    tag: pc.0 as u64,
                    trip: 0,
                    current: 0,
                    confidence: 0,
                    valid: true,
                };
            }
            return;
        }
        if taken {
            e.current += 1;
            // A traversal longer than the learned trip count invalidates
            // the learned count.
            if e.confidence >= threshold && e.current > e.trip {
                e.confidence = 0;
            }
        } else {
            if e.current == e.trip {
                e.confidence = e.confidence.saturating_add(1);
            } else {
                e.trip = e.current;
                e.confidence = 0;
            }
            e.current = 0;
        }
    }

    /// Compares two boundary snapshots of the same predictor one spin
    /// period apart and, if compatible, returns the per-slot `current`
    /// growth to replay per period.
    ///
    /// A slot may differ only by its in-traversal taken count, and only
    /// while the entry is *unconfident*: below the confidence threshold
    /// `predict` ignores `current` entirely and `update`'s
    /// confidence-reset branch cannot fire, so advancing `current` by an
    /// exact multiple of the observed delta reproduces what slot-by-slot
    /// training would have computed. A confident entry whose count moved
    /// is about to cross a behavior boundary, so the pair is rejected
    /// (`None`) and the caller keeps ticking normally.
    pub fn spin_delta(base: &LoopPredictor, probe: &LoopPredictor) -> Option<Vec<(usize, u32)>> {
        if base.entries.len() != probe.entries.len()
            || base.confidence_threshold != probe.confidence_threshold
        {
            return None;
        }
        let mut deltas = Vec::new();
        for (i, (b, p)) in base.entries.iter().zip(&probe.entries).enumerate() {
            if b == p {
                continue;
            }
            let compatible = b.valid
                && p.valid
                && b.tag == p.tag
                && b.trip == p.trip
                && b.confidence == p.confidence
                && b.confidence < base.confidence_threshold
                && p.current >= b.current;
            if !compatible {
                return None;
            }
            deltas.push((i, p.current - b.current));
        }
        Some(deltas)
    }

    /// Replays `k` spin periods' worth of the per-slot deltas returned by
    /// [`LoopPredictor::spin_delta`].
    ///
    /// # Panics
    ///
    /// Panics if a replayed taken count overflows `u32` (unreachable
    /// under any realistic cycle limit) or a slot index is out of range.
    pub fn spin_advance(&mut self, k: u64, deltas: &[(usize, u32)]) {
        for &(slot, d) in deltas {
            let e = &mut self.entries[slot];
            let grown = e.current as u64 + k * d as u64;
            e.current = u32::try_from(grown).expect("loop trip counter overflow");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(lp: &mut LoopPredictor, pc: Pc, trip: usize, traversals: usize) {
        for _ in 0..traversals {
            for _ in 0..trip {
                lp.update(pc, true);
            }
            lp.update(pc, false);
        }
    }

    #[test]
    fn predicts_loop_exit_after_training() {
        let mut lp = LoopPredictor::new(16);
        let pc = Pc(4);
        train(&mut lp, pc, 5, 6);
        // Entry of a fresh traversal: 5 takens then an exit.
        for i in 0..5 {
            assert_eq!(lp.predict(pc), Some(true), "iteration {i}");
            lp.update(pc, true);
        }
        assert_eq!(lp.predict(pc), Some(false), "exit iteration");
        lp.update(pc, false);
    }

    #[test]
    fn unconfident_entry_defers_to_tage() {
        let mut lp = LoopPredictor::new(16);
        let pc = Pc(2);
        lp.update(pc, false); // allocates
        lp.update(pc, true);
        assert_eq!(lp.predict(pc), None);
    }

    #[test]
    fn trip_count_change_resets_confidence() {
        let mut lp = LoopPredictor::new(16);
        let pc = Pc(1);
        train(&mut lp, pc, 4, 5);
        assert!(lp.predict(pc).is_some());
        // Switch to trip count 7: first longer traversal kills confidence.
        train(&mut lp, pc, 7, 1);
        assert_eq!(lp.predict(pc), None);
        // Retrain at the new count.
        train(&mut lp, pc, 7, 5);
        assert_eq!(lp.predict(pc), Some(true));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_size() {
        let _ = LoopPredictor::new(10);
    }

    #[test]
    fn never_taken_branch_predicts_not_taken() {
        let mut lp = LoopPredictor::new(16);
        let pc = Pc(3);
        for _ in 0..8 {
            lp.update(pc, false);
        }
        assert_eq!(lp.predict(pc), Some(false));
    }
}
