//! A TAGE direction predictor.
//!
//! TAGE (TAgged GEometric history length) predicts with the longest-history
//! tagged component that matches, falling back to a bimodal base table.
//! This implementation follows the structure of Seznec's TAGE: four tagged
//! tables with geometrically increasing history lengths, 3-bit signed
//! counters, 2-bit usefulness counters, and allocate-on-mispredict with
//! usefulness-based victim selection.

use pl_isa::Pc;

/// Outcome of a TAGE lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Index of the providing tagged table, or `None` if the bimodal base
    /// provided the prediction.
    pub provider: Option<usize>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TaggedEntry {
    tag: u16,
    /// Signed 3-bit counter in [-4, 3]; >= 0 predicts taken.
    ctr: i8,
    /// 2-bit usefulness counter.
    useful: u8,
    valid: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TaggedTable {
    entries: Vec<TaggedEntry>,
    hist_len: u32,
    tag_bits: u32,
    index_bits: u32,
}

impl TaggedTable {
    fn new(index_bits: u32, tag_bits: u32, hist_len: u32) -> TaggedTable {
        TaggedTable {
            entries: vec![TaggedEntry::default(); 1 << index_bits],
            hist_len,
            tag_bits,
            index_bits,
        }
    }

    /// Folds the low `hist_len` bits of the history into `bits` bits.
    fn fold(mut hist: u64, hist_len: u32, bits: u32) -> u64 {
        let mask = if hist_len >= 64 {
            u64::MAX
        } else {
            (1u64 << hist_len) - 1
        };
        hist &= mask;
        let mut folded = 0u64;
        while hist != 0 {
            folded ^= hist & ((1u64 << bits) - 1);
            hist >>= bits;
        }
        folded
    }

    fn index(&self, pc: Pc, ghr: u64) -> usize {
        let h = Self::fold(ghr, self.hist_len, self.index_bits);
        let pc_bits = (pc.0 as u64) ^ ((pc.0 as u64) >> self.index_bits);
        ((h ^ pc_bits) & ((1u64 << self.index_bits) - 1)) as usize
    }

    fn tag(&self, pc: Pc, ghr: u64) -> u16 {
        let h = Self::fold(ghr, self.hist_len, self.tag_bits);
        let h2 = Self::fold(ghr, self.hist_len, self.tag_bits.saturating_sub(1).max(1));
        (((pc.0 as u64) ^ h ^ (h2 << 1)) & ((1u64 << self.tag_bits) - 1)) as u16
    }
}

/// The TAGE predictor: a bimodal base plus tagged geometric tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tage {
    /// 2-bit saturating counters; >= 2 predicts taken.
    bimodal: Vec<u8>,
    tables: Vec<TaggedTable>,
    /// Per-lookup bookkeeping is recomputed in `update` from the stored
    /// pre-branch history, so no state is carried between calls.
    alloc_seed: u64,
}

impl Tage {
    /// Creates a TAGE with the default geometry: a 4096-entry bimodal base
    /// and four 1024-entry tagged tables with history lengths 8/16/32/64.
    pub fn default_tables() -> Tage {
        Tage {
            bimodal: vec![2; 4096],
            tables: vec![
                TaggedTable::new(10, 9, 8),
                TaggedTable::new(10, 9, 16),
                TaggedTable::new(10, 10, 32),
                TaggedTable::new(10, 10, 64),
            ],
            alloc_seed: 0x9e3779b97f4a7c15,
        }
    }

    fn bimodal_index(&self, pc: Pc) -> usize {
        pc.0 & (self.bimodal.len() - 1)
    }

    /// Looks up a prediction for the branch at `pc` under global history
    /// `ghr`.
    pub fn predict(&self, pc: Pc, ghr: u64) -> TagePrediction {
        // Longest-history matching component wins.
        for (i, table) in self.tables.iter().enumerate().rev() {
            let e = &table.entries[table.index(pc, ghr)];
            if e.valid && e.tag == table.tag(pc, ghr) {
                return TagePrediction {
                    taken: e.ctr >= 0,
                    provider: Some(i),
                };
            }
        }
        TagePrediction {
            taken: self.bimodal[self.bimodal_index(pc)] >= 2,
            provider: None,
        }
    }

    /// Trains the predictor with the resolved outcome.
    ///
    /// `ghr` must be the global history *at prediction time* (before the
    /// branch's own outcome was shifted in), and `predicted` the direction
    /// the predictor returned, so that misprediction-driven allocation
    /// matches the lookup that produced the prediction.
    pub fn update(&mut self, pc: Pc, ghr: u64, taken: bool, predicted: bool) {
        // Find the provider again.
        let mut provider: Option<usize> = None;
        for (i, table) in self.tables.iter().enumerate().rev() {
            let idx = table.index(pc, ghr);
            let e = &table.entries[idx];
            if e.valid && e.tag == table.tag(pc, ghr) {
                provider = Some(i);
                break;
            }
        }

        match provider {
            Some(i) => {
                let idx = self.tables[i].index(pc, ghr);
                let e = &mut self.tables[i].entries[idx];
                e.ctr = if taken {
                    (e.ctr + 1).min(3)
                } else {
                    (e.ctr - 1).max(-4)
                };
                let correct = predicted == taken;
                if correct {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
            None => {
                let idx = self.bimodal_index(pc);
                let c = &mut self.bimodal[idx];
                *c = if taken {
                    (*c + 1).min(3)
                } else {
                    c.saturating_sub(1)
                };
            }
        }

        // On a misprediction, try to allocate in a longer-history table.
        if predicted != taken {
            let start = provider.map_or(0, |p| p + 1);
            self.allocate(pc, ghr, taken, start);
        }
    }

    fn allocate(&mut self, pc: Pc, ghr: u64, taken: bool, start: usize) {
        if start >= self.tables.len() {
            return;
        }
        // Cheap deterministic pseudo-randomness for victim choice among
        // candidate tables, as real TAGE uses an LFSR.
        self.alloc_seed = self
            .alloc_seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        let preferred = start + (self.alloc_seed >> 60) as usize % (self.tables.len() - start);

        // Try preferred first, then every longer table in order; steal only
        // entries whose usefulness is zero, decaying usefulness otherwise.
        let order: Vec<usize> = std::iter::once(preferred)
            .chain(start..self.tables.len())
            .collect();
        for i in order {
            let idx = self.tables[i].index(pc, ghr);
            let tag = self.tables[i].tag(pc, ghr);
            let e = &mut self.tables[i].entries[idx];
            if !e.valid || e.useful == 0 {
                *e = TaggedEntry {
                    tag,
                    ctr: if taken { 0 } else { -1 },
                    useful: 0,
                    valid: true,
                };
                return;
            }
            e.useful -= 1;
        }
    }
}

impl Default for Tage {
    fn default() -> Tage {
        Tage::default_tables()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_bias_without_history() {
        let mut t = Tage::default_tables();
        let pc = Pc(7);
        for _ in 0..8 {
            let p = t.predict(pc, 0);
            t.update(pc, 0, false, p.taken);
        }
        assert!(!t.predict(pc, 0).taken);
    }

    #[test]
    fn tagged_table_allocated_on_mispredict() {
        let mut t = Tage::default_tables();
        let pc = Pc(33);
        // Outcome depends on history bit 0: correlated pattern that
        // bimodal alone cannot learn.
        let mut provided = false;
        for i in 0..500u64 {
            let ghr = i & 0xff;
            let taken = ghr & 1 == 1;
            let p = t.predict(pc, ghr);
            if p.provider.is_some() {
                provided = true;
            }
            t.update(pc, ghr, taken, p.taken);
        }
        assert!(provided, "tagged tables never provided a prediction");
        // After training, history-dependent predictions should be right.
        let p1 = t.predict(pc, 0b1);
        let p0 = t.predict(pc, 0b0);
        assert!(p1.taken);
        assert!(!p0.taken);
    }

    #[test]
    fn fold_handles_full_and_zero_lengths() {
        assert_eq!(TaggedTable::fold(0, 64, 10), 0);
        let f = TaggedTable::fold(u64::MAX, 64, 10);
        assert!(f < (1 << 10));
        assert_eq!(TaggedTable::fold(0b1010, 4, 2), 0b10 ^ 0b10);
    }

    #[test]
    fn different_histories_map_to_different_entries_usually() {
        let t = TaggedTable::new(10, 9, 16);
        let a = t.index(Pc(5), 0x1234);
        let b = t.index(Pc(5), 0x4321);
        // Not guaranteed distinct, but for these values they are.
        assert_ne!(a, b);
    }

    #[test]
    fn update_is_safe_for_never_predicted_pc() {
        let mut t = Tage::default_tables();
        t.update(Pc(9999), 0xabcdef, true, false);
    }
}
