//! A set-associative cache with LRU replacement and deniable evictions.

use pl_base::{CacheConfig, LineAddr};
use pl_trace::{EventKind, TraceSource, Tracer};
use std::error::Error;
use std::fmt;

/// MESI coherence state of a line in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mesi {
    /// Not present / invalid.
    #[default]
    Invalid,
    /// Read-only, possibly shared with other caches.
    Shared,
    /// Read-write permission, clean, no other copies.
    Exclusive,
    /// Read-write permission, dirty, no other copies.
    Modified,
}

impl Mesi {
    /// Returns `true` if the line may be read.
    pub fn readable(self) -> bool {
        self != Mesi::Invalid
    }

    /// Returns `true` if the line may be written without a coherence
    /// transaction.
    pub fn writable(self) -> bool {
        matches!(self, Mesi::Exclusive | Mesi::Modified)
    }
}

impl fmt::Display for Mesi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mesi::Invalid => "I",
            Mesi::Shared => "S",
            Mesi::Exclusive => "E",
            Mesi::Modified => "M",
        };
        f.write_str(s)
    }
}

/// Error returned by [`Cache::insert`] when every candidate victim in the
/// set was vetoed by the caller's `evictable` predicate (for example,
/// because every line is pinned).
///
/// The paper's hardware handles this by retrying the fill after pinned
/// loads retire (Section 5.1.3); callers should do the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionDenied;

impl fmt::Display for EvictionDenied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "every victim candidate in the set is unevictable")
    }
}

impl Error for EvictionDenied {}

#[derive(Debug, Clone)]
struct Way<T> {
    line: LineAddr,
    meta: T,
    /// Higher = more recently used.
    lru: u64,
    valid: bool,
}

/// A set-associative cache indexed by [`LineAddr`], carrying per-line
/// metadata `T` (coherence state for an L1, directory state for an LLC).
///
/// Replacement is true LRU. [`Cache::insert`] takes an `evictable`
/// predicate so callers can veto victims — the mechanism behind the
/// paper's "the eviction is denied ... and then selects a new victim from
/// the same cache set" (Section 5.1.3).
///
/// # Examples
///
/// ```
/// use pl_base::{Addr, CacheConfig};
/// use pl_mem::{Cache, Mesi};
///
/// let cfg = CacheConfig { size_bytes: 4096, ways: 2, hit_latency: 2, mshr_entries: 4 };
/// let mut c: Cache<Mesi> = Cache::new(&cfg);
/// let line = Addr::new(0x40).line();
/// assert!(c.get(line).is_none());
/// c.insert(line, Mesi::Shared, |_, _| true).unwrap();
/// assert_eq!(c.get(line), Some(&Mesi::Shared));
/// ```
#[derive(Debug, Clone)]
pub struct Cache<T> {
    sets: Vec<Vec<Way<T>>>,
    index_bits: u32,
    ways: usize,
    tick: u64,
    tracer: Tracer,
}

impl<T> Cache<T> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies a non-power-of-two set count;
    /// validate the [`CacheConfig`] via `MachineConfig::validate` first.
    pub fn new(cfg: &CacheConfig) -> Cache<T> {
        let sets = cfg.num_sets();
        assert!(
            sets.is_power_of_two() && sets > 0,
            "set count must be a power of two"
        );
        Cache {
            sets: (0..sets).map(|_| Vec::with_capacity(cfg.ways)).collect(),
            index_bits: sets.trailing_zeros(),
            ways: cfg.ways,
            tick: 0,
            tracer: Tracer::disabled(TraceSource::CoreL1(0)),
        }
    }

    /// Switches on event tracing for this cache, identified as `source`,
    /// with a ring buffer of `capacity` events.
    pub fn enable_trace(&mut self, source: TraceSource, capacity: usize) {
        self.tracer = Tracer::new(source, capacity);
    }

    /// This cache's tracer (disabled unless [`Cache::enable_trace`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer, used by the owner to stamp the
    /// current cycle each tick.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The set index `line` maps to.
    pub fn set_index(&self, line: LineAddr) -> usize {
        line.index_bits(self.index_bits) as usize
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `line` without updating recency.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let set = &self.sets[self.set_index(line)];
        set.iter()
            .find(|w| w.valid && w.line == line)
            .map(|w| &w.meta)
    }

    /// Looks up `line`, updating LRU recency on a hit.
    pub fn get(&mut self, line: LineAddr) -> Option<&T> {
        let tick = self.next_tick();
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        for w in set.iter_mut() {
            if w.valid && w.line == line {
                w.lru = tick;
                return Some(&w.meta);
            }
        }
        None
    }

    /// Mutable lookup, updating recency on a hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let tick = self.next_tick();
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        for w in set.iter_mut() {
            if w.valid && w.line == line {
                w.lru = tick;
                return Some(&mut w.meta);
            }
        }
        None
    }

    /// Refreshes recency without reading, used when an eviction is denied
    /// so that "the cache controller updates the replacement algorithm
    /// state as if the line had been accessed" (Section 5.1.3).
    pub fn touch(&mut self, line: LineAddr) {
        let _ = self.get(line);
    }

    /// Inserts `line`, evicting the least recently used victim whose
    /// `(line, meta)` the `evictable` predicate accepts.
    ///
    /// Returns the evicted `(line, meta)` if a valid line was displaced.
    ///
    /// # Errors
    ///
    /// Returns [`EvictionDenied`] if the set is full and every way was
    /// vetoed; the cache is unchanged except that vetoed victims have
    /// their recency refreshed (discouraging immediate re-selection).
    pub fn insert<F>(
        &mut self,
        line: LineAddr,
        meta: T,
        mut evictable: F,
    ) -> Result<Option<(LineAddr, T)>, EvictionDenied>
    where
        F: FnMut(LineAddr, &T) -> bool,
    {
        let tick = self.next_tick();
        let ways = self.ways;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];

        // Hit: replace metadata in place.
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.line == line) {
            w.meta = meta;
            w.lru = tick;
            return Ok(None);
        }
        // Free way (either an invalidated way or unfilled capacity).
        if let Some(w) = set.iter_mut().find(|w| !w.valid) {
            *w = Way {
                line,
                meta,
                lru: tick,
                valid: true,
            };
            self.tracer.emit(EventKind::CacheInstall { line });
            return Ok(None);
        }
        if set.len() < ways {
            set.push(Way {
                line,
                meta,
                lru: tick,
                valid: true,
            });
            self.tracer.emit(EventKind::CacheInstall { line });
            return Ok(None);
        }
        // Evict LRU among evictable ways.
        let mut victim: Option<usize> = None;
        for (i, w) in set.iter().enumerate() {
            if evictable(w.line, &w.meta) && victim.is_none_or(|v| w.lru < set[v].lru) {
                victim = Some(i);
            }
        }
        match victim {
            Some(v) => {
                let old = std::mem::replace(
                    &mut set[v],
                    Way {
                        line,
                        meta,
                        lru: tick,
                        valid: true,
                    },
                );
                if self.tracer.enabled() {
                    self.tracer.emit(EventKind::CacheEvict { line: old.line });
                    self.tracer.emit(EventKind::CacheInstall { line });
                }
                Ok(Some((old.line, old.meta)))
            }
            None => {
                // Refresh every vetoed way, per Section 5.1.3.
                for w in set.iter_mut() {
                    w.lru = tick;
                }
                self.tracer.emit(EventKind::CacheEvictDenied { line });
                Err(EvictionDenied)
            }
        }
    }

    /// Invalidates `line`, returning its metadata if present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<T>
    where
        T: Default,
    {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        for w in set.iter_mut() {
            if w.valid && w.line == line {
                w.valid = false;
                self.tracer.emit(EventKind::CacheInvalidate { line });
                return Some(std::mem::take(&mut w.meta));
            }
        }
        None
    }

    /// Returns the valid lines in the set that `line` maps to, least
    /// recently used first — the victim-candidate order used by the
    /// directory when it must evict for an allocation.
    pub fn lru_candidates(&self, line: LineAddr) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.lru_candidates_into(line, &mut out);
        out.into_iter().map(|(_, l)| l).collect()
    }

    /// Fills `out` with the valid `(lru, line)` pairs of the set that
    /// `line` maps to, least recently used first. The caller owns and
    /// reuses the buffer, so the directory's victim search allocates
    /// nothing in steady state.
    pub fn lru_candidates_into(&self, line: LineAddr, out: &mut Vec<(u64, LineAddr)>) {
        out.clear();
        let set = &self.sets[self.set_index(line)];
        out.extend(set.iter().filter(|w| w.valid).map(|w| (w.lru, w.line)));
        out.sort_unstable();
    }

    /// Iterates over all valid `(line, meta)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().filter(|w| w.valid).map(|w| (w.line, &w.meta)))
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|w| w.valid).count())
            .sum()
    }

    /// Lines resident in the set that `line` maps to.
    pub fn set_occupancy(&self, line: LineAddr) -> usize {
        self.sets[self.set_index(line)]
            .iter()
            .filter(|w| w.valid)
            .count()
    }

    /// Current value of the monotonic recency clock.
    pub fn lru_tick(&self) -> u64 {
        self.tick
    }

    /// Shifts the recency clock — and every way accessed within the last
    /// `dtick` clock advances — forward by `dtick`, reproducing one spin
    /// period's cache accesses without performing them.
    ///
    /// A way is "touched last period" exactly when `lru > tick - dtick`;
    /// periodic accesses keep each touched way's offset inside the
    /// period constant, so adding `dtick` to those ways and to the clock
    /// is bit-identical to re-running the accesses.
    pub fn spin_shift_lru(&mut self, dtick: u64) {
        self.spin_advance_ticks(dtick, 1);
    }

    /// Applies `k` spin periods of `dtick` recency advances in one step.
    pub fn spin_advance_ticks(&mut self, dtick: u64, k: u64) {
        if dtick == 0 || k == 0 {
            return;
        }
        let cutoff = self.tick.saturating_sub(dtick);
        let add = dtick * k;
        for set in &mut self.sets {
            for w in set.iter_mut() {
                if w.lru > cutoff {
                    w.lru += add;
                }
            }
        }
        self.tick += add;
    }

    /// Structural equality for the spin-loop detector, ignoring the
    /// tracer. Way positions and recency values must match exactly
    /// (replacement decisions read both); invalid ways only need their
    /// slot to be invalid on both sides — their stale contents are never
    /// read.
    pub fn spin_state_eq(&self, other: &Cache<T>) -> bool
    where
        T: PartialEq,
    {
        let Cache {
            sets,
            index_bits,
            ways,
            tick,
            tracer: _,
        } = self;
        *index_bits == other.index_bits
            && *ways == other.ways
            && *tick == other.tick
            && sets.len() == other.sets.len()
            && sets.iter().zip(&other.sets).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| {
                        x.valid == y.valid
                            && (!x.valid
                                || (x.line == y.line && x.lru == y.lru && x.meta == y.meta))
                    })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::Addr;

    fn cfg(ways: usize, sets: usize) -> CacheConfig {
        CacheConfig {
            size_bytes: (ways * sets) as u64 * 64,
            ways,
            hit_latency: 2,
            mshr_entries: 4,
        }
    }

    fn line(set: usize, tag: usize, sets: usize) -> LineAddr {
        Addr::new(((tag * sets + set) * 64) as u64).line()
    }

    #[test]
    fn hit_and_miss() {
        let mut c: Cache<Mesi> = Cache::new(&cfg(2, 4));
        let l = line(0, 0, 4);
        assert!(c.get(l).is_none());
        c.insert(l, Mesi::Exclusive, |_, _| true).unwrap();
        assert_eq!(c.get(l), Some(&Mesi::Exclusive));
        assert_eq!(c.peek(l), Some(&Mesi::Exclusive));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: Cache<u32> = Cache::new(&cfg(2, 1));
        let a = line(0, 0, 1);
        let b = line(0, 1, 1);
        let d = line(0, 2, 1);
        c.insert(a, 1, |_, _| true).unwrap();
        c.insert(b, 2, |_, _| true).unwrap();
        c.get(a); // a is now more recent than b
        let evicted = c.insert(d, 3, |_, _| true).unwrap();
        assert_eq!(evicted, Some((b, 2)));
        assert!(c.peek(a).is_some());
        assert!(c.peek(d).is_some());
    }

    #[test]
    fn eviction_denied_when_all_vetoed() {
        let mut c: Cache<u32> = Cache::new(&cfg(2, 1));
        let a = line(0, 0, 1);
        let b = line(0, 1, 1);
        let d = line(0, 2, 1);
        c.insert(a, 1, |_, _| true).unwrap();
        c.insert(b, 2, |_, _| true).unwrap();
        let err = c.insert(d, 3, |_, _| false);
        assert_eq!(err, Err(EvictionDenied));
        assert!(c.peek(a).is_some() && c.peek(b).is_some());
        assert!(c.peek(d).is_none());
    }

    #[test]
    fn veto_skips_to_next_lru_victim() {
        let mut c: Cache<u32> = Cache::new(&cfg(2, 1));
        let a = line(0, 0, 1);
        let b = line(0, 1, 1);
        let d = line(0, 2, 1);
        c.insert(a, 1, |_, _| true).unwrap();
        c.insert(b, 2, |_, _| true).unwrap();
        // a is LRU but vetoed; b must be chosen instead.
        let evicted = c.insert(d, 3, |l, _| l != a).unwrap();
        assert_eq!(evicted, Some((b, 2)));
    }

    #[test]
    fn reinsert_updates_metadata_in_place() {
        let mut c: Cache<Mesi> = Cache::new(&cfg(2, 2));
        let l = line(1, 0, 2);
        c.insert(l, Mesi::Shared, |_, _| true).unwrap();
        c.insert(l, Mesi::Modified, |_, _| true).unwrap();
        assert_eq!(c.peek(l), Some(&Mesi::Modified));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_removes_and_returns() {
        let mut c: Cache<Mesi> = Cache::new(&cfg(2, 2));
        let l = line(0, 3, 2);
        c.insert(l, Mesi::Shared, |_, _| true).unwrap();
        assert_eq!(c.invalidate(l), Some(Mesi::Shared));
        assert!(c.peek(l).is_none());
        assert_eq!(c.invalidate(l), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut c: Cache<u32> = Cache::new(&cfg(1, 2));
        let s0 = line(0, 0, 2);
        let s1 = line(1, 0, 2);
        c.insert(s0, 10, |_, _| true).unwrap();
        c.insert(s1, 11, |_, _| true).unwrap();
        assert_eq!(c.peek(s0), Some(&10));
        assert_eq!(c.peek(s1), Some(&11));
        assert_eq!(c.set_occupancy(s0), 1);
    }

    #[test]
    fn mesi_predicates() {
        assert!(!Mesi::Invalid.readable());
        assert!(Mesi::Shared.readable() && !Mesi::Shared.writable());
        assert!(Mesi::Exclusive.writable());
        assert!(Mesi::Modified.writable());
        assert_eq!(Mesi::Modified.to_string(), "M");
    }

    #[test]
    fn iter_sees_all_valid_lines() {
        let mut c: Cache<u32> = Cache::new(&cfg(2, 2));
        c.insert(line(0, 0, 2), 1, |_, _| true).unwrap();
        c.insert(line(1, 0, 2), 2, |_, _| true).unwrap();
        c.invalidate(line(0, 0, 2));
        let all: Vec<_> = c.iter().map(|(_, &m)| m).collect();
        assert_eq!(all, vec![2]);
    }
}
