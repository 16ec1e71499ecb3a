//! Simulation statistics: counters and histograms.
//!
//! Every component (core stages, caches, directory, pinning governor)
//! records into a [`Stats`] registry of named counters. The bench harnesses
//! read these to produce the paper's tables: squash counts by cause drive
//! Figures 1 and 9, retried writes drive Section 9.1.3, CST false positives
//! drive Section 9.2.1, and CPT occupancy drives Section 9.2.2.
//!
//! # Hot-path interning
//!
//! The simulator's cycle kernel bumps the same handful of counters
//! millions of times per run. Components intern each name once at
//! construction ([`Stats::counter_id`] / [`Stats::hist_id`]) and then
//! update through the returned dense ids ([`Stats::add_id`],
//! [`Stats::sample_id`]) — a bounds-checked `Vec` index instead of a
//! string-keyed `BTreeMap` walk. The string API remains for cold paths
//! (tests, exporters, one-shot counters) and both views address the same
//! storage: interleaved id and string updates observe each other.

use std::collections::BTreeMap;
use std::ops::Bound;

/// Handle to an interned counter, returned by [`Stats::counter_id`].
///
/// Ids are dense indices into the owning [`Stats`] and are only
/// meaningful for the registry that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatId(u32);

/// Handle to an interned histogram, returned by [`Stats::hist_id`].
///
/// A separate namespace from [`StatId`]: counter and histogram names do
/// not collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistId(u32);

/// A registry of named monotonic counters and histograms.
///
/// Counter names are dotted paths like `"squash.mcv"` or
/// `"l1.misses"`. Reading a counter that was never written returns zero, so
/// report code never needs to special-case missing activity. Interned
/// names whose counters are still zero (and histograms with no samples)
/// are invisible to iteration, `Display`, and `histogram` — exactly as if
/// they had never been touched.
///
/// # Examples
///
/// ```
/// use pl_base::Stats;
/// let mut s = Stats::new();
/// s.add("squash.mcv", 3);
/// s.incr("squash.mcv");
/// assert_eq!(s.get("squash.mcv"), 4);
/// assert_eq!(s.get("never.touched"), 0);
///
/// // Hot paths intern once, then update by id.
/// let id = s.counter_id("squash.mcv");
/// s.incr_id(id);
/// assert_eq!(s.get("squash.mcv"), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    counter_index: BTreeMap<String, u32>,
    counters: Vec<u64>,
    hist_index: BTreeMap<String, u32>,
    histograms: Vec<Histogram>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Interns counter `name`, returning its dense id.
    ///
    /// Idempotent: the same name always maps to the same id. Interning
    /// alone does not make the counter visible — it stays at zero until
    /// written.
    pub fn counter_id(&mut self, name: &str) -> StatId {
        if let Some(&id) = self.counter_index.get(name) {
            return StatId(id);
        }
        let id = u32::try_from(self.counters.len()).expect("fewer than 2^32 counters");
        self.counters.push(0);
        self.counter_index.insert(name.to_string(), id);
        StatId(id)
    }

    /// Interns histogram `name`, returning its dense id.
    ///
    /// Idempotent, and invisible until the first sample is recorded.
    pub fn hist_id(&mut self, name: &str) -> HistId {
        if let Some(&id) = self.hist_index.get(name) {
            return HistId(id);
        }
        let id = u32::try_from(self.histograms.len()).expect("fewer than 2^32 histograms");
        self.histograms.push(Histogram::new());
        self.hist_index.insert(name.to_string(), id);
        HistId(id)
    }

    /// Adds `delta` to the interned counter `id`.
    #[inline]
    pub fn add_id(&mut self, id: StatId, delta: u64) {
        self.counters[id.0 as usize] += delta;
    }

    /// Adds one to the interned counter `id`.
    #[inline]
    pub fn incr_id(&mut self, id: StatId) {
        self.counters[id.0 as usize] += 1;
    }

    /// Returns the value of the interned counter `id`.
    #[inline]
    pub fn get_id(&self, id: StatId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Records `value` into the interned histogram `id`.
    #[inline]
    pub fn sample_id(&mut self, id: HistId, value: u64) {
        self.histograms[id.0 as usize].record(value);
    }

    /// Records `value` into the interned histogram `id` `n` times, exactly
    /// as if [`Stats::sample_id`] had been called `n` times.
    #[inline]
    pub fn sample_n_id(&mut self, id: HistId, value: u64, n: u64) {
        self.histograms[id.0 as usize].record_n(value, n);
    }

    /// Adds `delta` to the counter `name`, creating it at zero if needed.
    ///
    /// Cold-path shim over the interned storage; hot loops should intern
    /// once via [`Stats::counter_id`] and use [`Stats::add_id`]. A zero
    /// delta interns the name (so strict lookups recognize it) but leaves
    /// the counter invisible to iteration, like any unwritten counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        let id = self.counter_id(name);
        if delta != 0 {
            self.add_id(id, delta);
        }
    }

    /// Adds one to the counter `name`.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the value of counter `name`, or zero if never written.
    ///
    /// Prefer [`Stats::get_known`] in assertions: `get` cannot distinguish
    /// "this counter is zero" from "this counter name does not exist", so
    /// a typo'd name makes an assertion pass vacuously.
    pub fn get(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map_or(0, |&id| self.counters[id as usize])
    }

    /// Returns the value of counter `name`, or `None` if the name was
    /// never interned by any component.
    pub fn try_get(&self, name: &str) -> Option<u64> {
        self.counter_index
            .get(name)
            .map(|&id| self.counters[id as usize])
    }

    /// Strict lookup for assertions: returns the value of counter `name`,
    /// panicking if the name was never interned.
    ///
    /// A counter that exists but was never incremented still reads as
    /// zero; only a name no component registered is an error. Use this in
    /// tests so a typo'd counter name fails loudly instead of comparing
    /// zeros.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a registered counter.
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::Stats;
    /// let mut s = Stats::new();
    /// s.add("llc.aborts", 0);
    /// assert_eq!(s.get_known("llc.aborts"), 0);
    /// ```
    #[track_caller]
    pub fn get_known(&self, name: &str) -> u64 {
        match self.try_get(name) {
            Some(v) => v,
            None => panic!("unknown counter `{name}`: no component registered it"),
        }
    }

    /// Records `value` into histogram `name`, creating it if needed.
    pub fn sample(&mut self, name: &str, value: u64) {
        let id = self.hist_id(name);
        self.sample_id(id, value);
    }

    /// Returns the histogram `name` if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hist_index
            .get(name)
            .map(|&id| &self.histograms[id as usize])
            .filter(|h| h.count() > 0)
    }

    /// Iterates over `(name, value)` pairs in lexicographic name order,
    /// skipping counters that are still zero (interned but never written).
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_index
            .iter()
            .map(|(k, &id)| (k.as_str(), self.counters[id as usize]))
            .filter(|&(_, v)| v != 0)
    }

    /// Iterates over counters whose name starts with `prefix`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::Stats;
    /// let mut s = Stats::new();
    /// s.add("squash.mcv", 1);
    /// s.add("squash.branch", 2);
    /// s.add("l1.hits", 3);
    /// let squashes: u64 = s.iter_prefix("squash.").map(|(_, v)| v).sum();
    /// assert_eq!(squashes, 3);
    /// ```
    pub fn iter_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> {
        self.counter_index
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, &id)| (k.as_str(), self.counters[id as usize]))
            .filter(|&(_, v)| v != 0)
    }

    /// Iterates over `(name, histogram)` pairs in lexicographic name
    /// order, skipping histograms with no samples.
    pub fn iter_histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hist_index
            .iter()
            .map(|(k, &id)| (k.as_str(), &self.histograms[id as usize]))
            .filter(|(_, h)| h.count() > 0)
    }

    /// Merges another registry into this one, summing counters and pooling
    /// histogram samples. Used to aggregate per-core statistics.
    ///
    /// Every name interned in `other` is interned here too, even if its
    /// value is still zero, so strict lookups ([`Stats::get_known`]) keep
    /// working on merged registries.
    pub fn merge(&mut self, other: &Stats) {
        for (name, &id) in &other.counter_index {
            self.add(name, other.counters[id as usize]);
        }
        for name in other.hist_index.keys() {
            self.hist_id(name);
        }
        for (name, h) in other.iter_histograms() {
            let id = self.hist_id(name);
            self.histograms[id.0 as usize].merge(h);
        }
    }

    /// Resets every counter to zero and every histogram to empty.
    ///
    /// Interned ids remain valid (the name table is kept); the registry
    /// simply reports no activity until written again.
    pub fn clear(&mut self) {
        self.counters.fill(0);
        self.histograms.fill(Histogram::new());
    }

    /// Raw counter storage, indexed by [`StatId`]. Used by the machine's
    /// fast-forward path to snapshot and replay per-tick deltas; ordinary
    /// readers should go through names or ids.
    pub fn counter_values(&self) -> &[u64] {
        &self.counters
    }

    /// Applies `delta[i] * n` to every counter, where `delta` is the
    /// element-wise difference of two [`Stats::counter_values`] snapshots
    /// of this registry.
    ///
    /// # Panics
    ///
    /// Panics if `before` and `after` are not equal-length prefixes of the
    /// current counter table (counters are only ever appended).
    pub fn replay_counter_delta(&mut self, before: &[u64], after: &[u64], n: u64) {
        assert_eq!(before.len(), after.len(), "snapshots from the same point");
        assert!(after.len() <= self.counters.len(), "snapshot of this table");
        for (i, (&b, &a)) in before.iter().zip(after).enumerate() {
            self.counters[i] += (a - b) * n;
        }
    }

    /// Snapshot of every histogram's `(count, sum)`, indexed by
    /// [`HistId`]. The spin-parking replay path pairs two of these the
    /// way [`Stats::counter_values`] snapshots pair for counters.
    pub fn hist_values(&self) -> Vec<(u64, u64)> {
        self.histograms.iter().map(|h| (h.count, h.sum)).collect()
    }

    /// Applies `delta[i] * n` to every histogram's count and sum, where
    /// `delta` is the element-wise difference of two
    /// [`Stats::hist_values`] snapshots of this registry.
    ///
    /// Min and max are deliberately untouched: the caller's contract is
    /// that the replayed interval repeats sample *values* already
    /// recorded live between the two snapshots, so the extrema cannot
    /// move — only count and sum accumulate. That makes the bulk replay
    /// bit-identical to re-recording the samples one by one.
    ///
    /// # Panics
    ///
    /// Panics if `before` and `after` are not equal-length prefixes of
    /// the current histogram table (histograms are only ever appended).
    pub fn replay_hist_delta(&mut self, before: &[(u64, u64)], after: &[(u64, u64)], n: u64) {
        assert_eq!(before.len(), after.len(), "snapshots from the same point");
        assert!(
            after.len() <= self.histograms.len(),
            "snapshot of this table"
        );
        for (i, (&(bc, bs), &(ac, as_))) in before.iter().zip(after).enumerate() {
            self.histograms[i].count += (ac - bc) * n;
            self.histograms[i].sum += (as_ - bs) * n;
        }
    }

    /// Dense index of an already-interned counter, or `None` if `name`
    /// was never registered. Read-only counterpart of
    /// [`Stats::counter_id`] for callers holding `&self` that need to
    /// index a [`Stats::counter_values`] snapshot by name.
    pub fn known_counter_index(&self, name: &str) -> Option<usize> {
        self.counter_index.get(name).map(|&i| i as usize)
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut any = false;
        for (k, v) in self.iter() {
            any = true;
            writeln!(f, "{k} = {v}")?;
        }
        for (k, h) in self.iter_histograms() {
            any = true;
            writeln!(f, "{k}: {h}")?;
        }
        if !any {
            write!(f, "(no statistics recorded)")?;
        }
        Ok(())
    }
}

/// A streaming histogram tracking count, sum, min, max, and mean.
///
/// # Examples
///
/// ```
/// use pl_base::Histogram;
/// let mut h = Histogram::new();
/// h.record(2);
/// h.record(4);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.max(), Some(4));
/// assert!((h.mean().unwrap() - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `value` as `n` identical samples — bit-identical to calling
    /// [`Histogram::record`] `n` times (all fields use the same u64
    /// arithmetic either way). `n == 0` is a no-op.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += value * n;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Pools another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} mean={:.2} min={} max={}",
                self.count,
                mean,
                self.min.unwrap_or(0),
                self.max.unwrap_or(0)
            ),
            None => write!(f, "n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_default_to_zero() {
        let s = Stats::new();
        assert_eq!(s.get("anything"), 0);
    }

    #[test]
    fn add_and_incr() {
        let mut s = Stats::new();
        s.add("a", 5);
        s.incr("a");
        s.add("a", 0);
        assert_eq!(s.get("a"), 6);
    }

    #[test]
    fn add_zero_creates_nothing() {
        let mut s = Stats::new();
        s.add("ghost", 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn interned_but_unwritten_names_stay_invisible() {
        let mut s = Stats::new();
        let c = s.counter_id("ghost.counter");
        let h = s.hist_id("ghost.hist");
        assert_eq!(s.iter().count(), 0);
        assert!(s.histogram("ghost.hist").is_none());
        assert_eq!(s.to_string(), "(no statistics recorded)");
        s.incr_id(c);
        s.sample_id(h, 9);
        assert_eq!(s.get("ghost.counter"), 1);
        assert_eq!(s.histogram("ghost.hist").unwrap().count(), 1);
    }

    #[test]
    fn id_and_string_views_share_storage() {
        let mut s = Stats::new();
        let id = s.counter_id("x");
        s.incr_id(id);
        s.add("x", 2);
        assert_eq!(s.get_id(id), 3);
        assert_eq!(s.counter_id("x"), id);
        let h = s.hist_id("h");
        s.sample("h", 5);
        s.sample_id(h, 7);
        let hist = s.histogram("h").unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 12);
    }

    #[test]
    fn counter_and_histogram_namespaces_are_separate() {
        let mut s = Stats::new();
        s.add("same.name", 4);
        s.sample("same.name", 10);
        assert_eq!(s.get("same.name"), 4);
        assert_eq!(s.histogram("same.name").unwrap().sum(), 10);
    }

    #[test]
    fn prefix_iteration() {
        let mut s = Stats::new();
        s.add("squash.mcv", 1);
        s.add("squash.branch", 2);
        s.add("squashx", 99);
        s.add("z", 1);
        let names: Vec<_> = s
            .iter_prefix("squash.")
            .map(|(k, _)| k.to_string())
            .collect();
        assert_eq!(names, vec!["squash.branch", "squash.mcv"]);
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.sample("h", 10);
        let mut b = Stats::new();
        b.add("x", 2);
        b.add("y", 3);
        b.sample("h", 20);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(20));
    }

    #[test]
    fn strict_lookup_distinguishes_zero_from_unknown() {
        let mut s = Stats::new();
        s.counter_id("known.zero");
        assert_eq!(s.try_get("known.zero"), Some(0));
        assert_eq!(s.get_known("known.zero"), 0);
        assert_eq!(s.try_get("never.interned"), None);
        assert_eq!(s.get("never.interned"), 0);
        s.add("known.zero", 2);
        assert_eq!(s.get_known("known.zero"), 2);
    }

    #[test]
    #[should_panic(expected = "unknown counter")]
    fn get_known_panics_on_unknown_name() {
        Stats::new().get_known("no.such.counter");
    }

    #[test]
    fn add_zero_interns_for_strict_lookup() {
        let mut s = Stats::new();
        s.add("ghost", 0);
        assert_eq!(s.iter().count(), 0, "zero counters stay invisible");
        assert_eq!(s.get_known("ghost"), 0, "but the name is registered");
    }

    #[test]
    fn merge_preserves_interned_names() {
        let mut a = Stats::new();
        let mut b = Stats::new();
        b.counter_id("zero.but.known");
        b.hist_id("empty.but.known");
        b.add("written", 4);
        a.merge(&b);
        assert_eq!(a.get_known("zero.but.known"), 0);
        assert_eq!(a.get_known("written"), 4);
        assert!(a.histogram("empty.but.known").is_none());
        assert_eq!(a.iter().count(), 1, "zero counters stay invisible");
    }

    #[test]
    fn replay_counter_delta_multiplies() {
        let mut s = Stats::new();
        let a = s.counter_id("a");
        let b = s.counter_id("b");
        s.incr_id(a);
        let before = s.counter_values().to_vec();
        s.add_id(a, 2);
        s.incr_id(b);
        let after = s.counter_values().to_vec();
        s.replay_counter_delta(&before, &after, 10);
        assert_eq!(s.get("a"), 1 + 2 + 2 * 10);
        assert_eq!(s.get("b"), 1 + 10);
    }

    #[test]
    fn replay_hist_delta_matches_repeated_sampling() {
        let mut bulk = Stats::new();
        let mut slow = Stats::new();
        for s in [&mut bulk, &mut slow] {
            s.sample("occ", 3);
            s.sample("occ", 7);
            s.sample("other", 100);
        }
        // One live period records the deltas...
        let before = bulk.hist_values();
        let period = |s: &mut Stats| {
            s.sample("occ", 5);
            s.sample("other", 100);
            s.sample("other", 100);
        };
        period(&mut bulk);
        let after = bulk.hist_values();
        period(&mut slow);
        // ...then ten more periods replay in bulk vs. sample-by-sample.
        bulk.replay_hist_delta(&before, &after, 10);
        for _ in 0..10 {
            period(&mut slow);
        }
        assert_eq!(bulk.histogram("occ"), slow.histogram("occ"));
        assert_eq!(bulk.histogram("other"), slow.histogram("other"));
    }

    #[test]
    fn known_counter_index_matches_snapshot_order() {
        let mut s = Stats::new();
        s.add("x", 1);
        s.add("y", 2);
        assert_eq!(s.known_counter_index("nope"), None);
        let ix = s.known_counter_index("x").unwrap();
        let iy = s.known_counter_index("y").unwrap();
        let snap = s.counter_values().to_vec();
        assert_eq!(snap[ix], 1);
        assert_eq!(snap[iy], 2);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..7 {
            a.record(13);
        }
        b.record_n(13, 7);
        assert_eq!(a, b);
        b.record_n(99, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        for v in [5, 1, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 15);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(9));
        assert!((h.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_with_empty() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(7);
        a.merge(&b);
        assert_eq!(a.min(), Some(7));
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn display_is_never_empty() {
        let s = Stats::new();
        assert!(!s.to_string().is_empty());
        let mut s2 = Stats::new();
        s2.add("k", 1);
        s2.sample("h", 2);
        let text = s2.to_string();
        assert!(text.contains("k = 1"));
        assert!(text.contains("n=1"));
    }

    #[test]
    fn clear_resets_but_keeps_ids_valid() {
        let mut s = Stats::new();
        let id = s.counter_id("a");
        s.incr_id(id);
        s.sample("h", 1);
        s.clear();
        assert_eq!(s.get("a"), 0);
        assert!(s.histogram("h").is_none());
        assert_eq!(s.iter().count(), 0);
        s.incr_id(id);
        assert_eq!(s.get("a"), 1);
    }
}
