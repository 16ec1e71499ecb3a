//! Foundational types for the Pinned Loads simulator.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace: physical addresses and cache-line addresses, core and cycle
//! newtypes, the simulated-architecture configuration (Table 1 of the
//! paper), a statistics registry, a deterministic random-number generator,
//! and small fixed-capacity containers used to model hardware structures.
//!
//! # Examples
//!
//! ```
//! use pl_base::{Addr, LineAddr, MachineConfig};
//!
//! let cfg = MachineConfig::default_single_core();
//! let a = Addr::new(0x1040);
//! let line: LineAddr = a.line();
//! assert_eq!(line.base().raw(), 0x1040 & !63);
//! assert_eq!(cfg.core.rob_entries, 192);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod digest;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod verify;

pub use addr::{Addr, LineAddr, LINE_BYTES, LINE_SHIFT};
pub use config::{
    CacheConfig, ConfigError, CoreConfig, CptConfig, CstConfig, DefenseScheme, MachineConfig,
    MemConfig, PinMode, PinnedLoadsConfig, ThreatModel, TraceConfig,
};
pub use queue::CircQueue;
pub use rng::SimRng;
pub use stats::{HistId, Histogram, StatId, Stats};
pub use verify::{
    CheckEvent, CheckObserver, CheckSink, CoreSnapshot, InvalidateCause, LineMode, MachineSnapshot,
    Mutation, VerifyConfig,
};

/// Identifier of a simulated core.
///
/// Cores are numbered densely from zero. The identifier is used to index
/// per-core state in the memory system (directory sharer bits, per-core
/// pinned-line quotas) and in result tables.
///
/// # Examples
///
/// ```
/// use pl_base::CoreId;
/// let c = CoreId(3);
/// assert_eq!(c.index(), 3);
/// assert_eq!(c.to_string(), "core3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl CoreId {
    /// Returns the dense index of this core.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A point in simulated time, measured in core clock cycles.
///
/// `Cycle` is a monotonically increasing counter maintained by the machine
/// run loop. Arithmetic saturates at the top of the `u64` range, which is
/// unreachable in practice.
///
/// # Examples
///
/// ```
/// use pl_base::Cycle;
/// let t = Cycle(100);
/// assert_eq!(t + 8, Cycle(108));
/// assert!(t < Cycle(101));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle, i.e. the beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the raw cycle count.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the number of cycles from `earlier` to `self`, or zero if
    /// `earlier` is in the future.
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::Cycle;
    /// assert_eq!(Cycle(10).since(Cycle(4)), 6);
    /// assert_eq!(Cycle(4).since(Cycle(10)), 0);
    /// ```
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl std::ops::Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0.saturating_add(rhs))
    }
}

impl std::ops::AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 = self.0.saturating_add(rhs);
    }
}

impl std::fmt::Display for Cycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

/// A sequence number that orders dynamic instructions within one core.
///
/// Sequence numbers are assigned at rename in program order and never reused
/// within a run, so `a < b` means "a is older than b". They survive
/// squashes (squashed numbers are simply abandoned), which makes them safe
/// to store in memory-system bookkeeping that can outlive a squash.
///
/// # Examples
///
/// ```
/// use pl_base::SeqNum;
/// let a = SeqNum(5);
/// let b = SeqNum(9);
/// assert!(a.is_older_than(b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// Returns `true` if `self` was renamed before `other` in program order.
    pub fn is_older_than(self, other: SeqNum) -> bool {
        self.0 < other.0
    }

    /// Returns the next sequence number.
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }
}

impl std::fmt::Display for SeqNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Computes the geometric mean of a slice of positive values.
///
/// Used when aggregating per-benchmark normalized CPIs into suite-level
/// numbers, exactly as the paper reports "Geo. Mean" bars.
///
/// Returns `None` for an empty slice or if any value is non-positive.
///
/// # Examples
///
/// ```
/// use pl_base::geo_mean;
/// let g = geo_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// assert!(geo_mean(&[]).is_none());
/// ```
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_display_and_index() {
        assert_eq!(CoreId(0).to_string(), "core0");
        assert_eq!(CoreId(7).index(), 7);
    }

    #[test]
    fn cycle_arithmetic_saturates() {
        let t = Cycle(u64::MAX - 1);
        assert_eq!(t + 100, Cycle(u64::MAX));
        let mut u = Cycle(5);
        u += 3;
        assert_eq!(u, Cycle(8));
    }

    #[test]
    fn cycle_since_is_saturating() {
        assert_eq!(Cycle(10).since(Cycle(3)), 7);
        assert_eq!(Cycle(3).since(Cycle(10)), 0);
    }

    #[test]
    fn seqnum_ordering() {
        assert!(SeqNum(1).is_older_than(SeqNum(2)));
        assert!(!SeqNum(2).is_older_than(SeqNum(2)));
        assert_eq!(SeqNum(2).next(), SeqNum(3));
    }

    #[test]
    fn geo_mean_basics() {
        assert!(geo_mean(&[]).is_none());
        assert!(geo_mean(&[1.0, -1.0]).is_none());
        assert!(geo_mean(&[0.0]).is_none());
        let g = geo_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let one = geo_mean(&[1.0, 1.0, 1.0]).unwrap();
        assert!((one - 1.0).abs() < 1e-12);
    }

    #[test]
    fn newtypes_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreId>();
        assert_send_sync::<Cycle>();
        assert_send_sync::<SeqNum>();
    }
}
