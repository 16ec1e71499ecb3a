//! The memory hierarchy: caches, MSHRs, write buffer, interconnect,
//! directory-based MESI coherence, and backing memory.
//!
//! This crate is the substrate the paper's evaluation runs on (Table 1):
//! private 32 KB 8-way L1 data caches, a shared sliced 2 MB 16-way L2/LLC
//! with an embedded directory running a MESI protocol, an ordered mesh
//! interconnect, and fixed-latency DRAM.
//!
//! It also implements the Pinned Loads protocol extensions of Section 5:
//!
//! * **Defer/Abort** (Figure 3): a sharer with a pinned line denies an
//!   invalidation by replying [`Msg::InvDefer`]; the writer aborts the
//!   transaction at the directory and retries.
//! * **GetX\*/Inv\*/Clear** (Figure 5): a previously-deferred write retries
//!   with the starred request, which makes every sharer insert the line
//!   into its Cannot-Pin Table until the write succeeds and the directory
//!   broadcasts `Clear`.
//! * **Eviction denial**: pinned lines are never chosen as victims, in the
//!   L1 (enforced by the core) or in the directory/LLC (enforced via
//!   [`PinView`] plus the `BackInv` defer path).
//!
//! The L1 cache *controller* logic (LQ snooping, squashes, defer decisions)
//! lives in the `pl-cpu` crate because it needs the load queue; this crate
//! provides the structures ([`Cache`], [`MshrFile`], [`WriteBuffer`]) and
//! the home-node side of the protocol ([`LlcSlice`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dir;
mod line_table;
pub mod memory;
pub mod msg;
pub mod mshr;
pub mod noc;
pub mod write_buffer;

pub use cache::{Cache, EvictionDenied, Mesi};
pub use dir::{DirState, LlcSlice, SharerSet};
pub use memory::Memory;
pub use msg::{DataGrant, Msg, NodeId};
pub use mshr::{MshrError, MshrFile};
pub use noc::Noc;
pub use write_buffer::{WbEntry, WriteBuffer};

use pl_base::{CoreId, LineAddr};

/// Read-only view of which lines each core currently has pinned.
///
/// The directory/LLC consults this when selecting eviction victims so that
/// it "refuses to evict ... any line that has been accessed by a
/// currently-pinned load" (Section 3.2). The `pl-machine` crate implements
/// it over the cores' load queues.
pub trait PinView {
    /// Returns `true` if `core` currently has `line` pinned.
    fn is_pinned(&self, core: CoreId, line: LineAddr) -> bool;

    /// Returns `true` if any core has `line` pinned.
    fn is_pinned_by_any(&self, line: LineAddr) -> bool;
}

/// A [`PinView`] with no pinned lines, for unsafe baselines and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPins;

impl PinView for NoPins {
    fn is_pinned(&self, _core: CoreId, _line: LineAddr) -> bool {
        false
    }
    fn is_pinned_by_any(&self, _line: LineAddr) -> bool {
        false
    }
}

/// Maps a line address to its home LLC slice.
///
/// Uses a hash of the line number so that consecutive lines interleave
/// across slices, as commercial sliced LLCs do.
///
/// # Examples
///
/// ```
/// use pl_base::Addr;
/// use pl_mem::home_slice;
/// let s = home_slice(Addr::new(0x1000).line(), 8);
/// assert!(s < 8);
/// assert_eq!(s, home_slice(Addr::new(0x1008).line(), 8)); // same line
/// ```
pub fn home_slice(line: LineAddr, num_slices: usize) -> usize {
    assert!(num_slices > 0, "need at least one LLC slice");
    (line.hash64() % num_slices as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::Addr;

    #[test]
    fn home_slice_is_stable_and_in_range() {
        for i in 0..1000u64 {
            let line = Addr::new(i * 64).line();
            let s = home_slice(line, 8);
            assert!(s < 8);
            assert_eq!(s, home_slice(line, 8));
        }
    }

    #[test]
    fn home_slice_distributes() {
        let mut counts = [0usize; 4];
        for i in 0..4000u64 {
            counts[home_slice(Addr::new(i * 64).line(), 4)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "slice badly underloaded: {counts:?}");
        }
    }

    #[test]
    fn no_pins_view() {
        let v = NoPins;
        assert!(!v.is_pinned(CoreId(0), Addr::new(0).line()));
        assert!(!v.is_pinned_by_any(Addr::new(0).line()));
    }
}
