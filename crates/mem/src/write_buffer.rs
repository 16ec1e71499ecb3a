//! The post-retirement store (write) buffer.
//!
//! Under TSO, a store's data is deposited here when the store retires and
//! is merged into the cache later, in FIFO order (Section 2). The buffer's
//! capacity is architecturally significant for Pinned Loads: a load may
//! only be pinned if every yet-to-complete older store fits in the buffer,
//! otherwise the deadlock of Figure 4 becomes possible (Section 5.1.2).

use pl_base::{Addr, CircQueue, Cycle, LineAddr};
use std::error::Error;
use std::fmt;

/// Progress state of the head write-buffer entry's coherence transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WbState {
    /// No transaction in flight yet.
    #[default]
    Idle,
    /// A `GetX` (or `GetX*`) is in flight; awaiting data/acks.
    Requested,
    /// The write was deferred by a pinned sharer or nacked; it will retry
    /// at the recorded cycle.
    WaitingRetry,
}

/// One retired store awaiting merge into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbEntry {
    /// Word address being written.
    pub addr: Addr,
    /// Value to write.
    pub value: u64,
    /// Transaction progress.
    pub state: WbState,
    /// `true` once a previous attempt was deferred: the retry must use
    /// `GetX*` (Section 5.1.5).
    pub use_star: bool,
    /// Earliest cycle at which a `WaitingRetry` entry may re-issue.
    pub retry_at: Cycle,
    /// Invalidation responses still outstanding for the current attempt.
    pub acks_pending: usize,
    /// `true` if any response so far was a defer.
    pub saw_defer: bool,
    /// `true` once the data/permission response arrived.
    pub have_data: bool,
}

impl WbEntry {
    /// The cache line this entry writes.
    pub fn line(&self) -> LineAddr {
        self.addr.line()
    }
}

/// Error returned by [`WriteBuffer::push`] when the buffer is full, which
/// blocks store retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbFull;

impl fmt::Display for WbFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "write buffer is full")
    }
}

impl Error for WbFull {}

/// A FIFO write buffer.
///
/// Only the head entry may have a coherence transaction in flight,
/// enforcing TSO's store→store ordering.
///
/// # Examples
///
/// ```
/// use pl_base::Addr;
/// use pl_mem::WriteBuffer;
///
/// let mut wb = WriteBuffer::new(2);
/// wb.push(Addr::new(0x100), 7)?;
/// assert_eq!(wb.forward(Addr::new(0x100)), Some(7));
/// assert_eq!(wb.forward(Addr::new(0x108)), None);
/// # Ok::<(), pl_mem::write_buffer::WbFull>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBuffer {
    entries: CircQueue<WbEntry>,
}

impl WriteBuffer {
    /// Creates a write buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> WriteBuffer {
        WriteBuffer {
            entries: CircQueue::new(capacity),
        }
    }

    /// Appends a retired store.
    ///
    /// # Errors
    ///
    /// Returns [`WbFull`] if the buffer is full; the caller must stall
    /// retirement.
    pub fn push(&mut self, addr: Addr, value: u64) -> Result<(), WbFull> {
        let entry = WbEntry {
            addr,
            value,
            state: WbState::Idle,
            use_star: false,
            retry_at: Cycle::ZERO,
            acks_pending: 0,
            saw_defer: false,
            have_data: false,
        };
        self.entries.push_back(entry).map_err(|_| WbFull)
    }

    /// The oldest entry, if any.
    pub fn head(&self) -> Option<&WbEntry> {
        self.entries.front()
    }

    /// Mutable access to the oldest entry.
    pub fn head_mut(&mut self) -> Option<&mut WbEntry> {
        self.entries.front_mut()
    }

    /// Removes the oldest entry after its write merged into the cache.
    pub fn pop(&mut self) -> Option<WbEntry> {
        self.entries.pop_front()
    }

    /// Store-to-load forwarding: the value of the youngest entry writing
    /// the same 64-bit word as `addr`, if any.
    pub fn forward(&self, addr: Addr) -> Option<u64> {
        let word = addr.raw() >> 3;
        self.entries
            .iter()
            .rev()
            .find(|e| e.addr.raw() >> 3 == word)
            .map(|e| e.value)
    }

    /// Returns `true` if any entry writes to `line`.
    pub fn has_line(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line() == line)
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no writes are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if no more stores can retire into the buffer.
    pub fn is_full(&self) -> bool {
        self.entries.is_full()
    }

    /// Total capacity (the bound used by the Section 5.1.2 pinning check).
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Free entries.
    pub fn free(&self) -> usize {
        self.entries.free()
    }

    /// Iterates from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &WbEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_capacity() {
        let mut wb = WriteBuffer::new(2);
        wb.push(Addr::new(8), 1).unwrap();
        wb.push(Addr::new(16), 2).unwrap();
        assert!(wb.is_full());
        assert_eq!(wb.push(Addr::new(24), 3), Err(WbFull));
        assert_eq!(wb.pop().unwrap().value, 1);
        assert_eq!(wb.free(), 1);
        assert_eq!(wb.head().unwrap().value, 2);
    }

    #[test]
    fn forwarding_prefers_youngest_match() {
        let mut wb = WriteBuffer::new(4);
        wb.push(Addr::new(0x100), 1).unwrap();
        wb.push(Addr::new(0x100), 2).unwrap();
        wb.push(Addr::new(0x108), 3).unwrap();
        assert_eq!(wb.forward(Addr::new(0x100)), Some(2));
        assert_eq!(wb.forward(Addr::new(0x104)), Some(2)); // same word
        assert_eq!(wb.forward(Addr::new(0x110)), None);
    }

    #[test]
    fn has_line_checks_line_granularity() {
        let mut wb = WriteBuffer::new(2);
        wb.push(Addr::new(0x100), 1).unwrap();
        assert!(wb.has_line(Addr::new(0x13f).line()));
        assert!(!wb.has_line(Addr::new(0x140).line()));
    }

    #[test]
    fn head_state_machine_fields_are_mutable() {
        let mut wb = WriteBuffer::new(1);
        wb.push(Addr::new(0x40), 9).unwrap();
        {
            let head = wb.head_mut().unwrap();
            head.state = WbState::Requested;
            head.acks_pending = 2;
            head.saw_defer = true;
            head.use_star = true;
        }
        let head = wb.head().unwrap();
        assert_eq!(head.state, WbState::Requested);
        assert!(head.use_star);
        assert_eq!(head.line(), Addr::new(0x40).line());
    }
}
