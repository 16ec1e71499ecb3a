//! Dynamic (in-flight) instruction state: ROB, load queue, and store
//! queue entry types.

use pl_base::{Addr, Cycle, SeqNum};
use pl_isa::{Inst, Pc, Reg};
use pl_predictor::Checkpoint;
use pl_secure::PinState;

/// Execution progress of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Renamed and in the ROB, waiting for operands or a functional unit.
    Dispatched,
    /// Executing; the result becomes available at the recorded cycle.
    Executing {
        /// Completion cycle.
        done_at: Cycle,
    },
    /// Result available; waiting to retire (or for memory, in the LQ/SQ).
    Completed,
}

/// A control instruction's prediction record, checked at resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredInfo {
    /// Predicted direction (always `true` for unconditional control).
    pub taken: bool,
    /// Predicted next PC.
    pub target: Pc,
    /// Predictor state snapshot for recovery.
    pub checkpoint: Checkpoint,
}

/// Fixed-capacity source-operand list: each `(register, producer)` pair
/// records a source and the in-flight instruction that produces it
/// (`None` when the value was already architectural at dispatch).
///
/// No instruction shape has more than three sources, so the list is
/// inline — dispatching an instruction allocates nothing. Derefs to a
/// slice, so call sites iterate it like the `Vec` it replaced.
/// Slots at or past `len` are only ever written by `push` (which bumps
/// `len` over them), so they stay at their `Default` value and the
/// derived `PartialEq` over the whole array is equivalent to comparing
/// the live prefixes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SrcList {
    items: [(Reg, Option<SeqNum>); 3],
    len: u8,
}

impl SrcList {
    /// Creates an empty list.
    pub fn new() -> SrcList {
        SrcList::default()
    }

    /// Appends a source pair.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds three sources.
    pub fn push(&mut self, reg: Reg, producer: Option<SeqNum>) {
        self.items[self.len as usize] = (reg, producer);
        self.len += 1;
    }
}

impl std::ops::Deref for SrcList {
    type Target = [(Reg, Option<SeqNum>)];
    fn deref(&self) -> &[(Reg, Option<SeqNum>)] {
        &self.items[..self.len as usize]
    }
}

impl std::ops::DerefMut for SrcList {
    fn deref_mut(&mut self) -> &mut [(Reg, Option<SeqNum>)] {
        &mut self.items[..self.len as usize]
    }
}

/// One reorder-buffer entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DynInst {
    /// Program-order sequence number (dense within the ROB).
    pub seq: SeqNum,
    /// Fetch PC.
    pub pc: Pc,
    /// The decoded instruction.
    pub inst: Inst,
    /// Execution progress.
    pub stage: Stage,
    /// Result value for register-writing instructions.
    pub result: Option<u64>,
    /// For control instructions: the prediction to validate.
    pub pred: Option<PredInfo>,
    /// The rename mapping this instruction displaced, restored on squash.
    pub prev_map: Option<(Reg, Option<SeqNum>)>,
    /// Source operands with their producers at rename time (used for
    /// operand reads and STT taint propagation). A `None` producer means
    /// the value was already architectural at dispatch.
    pub srcs: SrcList,
    /// Cycle the entry was dispatched (for occupancy statistics).
    pub dispatched_at: Cycle,
    /// Issue-pass memo: this entry will make no further progress in the
    /// non-memory issue pass (load address generated, atomic driven by
    /// the commit-side state machine). Purely an iteration-skip hint;
    /// never consulted by architectural logic.
    pub issue_done: bool,
    /// Issue-pass memo: the in-flight producer that last blocked this
    /// entry's operands. The issue pass skips the entry while that
    /// producer is still in the ROB and incomplete — a re-run of the
    /// arm is guaranteed to be a no-op until then.
    pub issue_blocked_on: Option<SeqNum>,
    /// Head of this entry's issue-pass waiter chain: the most recently
    /// parked instruction blocked on this entry's result. The chain is
    /// walked (and cleared) when this entry completes, waking each
    /// waiter for re-examination. Intrusive and allocation-free; links
    /// are always live because a waiter cannot retire before its
    /// producer, and squash unlinks eagerly.
    pub first_waiter: Option<SeqNum>,
    /// Next link in the waiter chain this entry is parked on
    /// (single-membership: an entry waits on at most one producer).
    pub next_waiter: Option<SeqNum>,
    /// Issue-pass memo: this entry is linked into the waiter chain of
    /// `issue_blocked_on` and left out of the issue queue until that
    /// producer completes. Squash reads it to unlink the entry.
    pub parked: bool,
    /// STT: this entry's value is tainted. A load is marked when it
    /// performs before its VP and cleared once it reaches the VP; any
    /// other entry holds the OR of its in-ROB producers' bits. Always
    /// `false` under every other scheme.
    pub tainted: bool,
}

impl DynInst {
    /// Returns `true` once the result (if any) is available to consumers.
    pub fn completed(&self) -> bool {
        self.stage == Stage::Completed
    }
}

/// One load-queue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LqEntry {
    /// Owning instruction.
    pub seq: SeqNum,
    /// Extended LQ ID tag (Section 6.2).
    pub lq_id: u64,
    /// Effective address, once generated.
    pub addr: Option<Addr>,
    /// Cycle the value was bound ("performed"), if it has been.
    pub performed_at: Option<Cycle>,
    /// The bound value.
    pub value: Option<u64>,
    /// `true` if the value came from store-to-load forwarding (the load
    /// never touched the cache, so it cannot suffer an MCV).
    pub forwarded: bool,
    /// The store-queue entry the value was forwarded from, when it came
    /// from an in-flight store. `None` for write-buffer/memory values.
    /// Memory-order-violation detection compares this against a resolving
    /// store: the load is mis-ordered if it bound its value from anything
    /// older than that store.
    pub forwarded_from: Option<SeqNum>,
    /// Pinning progress.
    pub pin: PinState,
    /// `true` while an L1 fill for this load is outstanding.
    pub waiting_fill: bool,
    /// `true` if the value was bound *invisibly* (InvisiSpec-class
    /// defense): no cache state changed, and the load must be validated
    /// with an exposed access at its VP before it may retire.
    pub invisible: bool,
    /// `true` while the exposure/validation access is in flight.
    pub exposing: bool,
    /// Base VP-condition bits (`pl_base::verify::VP_*`) last reported to
    /// the invariant checker; stays zero when the checker is off.
    pub vp_bits: u8,
    /// Last VP condition observed blocking this load, for trace
    /// attribution. `None` until the tracer's VP scan first sees the load.
    pub vp_blocker: Option<&'static str>,
    /// `true` once the tracer has emitted this load's `VpClear` event.
    pub vp_clear_traced: bool,
}

impl LqEntry {
    /// Creates an entry for a newly dispatched load.
    pub fn new(seq: SeqNum, lq_id: u64) -> LqEntry {
        LqEntry {
            seq,
            lq_id,
            addr: None,
            performed_at: None,
            value: None,
            forwarded: false,
            forwarded_from: None,
            pin: PinState::Unpinned,
            waiting_fill: false,
            invisible: false,
            exposing: false,
            vp_bits: 0,
            vp_blocker: None,
            vp_clear_traced: false,
        }
    }

    /// Returns `true` once the value is bound.
    pub fn performed(&self) -> bool {
        self.performed_at.is_some()
    }

    /// The line read, once the address is known.
    pub fn line(&self) -> Option<pl_base::LineAddr> {
        self.addr.map(|a| a.line())
    }

    /// Returns `true` if this load can no longer suffer an MCV on its own
    /// merits: it is pinned, or its value came from forwarding.
    pub fn mcv_immune(&self) -> bool {
        self.pin == PinState::Pinned || (self.forwarded && self.performed())
    }
}

/// One store-queue entry (pre-retirement store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqEntry {
    /// Owning instruction.
    pub seq: SeqNum,
    /// Effective address, once generated.
    pub addr: Option<Addr>,
    /// Data to store, once read from the source register.
    pub data: Option<u64>,
}

impl SqEntry {
    /// Creates an entry for a newly dispatched store.
    pub fn new(seq: SeqNum) -> SqEntry {
        SqEntry {
            seq,
            addr: None,
            data: None,
        }
    }

    /// Returns `true` once both address and data are known.
    pub fn resolved(&self) -> bool {
        self.addr.is_some() && self.data.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lq_entry_lifecycle() {
        let mut e = LqEntry::new(SeqNum(3), 7);
        assert!(!e.performed());
        assert!(e.line().is_none());
        assert!(!e.mcv_immune());
        e.addr = Some(Addr::new(0x88));
        assert_eq!(e.line(), Some(Addr::new(0x88).line()));
        e.performed_at = Some(Cycle(10));
        e.value = Some(42);
        assert!(e.performed());
        e.forwarded = true;
        assert!(e.mcv_immune());
    }

    #[test]
    fn pinned_entry_is_mcv_immune() {
        let mut e = LqEntry::new(SeqNum(1), 0);
        e.pin = PinState::Pinned;
        assert!(e.mcv_immune());
    }

    #[test]
    fn sq_entry_resolution() {
        let mut e = SqEntry::new(SeqNum(5));
        assert!(!e.resolved());
        e.addr = Some(Addr::new(8));
        assert!(!e.resolved());
        e.data = Some(1);
        assert!(e.resolved());
    }

    #[test]
    fn src_list_pushes_and_derefs() {
        let mut s = SrcList::new();
        assert!(s.is_empty());
        let r1 = Reg::new(1).unwrap();
        let r2 = Reg::new(2).unwrap();
        s.push(r1, None);
        s.push(r2, Some(SeqNum(4)));
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], (r1, None));
        assert_eq!(s.iter().filter_map(|&(_, p)| p).count(), 1);
    }

    #[test]
    fn stage_predicates() {
        let mut d = DynInst {
            seq: SeqNum(0),
            pc: Pc(0),
            inst: Inst::Nop,
            stage: Stage::Dispatched,
            result: None,
            pred: None,
            prev_map: None,
            srcs: SrcList::new(),
            dispatched_at: Cycle(0),
            issue_done: false,
            issue_blocked_on: None,
            first_waiter: None,
            next_waiter: None,
            parked: false,
            tainted: false,
        };
        assert!(!d.completed());
        d.stage = Stage::Executing { done_at: Cycle(3) };
        assert!(!d.completed());
        d.stage = Stage::Completed;
        assert!(d.completed());
    }
}
