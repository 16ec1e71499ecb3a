//! An LLC slice with its embedded directory bank.
//!
//! This is the home node of the MESI protocol. It implements:
//!
//! * Read (`GetS`) and write (`GetX`/`GetX*`) transactions, including the
//!   Pinned Loads write transaction of Figure 3(b): the directory enters a
//!   transient state, sharers respond to the *requester*, and the requester
//!   finishes with `Unblock` (success) or `Abort` (a sharer deferred).
//! * The starvation-avoidance retry flow of Figure 5: on an `Unblock` for a
//!   starred write, the directory broadcasts `Clear` so sharers drop the
//!   line from their Cannot-Pin Tables.
//! * Inclusive-hierarchy evictions with the defer path: a victim whose
//!   sharer pins the line cannot be evicted; the eviction is cancelled,
//!   the victim's recency is refreshed, and the allocation retries
//!   (Section 5.1.3).
//! * Fixed-latency DRAM fetches for lines absent from the LLC.
//!
//! Requests that hit a line with an in-flight transaction are nacked and
//! retried by the requester, matching "a transient state that rejects
//! other requests to the line" (Section 5.1.1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use pl_base::{
    CheckEvent, CheckSink, CoreId, Cycle, LineAddr, MemConfig, Mutation, StatId, Stats,
    VerifyConfig,
};
use pl_trace::{EventKind, TraceSource, Tracer};

use crate::cache::Cache;
use crate::line_table::LineTable;
use crate::msg::{DataGrant, Msg, NodeId};
use crate::PinView;

/// A dense bitmap of cores sharing a line.
///
/// Replaces the directory's old `Vec<CoreId>` sharer lists: membership
/// tests, inserts, and removals are single bit operations, a line's
/// metadata is `Copy` (no per-line heap allocation), and iteration order
/// is always ascending core id — a canonical order, so nothing
/// downstream can depend on insertion history.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(u64);

// The bitmap is one `u64`, so the machine-wide core limit must fit it.
const _: () = assert!(SharerSet::MAX_CORES <= u64::BITS as usize);

impl SharerSet {
    /// The most cores a sharer bitmap can track, one bit each: the
    /// machine-wide limit [`pl_base::MAX_CORES`].
    pub const MAX_CORES: usize = pl_base::MAX_CORES;

    /// The empty set.
    pub fn new() -> SharerSet {
        SharerSet(0)
    }

    /// A set holding the given cores.
    pub fn of(cores: &[CoreId]) -> SharerSet {
        let mut s = SharerSet::new();
        for &c in cores {
            s.insert(c);
        }
        s
    }

    fn bit(core: CoreId) -> u64 {
        assert!(
            core.index() < Self::MAX_CORES,
            "sharer bitmap supports at most {} cores",
            Self::MAX_CORES
        );
        1u64 << core.index()
    }

    /// Adds `core` to the set (idempotent).
    pub fn insert(&mut self, core: CoreId) {
        self.0 |= Self::bit(core);
    }

    /// Removes `core` from the set (idempotent).
    pub fn remove(&mut self, core: CoreId) {
        self.0 &= !Self::bit(core);
    }

    /// Returns `true` if `core` is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        self.0 & Self::bit(core) != 0
    }

    /// Number of sharers.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if no core shares the line.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// This set minus `core`.
    pub fn without(&self, core: CoreId) -> SharerSet {
        SharerSet(self.0 & !Self::bit(core))
    }

    /// Sharers in ascending core-id order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(CoreId(i))
        })
    }
}

impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Directory-visible state of a line resident in the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirState {
    /// In the LLC, no L1 copies.
    #[default]
    Uncached,
    /// Read-only copies at the cores in the bitmap.
    Shared(SharerSet),
    /// A single L1 holds the line in E or M.
    Owned(CoreId),
}

impl DirState {
    /// Cores holding a copy, in ascending core-id order.
    pub fn holders(&self) -> SharerSet {
        match *self {
            DirState::Uncached => SharerSet::new(),
            DirState::Shared(s) => s,
            DirState::Owned(o) => SharerSet::of(&[o]),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LlcLine {
    state: DirState,
    dirty: bool,
}

/// An in-flight transaction occupying a line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Txn {
    /// Write with invalidations outstanding; waiting for Unblock/Abort.
    Write {
        writer: CoreId,
        star: bool,
        others: SharerSet,
    },
    /// Read forwarded to the owner; waiting for CopyBack.
    FwdS { owner: CoreId, requester: CoreId },
    /// Write forwarded to the owner; waiting for Unblock/Abort.
    FwdX {
        owner: CoreId,
        writer: CoreId,
        star: bool,
    },
    /// DRAM fetch in flight.
    Fetch,
    /// Back-invalidations outstanding for an eviction; the payload is the
    /// line whose fill is waiting for this victim's way.
    Evict {
        acks_left: usize,
        for_fill: LineAddr,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    DramDone(LineAddr),
    RetryFill(LineAddr),
}

/// A fill waiting for DRAM and/or an LLC way.
#[derive(Debug, Clone, Copy)]
struct FillReq {
    requester: CoreId,
    write: bool,
}

/// Delay before re-attempting an allocation whose victims were all busy or
/// pinned. Pinned loads retire in bounded time, so this always terminates.
const RETRY_FILL_DELAY: u64 = 20;

/// Pre-allocated capacity of the per-slice transaction tables. Sized for
/// the worst case of every core's MSHRs plus eviction transactions all
/// homed at one slice; the tables can grow past it, but in practice
/// never do, so the hot path allocates nothing.
const TXN_TABLE_CAPACITY: usize = 256;

/// Interned ids for every counter the slice bumps on the message path.
/// The directory handles a few messages per machine cycle on parallel
/// workloads, so these go through [`Stats::incr_id`] (a vector index)
/// rather than the string-keyed map walk.
#[derive(Debug, Clone, Copy)]
struct SliceStatIds {
    gets: StatId,
    getx: StatId,
    getx_star: StatId,
    nacks: StatId,
    clears: StatId,
    aborts: StatId,
    evictions: StatId,
    evictions_retried: StatId,
    evictions_denied: StatId,
    back_invs: StatId,
    dram_fetches: StatId,
}

impl SliceStatIds {
    /// Interns every slice counter in `stats`. Interning alone keeps the
    /// counters at zero (invisible until written), but makes them known
    /// to strict lookups (`Stats::get_known`) even on runs where the
    /// protocol path never fires.
    fn intern(stats: &mut Stats) -> SliceStatIds {
        SliceStatIds {
            gets: stats.counter_id("llc.gets"),
            getx: stats.counter_id("llc.getx"),
            getx_star: stats.counter_id("llc.getx_star"),
            nacks: stats.counter_id("llc.nacks"),
            clears: stats.counter_id("llc.clears"),
            aborts: stats.counter_id("llc.aborts"),
            evictions: stats.counter_id("llc.evictions"),
            evictions_retried: stats.counter_id("llc.evictions_retried"),
            evictions_denied: stats.counter_id("llc.evictions_denied"),
            back_invs: stats.counter_id("llc.back_invs"),
            dram_fetches: stats.counter_id("llc.dram_fetches"),
        }
    }
}

/// One LLC slice plus directory bank.
///
/// Drive it by feeding network messages to [`LlcSlice::handle`] and
/// calling [`LlcSlice::tick`] every cycle; collect outbound messages with
/// [`LlcSlice::drain_outbox`].
#[derive(Debug, Clone)]
pub struct LlcSlice {
    id: usize,
    cache: Cache<LlcLine>,
    busy: LineTable<Txn>,
    waiting_fills: LineTable<FillReq>,
    timers: BinaryHeap<Reverse<(Cycle, u64, Timer)>>,
    timer_seq: u64,
    dram_latency: u64,
    outbox: Vec<(NodeId, Msg)>,
    stats: Stats,
    stat_ids: SliceStatIds,
    tracer: Tracer,
    /// Reused victim-candidate buffer for [`LlcSlice::try_place`].
    lru_scratch: Vec<(u64, LineAddr)>,
    check: CheckSink,
    /// Armed single-shot protocol mutation (checker regression tests).
    mutation: Mutation,
    mutation_armed: bool,
}

impl LlcSlice {
    /// Creates slice `id` with the geometry from `cfg`.
    pub fn new(id: usize, cfg: &MemConfig) -> LlcSlice {
        let mut stats = Stats::new();
        let stat_ids = SliceStatIds::intern(&mut stats);
        LlcSlice {
            id,
            cache: Cache::new(&cfg.llc_slice),
            busy: LineTable::with_capacity(TXN_TABLE_CAPACITY),
            waiting_fills: LineTable::with_capacity(TXN_TABLE_CAPACITY),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            dram_latency: cfg.dram_latency,
            outbox: Vec::new(),
            stats,
            stat_ids,
            tracer: Tracer::disabled(TraceSource::Slice(id)),
            lru_scratch: Vec::new(),
            check: CheckSink::disabled(),
            mutation: Mutation::None,
            mutation_armed: false,
        }
    }

    /// Switches on invariant-check event recording (and arms the
    /// directory-side mutation, if configured) per `cfg`.
    pub fn enable_verify(&mut self, cfg: &VerifyConfig) {
        self.check = CheckSink::new(cfg.enabled);
        self.mutation = cfg.mutation;
        self.mutation_armed = cfg.mutation == Mutation::DropClear;
    }

    /// Moves buffered check events into `out`, preserving order.
    pub fn drain_check_events(&mut self, out: &mut Vec<CheckEvent>) {
        self.check.drain_into(out);
    }

    /// Switches on event tracing for this slice's directory controller and
    /// data array, each with a ring buffer of `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::new(TraceSource::Slice(self.id), capacity);
        self.cache.enable_trace(TraceSource::Llc(self.id), capacity);
    }

    /// The directory controller's tracer (coherence message events).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The data array's tracer (install/evict events).
    pub fn cache_tracer(&self) -> &Tracer {
        self.cache.tracer()
    }

    /// This slice's index (its tile on the mesh).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The directory state of `line`, if resident. Exposed for tests and
    /// for the machine's invariant checks.
    pub fn dir_state(&self, line: LineAddr) -> Option<DirState> {
        self.cache.peek(line).map(|l| l.state)
    }

    /// Returns `true` if a transaction is in flight for `line`.
    pub fn is_busy(&self, line: LineAddr) -> bool {
        self.busy.contains_key(line)
    }

    /// One-line description of in-flight transactions for deadlock
    /// diagnostics.
    pub fn debug_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("slice{}:", self.id);
        // Sort by line for a canonical dump: the tables iterate in
        // deterministic insertion order, but a diagnosis reads better
        // (and diffs cleaner) keyed by address.
        let mut busy: Vec<_> = self.busy.iter().collect();
        busy.sort_unstable_by_key(|&(line, _)| line);
        for (line, txn) in busy {
            let _ = write!(s, " busy[{line} {txn:?}]");
        }
        let mut fills: Vec<_> = self.waiting_fills.keys().collect();
        fills.sort_unstable();
        for line in fills {
            let _ = write!(s, " fill_wait[{line}]");
        }
        let _ = write!(s, " timers={}", self.timers.len());
        s
    }

    /// Removes and returns all outbound messages.
    pub fn drain_outbox(&mut self) -> Vec<(NodeId, Msg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Moves all outbound messages into a caller-owned buffer, keeping the
    /// outbox's allocation for reuse.
    pub fn drain_outbox_into(&mut self, out: &mut Vec<(NodeId, Msg)>) {
        out.append(&mut self.outbox);
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        self.tracer.emit(EventKind::MsgSend {
            kind: msg.kind(),
            line: msg.line(),
        });
        self.outbox.push((dst, msg));
    }

    fn arm_timer(&mut self, at: Cycle, t: Timer) {
        self.timer_seq += 1;
        self.timers.push(Reverse((at, self.timer_seq, t)));
    }

    /// Processes timers due at `now` (DRAM completions, allocation
    /// retries). Returns `true` if any timer fired — the slice is
    /// otherwise quiet this cycle (it only reacts to messages and timers).
    pub fn tick(&mut self, now: Cycle, pins: &dyn PinView) -> bool {
        self.tracer.set_now(now);
        self.cache.tracer_mut().set_now(now);
        let mut fired = false;
        while let Some(Reverse((at, _, _))) = self.timers.peek() {
            if *at > now {
                break;
            }
            let Reverse((_, _, timer)) = self.timers.pop().expect("peeked timer exists");
            fired = true;
            match timer {
                Timer::DramDone(line) | Timer::RetryFill(line) => self.try_place(line, now, pins),
            }
        }
        fired
    }

    /// The earliest pending timer, if any — a bound for the machine's
    /// idle-cycle fast-forward.
    pub fn next_timer(&self) -> Option<Cycle> {
        self.timers.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Handles one inbound message.
    pub fn handle(&mut self, msg: Msg, now: Cycle, pins: &dyn PinView) {
        if self.tracer.enabled() {
            self.tracer.set_now(now);
            self.cache.tracer_mut().set_now(now);
            self.tracer.emit(EventKind::MsgRecv {
                kind: msg.kind(),
                line: msg.line(),
            });
        }
        match msg {
            Msg::GetS { line, requester } => self.on_gets(line, requester, now),
            Msg::GetX {
                line,
                requester,
                star,
            } => self.on_getx(line, requester, star, now),
            Msg::PutS { line, from } => self.on_puts(line, from),
            Msg::PutM { line, from } => self.on_putm(line, from),
            Msg::Unblock { line, from } => self.on_unblock(line, from),
            Msg::Abort { line, from } => self.on_abort(line, from),
            Msg::CopyBack { line, from, dirty } => self.on_copyback(line, from, dirty),
            Msg::BackInvAck { line, from, dirty } => {
                self.on_backinv_ack(line, from, dirty, now, pins)
            }
            Msg::BackInvDefer { line, from } => self.on_backinv_defer(line, from, now),
            other => {
                debug_assert!(
                    false,
                    "slice {} received unexpected message {other}",
                    self.id
                );
            }
        }
    }

    fn on_gets(&mut self, line: LineAddr, requester: CoreId, now: Cycle) {
        self.stats.incr_id(self.stat_ids.gets);
        if self.busy.contains_key(line) {
            self.stats.incr_id(self.stat_ids.nacks);
            self.send(
                NodeId::Core(requester),
                Msg::Nack {
                    line,
                    was_write: false,
                },
            );
            return;
        }
        match self.cache.get_mut(line).map(|l| l.state) {
            None => self.start_fetch(
                line,
                FillReq {
                    requester,
                    write: false,
                },
                now,
            ),
            Some(DirState::Uncached) => {
                // Sole copy: grant E so a later write upgrades silently.
                self.set_state(line, DirState::Owned(requester));
                self.send(
                    NodeId::Core(requester),
                    Msg::Data {
                        line,
                        grant: DataGrant::Exclusive,
                        acks_expected: 0,
                    },
                );
            }
            Some(DirState::Shared(mut sharers)) => {
                sharers.insert(requester);
                self.set_state(line, DirState::Shared(sharers));
                self.send(
                    NodeId::Core(requester),
                    Msg::Data {
                        line,
                        grant: DataGrant::Shared,
                        acks_expected: 0,
                    },
                );
            }
            Some(DirState::Owned(owner)) if owner == requester => {
                // Stale request (the owner's eviction notice must have been
                // reordered past a retry); re-grant.
                self.send(
                    NodeId::Core(requester),
                    Msg::Data {
                        line,
                        grant: DataGrant::Exclusive,
                        acks_expected: 0,
                    },
                );
            }
            Some(DirState::Owned(owner)) => {
                self.busy.insert(line, Txn::FwdS { owner, requester });
                self.send(NodeId::Core(owner), Msg::FwdGetS { line, requester });
            }
        }
    }

    fn on_getx(&mut self, line: LineAddr, requester: CoreId, star: bool, now: Cycle) {
        self.stats.incr_id(self.stat_ids.getx);
        if star {
            self.stats.incr_id(self.stat_ids.getx_star);
        }
        if self.busy.contains_key(line) {
            self.stats.incr_id(self.stat_ids.nacks);
            self.send(
                NodeId::Core(requester),
                Msg::Nack {
                    line,
                    was_write: true,
                },
            );
            return;
        }
        match self.cache.get_mut(line).map(|l| l.state) {
            None => self.start_fetch(
                line,
                FillReq {
                    requester,
                    write: true,
                },
                now,
            ),
            Some(DirState::Uncached) => {
                self.set_state_dirty(line, DirState::Owned(requester));
                self.send(
                    NodeId::Core(requester),
                    Msg::Data {
                        line,
                        grant: DataGrant::Modified,
                        acks_expected: 0,
                    },
                );
            }
            Some(DirState::Shared(sharers)) => {
                let others = sharers.without(requester);
                if others.is_empty() {
                    self.set_state_dirty(line, DirState::Owned(requester));
                    self.send(
                        NodeId::Core(requester),
                        Msg::Data {
                            line,
                            grant: DataGrant::Modified,
                            acks_expected: 0,
                        },
                    );
                } else {
                    self.send(
                        NodeId::Core(requester),
                        Msg::Data {
                            line,
                            grant: DataGrant::Modified,
                            acks_expected: others.len(),
                        },
                    );
                    for sharer in others.iter() {
                        self.send(
                            NodeId::Core(sharer),
                            Msg::Inv {
                                line,
                                requester,
                                star,
                            },
                        );
                    }
                    self.busy.insert(
                        line,
                        Txn::Write {
                            writer: requester,
                            star,
                            others,
                        },
                    );
                }
            }
            Some(DirState::Owned(owner)) if owner == requester => {
                self.set_state_dirty(line, DirState::Owned(requester));
                self.send(
                    NodeId::Core(requester),
                    Msg::Data {
                        line,
                        grant: DataGrant::Modified,
                        acks_expected: 0,
                    },
                );
            }
            Some(DirState::Owned(owner)) => {
                self.busy.insert(
                    line,
                    Txn::FwdX {
                        owner,
                        writer: requester,
                        star,
                    },
                );
                self.send(
                    NodeId::Core(owner),
                    Msg::FwdGetX {
                        line,
                        requester,
                        star,
                    },
                );
            }
        }
    }

    fn on_puts(&mut self, line: LineAddr, from: CoreId) {
        if let Some(l) = self.cache.get_mut(line) {
            if let DirState::Shared(sharers) = &mut l.state {
                sharers.remove(from);
                if sharers.is_empty() {
                    l.state = DirState::Uncached;
                }
            } else if l.state == DirState::Owned(from) {
                // A clean E copy was dropped.
                l.state = DirState::Uncached;
            }
        }
    }

    fn on_putm(&mut self, line: LineAddr, from: CoreId) {
        if let Some(l) = self.cache.get_mut(line) {
            if l.state == DirState::Owned(from) {
                l.state = DirState::Uncached;
                l.dirty = true;
            }
        }
    }

    fn on_unblock(&mut self, line: LineAddr, from: CoreId) {
        match self.busy.remove(line) {
            Some(Txn::Write {
                writer,
                star,
                others,
            }) if writer == from => {
                self.set_state_dirty(line, DirState::Owned(writer));
                if star {
                    self.check.emit(CheckEvent::StarredCommit {
                        line,
                        sharers: others.len(),
                    });
                    if self.take_drop_clear_mutation() {
                        // Mutation test: swallow the whole Clear broadcast
                        // once, leaking the sharers' CPT entries.
                    } else {
                        // Figure 5(b): tell every former sharer to clear
                        // its CPT.
                        for sharer in others.iter() {
                            self.check.emit(CheckEvent::ClearSent { line, to: sharer });
                            self.send(NodeId::Core(sharer), Msg::Clear { line });
                        }
                        self.stats.incr_id(self.stat_ids.clears);
                    }
                }
            }
            Some(Txn::FwdX {
                owner,
                writer,
                star,
            }) if writer == from => {
                self.set_state_dirty(line, DirState::Owned(writer));
                if star {
                    self.check
                        .emit(CheckEvent::StarredCommit { line, sharers: 1 });
                    if self.take_drop_clear_mutation() {
                        // Mutation test: swallow the Clear once.
                    } else {
                        self.check.emit(CheckEvent::ClearSent { line, to: owner });
                        self.send(NodeId::Core(owner), Msg::Clear { line });
                        self.stats.incr_id(self.stat_ids.clears);
                    }
                }
            }
            other => {
                // Stale unblock; restore whatever transaction was there.
                if let Some(t) = other {
                    self.busy.insert(line, t);
                }
            }
        }
    }

    fn on_abort(&mut self, line: LineAddr, from: CoreId) {
        // Figure 3(b)/5(a): exit the transient state without changing the
        // sharer bits.
        match self.busy.get(line) {
            Some(Txn::Write { writer, .. }) if *writer == from => {
                self.busy.remove(line);
                self.stats.incr_id(self.stat_ids.aborts);
                self.check.emit(CheckEvent::DirAbort { line, from });
            }
            Some(Txn::FwdX { writer, .. }) if *writer == from => {
                self.busy.remove(line);
                self.stats.incr_id(self.stat_ids.aborts);
                self.check.emit(CheckEvent::DirAbort { line, from });
            }
            _ => {}
        }
    }

    /// Consumes the armed `DropClear` mutation, if any. Fires at most
    /// once per run.
    fn take_drop_clear_mutation(&mut self) -> bool {
        if self.mutation_armed && self.mutation == Mutation::DropClear {
            self.mutation_armed = false;
            true
        } else {
            false
        }
    }

    fn on_copyback(&mut self, line: LineAddr, from: CoreId, dirty: bool) {
        if let Some(Txn::FwdS { owner, requester }) = self.busy.get(line).cloned() {
            if owner == from {
                self.busy.remove(line);
                if let Some(l) = self.cache.get_mut(line) {
                    l.state = DirState::Shared(SharerSet::of(&[owner, requester]));
                    l.dirty |= dirty;
                }
            }
        }
    }

    fn on_backinv_ack(
        &mut self,
        line: LineAddr,
        from: CoreId,
        dirty: bool,
        now: Cycle,
        pins: &dyn PinView,
    ) {
        // Remove the responder from the sharer set regardless of
        // transaction state (it has invalidated its copy).
        if let Some(l) = self.cache.get_mut(line) {
            l.dirty |= dirty;
            match &mut l.state {
                DirState::Shared(s) => {
                    s.remove(from);
                    if s.is_empty() {
                        l.state = DirState::Uncached;
                    }
                }
                DirState::Owned(o) if *o == from => l.state = DirState::Uncached,
                _ => {}
            }
        }
        if let Some(Txn::Evict {
            acks_left,
            for_fill,
        }) = self.busy.get_mut(line)
        {
            *acks_left -= 1;
            if *acks_left == 0 {
                let fill = *for_fill;
                self.busy.remove(line);
                // Victim fully invalidated: free the way and place the fill.
                self.cache.invalidate(line);
                self.stats.incr_id(self.stat_ids.evictions);
                self.place_fill(fill, now, pins);
            }
        }
    }

    fn on_backinv_defer(&mut self, line: LineAddr, from: CoreId, now: Cycle) {
        let _ = from;
        if let Some(Txn::Evict { for_fill, .. }) = self.busy.get(line).cloned() {
            // A core pinned the victim between selection and delivery:
            // cancel the eviction, refresh the victim's recency, retry the
            // allocation later (Section 5.1.3).
            self.busy.remove(line);
            self.cache.touch(line);
            self.stats.incr_id(self.stat_ids.evictions_retried);
            self.arm_timer(now + RETRY_FILL_DELAY, Timer::RetryFill(for_fill));
        }
    }

    fn start_fetch(&mut self, line: LineAddr, req: FillReq, now: Cycle) {
        self.stats.incr_id(self.stat_ids.dram_fetches);
        self.busy.insert(line, Txn::Fetch);
        self.waiting_fills.insert(line, req);
        self.arm_timer(now + self.dram_latency, Timer::DramDone(line));
    }

    /// Attempts to place a fetched line into the cache, possibly starting
    /// an eviction transaction for a victim.
    fn try_place(&mut self, line: LineAddr, now: Cycle, pins: &dyn PinView) {
        if !self.waiting_fills.contains_key(line) {
            return; // already placed (stale retry timer)
        }
        // Fast path: a free way or a holder-less victim.
        let attempt = self.cache.insert(line, LlcLine::default(), |victim, meta| {
            meta.state == DirState::Uncached && !self.busy.contains_key(victim)
        });
        match attempt {
            Ok(evicted) => {
                if evicted.is_some() {
                    self.stats.incr_id(self.stat_ids.evictions);
                }
                self.place_fill(line, now, pins);
            }
            Err(_) => {
                // Every silent candidate was vetoed: pick a shared/owned
                // victim that is not busy and not pinned, and back-
                // invalidate its holders.
                let mut candidates = std::mem::take(&mut self.lru_scratch);
                self.cache.lru_candidates_into(line, &mut candidates);
                let victim = candidates
                    .iter()
                    .map(|&(_, v)| v)
                    .find(|&v| !self.busy.contains_key(v) && !pins.is_pinned_by_any(v));
                self.lru_scratch = candidates;
                match victim {
                    Some(v) => {
                        let holders = self
                            .cache
                            .peek(v)
                            .map(|l| l.state.holders())
                            .unwrap_or_default();
                        debug_assert!(!holders.is_empty(), "silent path should have taken this");
                        self.busy.insert(
                            v,
                            Txn::Evict {
                                acks_left: holders.len(),
                                for_fill: line,
                            },
                        );
                        for h in holders.iter() {
                            self.stats.incr_id(self.stat_ids.back_invs);
                            self.send(
                                NodeId::Core(h),
                                Msg::BackInv {
                                    line: v,
                                    slice: self.id,
                                },
                            );
                        }
                    }
                    None => {
                        // All ways pinned or busy: retry after pins drain.
                        self.stats.incr_id(self.stat_ids.evictions_denied);
                        self.arm_timer(now + RETRY_FILL_DELAY, Timer::RetryFill(line));
                    }
                }
            }
        }
    }

    /// Installs a fill whose way is guaranteed free and answers the
    /// requester.
    fn place_fill(&mut self, line: LineAddr, _now: Cycle, _pins: &dyn PinView) {
        let Some(req) = self.waiting_fills.remove(line) else {
            return;
        };
        self.busy.remove(line); // clear the Fetch marker
        let (state, grant) = if req.write {
            (DirState::Owned(req.requester), DataGrant::Modified)
        } else {
            (DirState::Owned(req.requester), DataGrant::Exclusive)
        };
        let dirty = req.write;
        let inserted = self
            .cache
            .insert(line, LlcLine { state, dirty }, |victim, meta| {
                meta.state == DirState::Uncached && !self.busy.contains_key(victim)
            });
        match inserted {
            Ok(evicted) => {
                if evicted.is_some() {
                    self.stats.incr_id(self.stat_ids.evictions);
                }
                self.send(
                    NodeId::Core(req.requester),
                    Msg::Data {
                        line,
                        grant,
                        acks_expected: 0,
                    },
                );
            }
            Err(_) => {
                // The way we freed got consumed by a racing fill; go back
                // through the placement path.
                self.waiting_fills.insert(line, req);
                self.busy.insert(line, Txn::Fetch);
                self.try_place(line, _now, _pins);
            }
        }
    }

    fn set_state(&mut self, line: LineAddr, state: DirState) {
        if let Some(l) = self.cache.get_mut(line) {
            l.state = state;
        }
    }

    fn set_state_dirty(&mut self, line: LineAddr, state: DirState) {
        if let Some(l) = self.cache.get_mut(line) {
            l.state = state;
            l.dirty = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoPins;
    use pl_base::Addr;

    fn slice() -> LlcSlice {
        LlcSlice::new(0, &MemConfig::default())
    }

    fn line(n: u64) -> LineAddr {
        Addr::new(n * 64).line()
    }

    fn run_dram(s: &mut LlcSlice, upto: u64) -> Vec<(NodeId, Msg)> {
        let mut out = Vec::new();
        for c in 0..=upto {
            s.tick(Cycle(c), &NoPins);
            out.extend(s.drain_outbox());
        }
        out
    }

    #[test]
    fn cold_gets_fetches_from_dram_and_grants_e() {
        let mut s = slice();
        s.handle(
            Msg::GetS {
                line: line(1),
                requester: CoreId(0),
            },
            Cycle(0),
            &NoPins,
        );
        assert!(s.is_busy(line(1)));
        assert_eq!(s.stats().get_known("llc.dram_fetches"), 1);
        let out = run_dram(&mut s, 200);
        assert_eq!(
            out,
            vec![(
                NodeId::Core(CoreId(0)),
                Msg::Data {
                    line: line(1),
                    grant: DataGrant::Exclusive,
                    acks_expected: 0
                }
            )]
        );
        assert_eq!(s.dir_state(line(1)), Some(DirState::Owned(CoreId(0))));
        assert!(!s.is_busy(line(1)));
    }

    #[test]
    fn second_reader_triggers_fwd_gets() {
        let mut s = slice();
        s.handle(
            Msg::GetS {
                line: line(1),
                requester: CoreId(0),
            },
            Cycle(0),
            &NoPins,
        );
        run_dram(&mut s, 200);
        s.handle(
            Msg::GetS {
                line: line(1),
                requester: CoreId(1),
            },
            Cycle(300),
            &NoPins,
        );
        let out = s.drain_outbox();
        assert_eq!(
            out,
            vec![(
                NodeId::Core(CoreId(0)),
                Msg::FwdGetS {
                    line: line(1),
                    requester: CoreId(1)
                }
            )]
        );
        // Owner copies back; both become sharers.
        s.handle(
            Msg::CopyBack {
                line: line(1),
                from: CoreId(0),
                dirty: false,
            },
            Cycle(310),
            &NoPins,
        );
        assert_eq!(
            s.dir_state(line(1)),
            Some(DirState::Shared(SharerSet::of(&[CoreId(0), CoreId(1)])))
        );
    }

    fn make_shared_by_two(s: &mut LlcSlice) -> LineAddr {
        let l = line(1);
        s.handle(
            Msg::GetS {
                line: l,
                requester: CoreId(0),
            },
            Cycle(0),
            &NoPins,
        );
        run_dram(s, 200);
        s.handle(
            Msg::GetS {
                line: l,
                requester: CoreId(1),
            },
            Cycle(300),
            &NoPins,
        );
        s.drain_outbox();
        s.handle(
            Msg::CopyBack {
                line: l,
                from: CoreId(0),
                dirty: false,
            },
            Cycle(310),
            &NoPins,
        );
        l
    }

    #[test]
    fn write_to_shared_line_invalidates_and_unblocks() {
        let mut s = slice();
        let l = make_shared_by_two(&mut s);
        s.handle(
            Msg::GetX {
                line: l,
                requester: CoreId(2),
                star: false,
            },
            Cycle(400),
            &NoPins,
        );
        let out = s.drain_outbox();
        assert!(out.contains(&(
            NodeId::Core(CoreId(2)),
            Msg::Data {
                line: l,
                grant: DataGrant::Modified,
                acks_expected: 2
            }
        )));
        assert!(out.contains(&(
            NodeId::Core(CoreId(0)),
            Msg::Inv {
                line: l,
                requester: CoreId(2),
                star: false
            }
        )));
        assert!(out.contains(&(
            NodeId::Core(CoreId(1)),
            Msg::Inv {
                line: l,
                requester: CoreId(2),
                star: false
            }
        )));
        assert!(s.is_busy(l));
        // Other requests are nacked while busy (transient state).
        s.handle(
            Msg::GetS {
                line: l,
                requester: CoreId(3),
            },
            Cycle(401),
            &NoPins,
        );
        assert_eq!(
            s.drain_outbox(),
            vec![(
                NodeId::Core(CoreId(3)),
                Msg::Nack {
                    line: l,
                    was_write: false
                }
            )]
        );
        // Writer completes.
        s.handle(
            Msg::Unblock {
                line: l,
                from: CoreId(2),
            },
            Cycle(410),
            &NoPins,
        );
        assert_eq!(s.dir_state(l), Some(DirState::Owned(CoreId(2))));
        assert!(!s.is_busy(l));
    }

    #[test]
    fn abort_leaves_sharers_unchanged() {
        let mut s = slice();
        let l = make_shared_by_two(&mut s);
        s.handle(
            Msg::GetX {
                line: l,
                requester: CoreId(2),
                star: false,
            },
            Cycle(400),
            &NoPins,
        );
        s.drain_outbox();
        s.handle(
            Msg::Abort {
                line: l,
                from: CoreId(2),
            },
            Cycle(405),
            &NoPins,
        );
        assert!(!s.is_busy(l));
        assert_eq!(
            s.dir_state(l),
            Some(DirState::Shared(SharerSet::of(&[CoreId(0), CoreId(1)])))
        );
        assert_eq!(s.stats().get_known("llc.aborts"), 1);
    }

    #[test]
    fn starred_unblock_broadcasts_clear() {
        let mut s = slice();
        let l = make_shared_by_two(&mut s);
        s.handle(
            Msg::GetX {
                line: l,
                requester: CoreId(2),
                star: true,
            },
            Cycle(400),
            &NoPins,
        );
        let out = s.drain_outbox();
        assert!(out
            .iter()
            .any(|(_, m)| matches!(m, Msg::Inv { star: true, .. })));
        s.handle(
            Msg::Unblock {
                line: l,
                from: CoreId(2),
            },
            Cycle(410),
            &NoPins,
        );
        let out = s.drain_outbox();
        let clears: Vec<_> = out
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Clear { .. }))
            .collect();
        assert_eq!(clears.len(), 2, "both former sharers receive Clear");
        assert_eq!(s.stats().get_known("llc.clears"), 1);
    }

    #[test]
    fn upgrade_with_sole_sharer_completes_immediately() {
        let mut s = slice();
        let l = line(2);
        s.handle(
            Msg::GetS {
                line: l,
                requester: CoreId(0),
            },
            Cycle(0),
            &NoPins,
        );
        run_dram(&mut s, 200);
        // Owner requests write permission (it holds E; treat as GetX).
        s.handle(
            Msg::GetX {
                line: l,
                requester: CoreId(0),
                star: false,
            },
            Cycle(300),
            &NoPins,
        );
        let out = s.drain_outbox();
        assert_eq!(
            out,
            vec![(
                NodeId::Core(CoreId(0)),
                Msg::Data {
                    line: l,
                    grant: DataGrant::Modified,
                    acks_expected: 0
                }
            )]
        );
        assert!(!s.is_busy(l));
    }

    #[test]
    fn write_to_owned_line_forwards_to_owner() {
        let mut s = slice();
        let l = line(3);
        s.handle(
            Msg::GetX {
                line: l,
                requester: CoreId(0),
                star: false,
            },
            Cycle(0),
            &NoPins,
        );
        run_dram(&mut s, 200);
        s.handle(
            Msg::GetX {
                line: l,
                requester: CoreId(1),
                star: false,
            },
            Cycle(300),
            &NoPins,
        );
        let out = s.drain_outbox();
        assert_eq!(
            out,
            vec![(
                NodeId::Core(CoreId(0)),
                Msg::FwdGetX {
                    line: l,
                    requester: CoreId(1),
                    star: false
                }
            )]
        );
        s.handle(
            Msg::Unblock {
                line: l,
                from: CoreId(1),
            },
            Cycle(320),
            &NoPins,
        );
        assert_eq!(s.dir_state(l), Some(DirState::Owned(CoreId(1))));
    }

    #[test]
    fn puts_and_putm_update_state() {
        let mut s = slice();
        let l = make_shared_by_two(&mut s);
        s.handle(
            Msg::PutS {
                line: l,
                from: CoreId(0),
            },
            Cycle(500),
            &NoPins,
        );
        assert_eq!(
            s.dir_state(l),
            Some(DirState::Shared(SharerSet::of(&[CoreId(1)])))
        );
        s.handle(
            Msg::PutS {
                line: l,
                from: CoreId(1),
            },
            Cycle(501),
            &NoPins,
        );
        assert_eq!(s.dir_state(l), Some(DirState::Uncached));

        let l2 = line(9);
        s.handle(
            Msg::GetX {
                line: l2,
                requester: CoreId(0),
                star: false,
            },
            Cycle(600),
            &NoPins,
        );
        run_dram(&mut s, 800);
        s.handle(
            Msg::PutM {
                line: l2,
                from: CoreId(0),
            },
            Cycle(900),
            &NoPins,
        );
        assert_eq!(s.dir_state(l2), Some(DirState::Uncached));
    }
}
