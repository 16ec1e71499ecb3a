//! The out-of-order core pipeline.
//!
//! One [`Core`] models the Table 1 processor: 8-wide fetch/issue/commit, a
//! 192-entry ROB, 62-entry load queue, 32-entry store queue, a write
//! buffer, an LTAGE-class branch predictor, and a private L1D with MSHRs.
//! It implements TSO (loads squashed when their line is invalidated or
//! evicted before retirement, with the oldest load exempt — the aggressive
//! implementation of Section 2, with the conservative variant as a
//! config knob), the four squash sources of the Comprehensive threat
//! model, the Fence/DOM/STT defense schemes plus an InvisiSpec-class
//! invisible-speculation extension, and both Pinned Loads designs.
//!
//! A core communicates with the memory system exclusively through
//! coherence messages: the machine delivers inbound messages via
//! [`Core::handle_msg`] and drains [`Core::drain_outbox`] into the NoC.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use pl_base::verify::{VP_ALIAS, VP_CTRL, VP_EXCEPTION};
use pl_base::{
    Addr, CheckEvent, CheckSink, CoreId, CoreSnapshot, Cycle, HistId, InvalidateCause, LineAddr,
    LineMode, MachineConfig, Mutation, PinMode, SeqNum, StatId, Stats,
};
use pl_isa::{Inst, Operand, Pc, Program, Reg};
use pl_mem::{
    home_slice, Cache, DataGrant, Memory, Mesi, Msg, MshrFile, NodeId, WbState, WriteBuffer,
};
use pl_predictor::BranchPredictor;
use pl_secure::scheme::LoadContext;
use pl_secure::{IssuePolicy, PinGovernor, PinState, VpMask, VpStatus};
use pl_trace::{EventKind, TraceSource, Tracer};

use crate::dyninst::{DynInst, LqEntry, PredInfo, SqEntry, SrcList, Stage};

/// Delay before retrying a nacked coherence request.
const NACK_RETRY_DELAY: u64 = 5;
/// Delay before retrying a write that was deferred by a pinned sharer.
const DEFER_RETRY_DELAY: u64 = 12;
/// Delay before retrying an L1 install whose set was fully pinned.
const INSTALL_RETRY_DELAY: u64 = 6;
/// Fetch-buffer capacity in instructions.
const FETCH_BUF_CAP: usize = 16;
/// How often the core samples ROB/LQ/write-buffer occupancy. Public so
/// the machine's idle-cycle fast-forward can replay the samples a skipped
/// window would have taken.
pub const OCC_SAMPLE_PERIOD: u64 = 32;

#[derive(Debug, Clone, PartialEq)]
struct Fetched {
    pc: Pc,
    inst: Inst,
    pred: Option<PredInfo>,
}

/// What to do once a denied L1 install finally succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstallAction {
    /// Complete the read miss: wake the MSHR waiters.
    ReadFill,
    /// Merge the write-buffer head and finish the write transaction.
    WriteMerge { needs_unblock: bool },
    /// Finish the atomic at the ROB head.
    AtomicFinish { needs_unblock: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingInstall {
    line: LineAddr,
    state: Mesi,
    action: InstallAction,
    retry_at: Cycle,
}

/// In-flight `GetX` transaction for the atomic at the ROB head.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct AtomicTxn {
    active: bool,
    line: LineAddr,
    use_star: bool,
    acks_pending: usize,
    saw_defer: bool,
    have_data: bool,
    needs_unblock: bool,
    waiting_retry: bool,
    retry_at: Cycle,
}

/// Per-cycle aggregates over the ROB used to evaluate VP conditions in
/// O(1) per load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Aggregates {
    oldest_unresolved_ctrl: Option<SeqNum>,
    oldest_unknown_store_addr: Option<SeqNum>,
    oldest_unknown_mem_addr: Option<SeqNum>,
    oldest_active_fence: Option<SeqNum>,
}

/// Pre-interned [`StatId`]/[`HistId`] handles for every statistic the
/// per-cycle pipeline touches, resolved once at construction so the hot
/// path never performs a string lookup. The string API remains available
/// as the cold-path shim for tests, exporters, and one-off events.
#[derive(Debug, Clone, Copy)]
struct CoreStatIds {
    cycles: StatId,
    retired: StatId,
    atomics: StatId,
    squashes: StatId,
    squashed_insts: StatId,
    wb_writes_retried: StatId,
    wb_merges: StatId,
    l1_invs_deferred: StatId,
    l1_back_invs_deferred: StatId,
    l1_nacks: StatId,
    l1_evictions: StatId,
    l1_evictions_denied: StatId,
    l1_hits: StatId,
    l1_misses: StatId,
    l1_prefetches: StatId,
    loads_performed: StatId,
    loads_forwarded: StatId,
    loads_invisible: StatId,
    loads_validated: StatId,
    squash_branch: StatId,
    squash_alias: StatId,
    squash_validation: StatId,
    squash_mcv_inv: StatId,
    squash_mcv_evict: StatId,
    stall_wb_full: StatId,
    stall_validation: StatId,
    stall_vp: StatId,
    stall_dom_miss: StatId,
    stall_taint: StatId,
    stall_store_data: StatId,
    stall_mshr_full: StatId,
    stall_rob_full: StatId,
    stall_lq_full: StatId,
    stall_sq_full: StatId,
    pin_ep_denied: StatId,
    occ_rob: HistId,
    occ_lq: HistId,
    occ_wb: HistId,
    rob_commit_latency: HistId,
}

impl CoreStatIds {
    fn intern(stats: &mut Stats) -> CoreStatIds {
        CoreStatIds {
            cycles: stats.counter_id("cycles"),
            retired: stats.counter_id("retired"),
            atomics: stats.counter_id("atomics"),
            squashes: stats.counter_id("squashes"),
            squashed_insts: stats.counter_id("squashed_insts"),
            wb_writes_retried: stats.counter_id("wb.writes_retried"),
            wb_merges: stats.counter_id("wb.merges"),
            l1_invs_deferred: stats.counter_id("l1.invs_deferred"),
            l1_back_invs_deferred: stats.counter_id("l1.back_invs_deferred"),
            l1_nacks: stats.counter_id("l1.nacks"),
            l1_evictions: stats.counter_id("l1.evictions"),
            l1_evictions_denied: stats.counter_id("l1.evictions_denied"),
            l1_hits: stats.counter_id("l1.hits"),
            l1_misses: stats.counter_id("l1.misses"),
            l1_prefetches: stats.counter_id("l1.prefetches"),
            loads_performed: stats.counter_id("loads.performed"),
            loads_forwarded: stats.counter_id("loads.forwarded"),
            loads_invisible: stats.counter_id("loads.invisible"),
            loads_validated: stats.counter_id("loads.validated"),
            squash_branch: stats.counter_id("squash.branch"),
            squash_alias: stats.counter_id("squash.alias"),
            squash_validation: stats.counter_id("squash.validation"),
            squash_mcv_inv: stats.counter_id("squash.mcv_inv"),
            squash_mcv_evict: stats.counter_id("squash.mcv_evict"),
            stall_wb_full: stats.counter_id("stall.wb_full"),
            stall_validation: stats.counter_id("stall.validation"),
            stall_vp: stats.counter_id("stall.vp"),
            stall_dom_miss: stats.counter_id("stall.dom_miss"),
            stall_taint: stats.counter_id("stall.taint"),
            stall_store_data: stats.counter_id("stall.store_data"),
            stall_mshr_full: stats.counter_id("stall.mshr_full"),
            stall_rob_full: stats.counter_id("stall.rob_full"),
            stall_lq_full: stats.counter_id("stall.lq_full"),
            stall_sq_full: stats.counter_id("stall.sq_full"),
            pin_ep_denied: stats.counter_id("pin.ep_denied"),
            occ_rob: stats.hist_id("occ.rob"),
            occ_lq: stats.hist_id("occ.lq"),
            occ_wb: stats.hist_id("occ.wb"),
            rob_commit_latency: stats.hist_id("rob.commit_latency"),
        }
    }
}

/// One simulated out-of-order core with its private L1.
#[derive(Debug, Clone)]
pub struct Core {
    id: CoreId,
    cfg: MachineConfig,
    program: Arc<Program>,
    policy: IssuePolicy,
    vp_mask: VpMask,

    bp: BranchPredictor,
    fetch_pc: Pc,
    fetch_halted: bool,
    fetch_stalled_until: Cycle,
    fetch_buf: VecDeque<Fetched>,

    rob: VecDeque<DynInst>,
    next_seq: SeqNum,
    rename: [Option<SeqNum>; pl_isa::inst::NUM_REGS],
    regfile: [u64; pl_isa::inst::NUM_REGS],

    lq: Vec<LqEntry>,
    sq: Vec<SqEntry>,
    wb: WriteBuffer,
    wb_needs_unblock: bool,

    l1: Cache<Mesi>,
    mshrs: MshrFile,
    pending_installs: Vec<PendingInstall>,
    read_retries: Vec<(Cycle, LineAddr)>,

    governor: PinGovernor,
    /// STT: some input of the ROB's taint bits changed since the last
    /// propagation pass (a load was marked or cleared, an entry was
    /// dispatched, or a tainted entry retired), so the next pass must
    /// re-derive them. While it is clear, every non-load's bit already
    /// equals the OR of its in-ROB producers' bits.
    taint_dirty: bool,
    atomic: AtomicTxn,

    arch_call_stack: Vec<Pc>,
    /// VP-condition aggregates, recomputed once per cycle.
    aggr: Aggregates,
    outbox: Vec<(NodeId, Msg)>,
    /// Pipeline event tracer; disabled (zero-cost) unless
    /// `cfg.trace.enabled` is set.
    tracer: Tracer,
    /// Invariant-check event sink; disabled (zero-cost) unless
    /// `cfg.verify.enabled` is set.
    check: CheckSink,
    /// Armed single-shot protocol mutation (checker regression tests).
    mutation: Mutation,
    mutation_armed: bool,
    stats: Stats,
    ids: CoreStatIds,
    halted: bool,
    retired: u64,

    /// Reusable per-tick scratch buffers: drained and refilled each cycle
    /// so the steady-state tick allocates nothing.
    scratch_installs: Vec<PendingInstall>,
    scratch_lines: Vec<LineAddr>,
    scratch_seqs: Vec<SeqNum>,
    scratch_due: Vec<(Cycle, SeqNum)>,

    /// Pending `Executing` completions as a `(done_at, seq)` min-heap,
    /// pushed on every transition into `Executing`. May hold stale
    /// entries (squashed, or re-issued after a squash reused the seq);
    /// `complete_executing` drops anything that no longer matches a
    /// live `Executing { done_at }` entry exactly.
    exec_heap: BinaryHeap<Reverse<(Cycle, SeqNum)>>,
    /// Seq-ascending indices over the ROB backing O(1) [`Core::aggregates`]:
    /// every control / fence / memory / store instruction currently in
    /// flight, minus a lazily-dropped resolved prefix. Pushed at dispatch,
    /// back-purged on squash; a front entry is popped once its condition
    /// (completion, address resolution) permanently clears.
    agg_ctrl: VecDeque<SeqNum>,
    agg_fence: VecDeque<SeqNum>,
    agg_mem: VecDeque<SeqNum>,
    agg_store: VecDeque<SeqNum>,
    /// One byte per ROB entry, kept in lockstep with `rob` (pushed at
    /// dispatch, popped at retire/squash), so the non-memory issue pass
    /// can find its candidates without touching the ~50x larger
    /// `DynInst` entries. Values: [`ISSUE_SKIP`] — the pass will never
    /// act on the entry again (left `Dispatched`, or `issue_done`);
    /// [`ISSUE_CHECK`] — re-examine every cycle (unexamined, woken,
    /// head-gated, or blocked with no identifiable producer);
    /// [`ISSUE_PARKED`] — blocked on `issue_blocked_on` and linked into
    /// that producer's waiter chain, which flips the flag back to
    /// [`ISSUE_CHECK`] when the producer completes.
    issue_flags: VecDeque<u8>,
    /// Seq-sorted queue of exactly the [`ISSUE_CHECK`] entries: the
    /// candidates the non-memory issue pass visits, in program order.
    /// Maintained incrementally at every flag transition (dispatch and
    /// wake insert; the pass itself drops entries it demotes; squash
    /// back-purges), so the pass never scans the ROB or even the flag
    /// mirror — its cost is proportional to the handful of entries that
    /// can actually make progress.
    issue_queue: VecDeque<SeqNum>,
}

/// `issue_flags` value: entry needs no further attention from the
/// non-memory issue pass.
const ISSUE_SKIP: u8 = 0;
/// `issue_flags` value: entry must be examined every cycle.
const ISSUE_CHECK: u8 = 1;
/// `issue_flags` value: entry waits on `issue_blocked_on`; examine only
/// after a completion.
const ISSUE_PARKED: u8 = 2;

impl Core {
    /// Creates a core running `program` under the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`MachineConfig::validate`] first.
    pub fn new(id: CoreId, cfg: &MachineConfig, program: Arc<Program>) -> Core {
        cfg.validate()
            .expect("core requires a valid machine configuration");
        let vp_mask = VpMask::from(cfg.threat_model);
        let trace_cap = cfg.trace.capacity();
        let mut l1 = Cache::new(&cfg.mem.l1d);
        l1.enable_trace(TraceSource::CoreL1(id.0), trace_cap);
        let mut governor = PinGovernor::new(cfg);
        governor.enable_trace(id.0, trace_cap);
        let mut stats = Stats::new();
        let ids = CoreStatIds::intern(&mut stats);
        // Interned up front so strict lookups see it even when it (as it
        // should) stays zero.
        stats.add("protocol.ack_underflows", 0);
        Core {
            id,
            cfg: cfg.clone(),
            program,
            policy: IssuePolicy::new(cfg.defense),
            vp_mask,
            bp: BranchPredictor::new(cfg.core.btb_entries, cfg.core.ras_entries),
            fetch_pc: Pc::ENTRY,
            fetch_halted: false,
            fetch_stalled_until: Cycle::ZERO,
            fetch_buf: VecDeque::new(),
            rob: VecDeque::new(),
            next_seq: SeqNum(0),
            rename: [None; pl_isa::inst::NUM_REGS],
            regfile: [0; pl_isa::inst::NUM_REGS],
            lq: Vec::new(),
            sq: Vec::new(),
            wb: WriteBuffer::new(cfg.core.write_buffer_entries),
            wb_needs_unblock: false,
            l1,
            mshrs: MshrFile::new(cfg.mem.l1d.mshr_entries),
            pending_installs: Vec::new(),
            read_retries: Vec::new(),
            governor,
            taint_dirty: false,
            atomic: AtomicTxn::default(),
            arch_call_stack: Vec::new(),
            aggr: Aggregates::default(),
            outbox: Vec::new(),
            tracer: Tracer::new(TraceSource::Core(id.0), trace_cap),
            check: CheckSink::new(cfg.verify.enabled),
            mutation: cfg.verify.mutation,
            mutation_armed: cfg.verify.mutation == Mutation::IgnorePinOnInv,
            stats,
            ids,
            halted: false,
            retired: 0,
            scratch_installs: Vec::new(),
            scratch_lines: Vec::new(),
            scratch_seqs: Vec::new(),
            scratch_due: Vec::new(),
            exec_heap: BinaryHeap::with_capacity(cfg.core.rob_entries),
            agg_ctrl: VecDeque::with_capacity(cfg.core.rob_entries),
            agg_fence: VecDeque::with_capacity(cfg.core.rob_entries),
            agg_mem: VecDeque::with_capacity(cfg.core.rob_entries),
            agg_store: VecDeque::with_capacity(cfg.core.rob_entries),
            issue_flags: VecDeque::with_capacity(cfg.core.rob_entries),
            issue_queue: VecDeque::with_capacity(cfg.core.rob_entries),
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Overrides the Visibility-Point mask, used by the Figure 1 study to
    /// release fences at the four cumulative points instead of a full
    /// threat model.
    pub fn set_vp_mask(&mut self, mask: VpMask) {
        self.vp_mask = mask;
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Returns `true` once the program halted and all buffered state
    /// (write buffer, in-flight transactions) has drained.
    pub fn quiesced(&self) -> bool {
        self.halted
            && self.wb.is_empty()
            && !self.atomic.active
            && self.outbox.is_empty()
            && self.pending_installs.is_empty()
    }

    /// Returns `true` once the program has executed its halt.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Accumulated per-core statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The pinning governor (pin statistics, CPT state).
    pub fn governor(&self) -> &PinGovernor {
        &self.governor
    }

    /// The tracers owned by this core, in canonical merge order:
    /// pipeline, private L1, pin governor. All are disabled (and empty)
    /// unless the machine configuration enabled tracing.
    pub fn tracers(&self) -> [&Tracer; 3] {
        [&self.tracer, self.l1.tracer(), self.governor.tracer()]
    }

    /// Sets an architectural register before the program starts, used by
    /// workloads to pass arguments (base pointers, thread IDs).
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        if !reg.is_zero() {
            self.regfile[reg.index()] = value;
        }
    }

    /// Reads an architectural register after the program halts.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regfile[reg.index()]
    }

    /// Returns `true` if this core currently has `line` pinned — the
    /// machine's `PinView` consults this.
    pub fn is_line_pinned(&self, line: LineAddr) -> bool {
        self.governor.is_line_pinned(line)
    }

    /// One-line description of pipeline state for deadlock diagnostics.
    pub fn debug_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{}: halted={} rob={} lq={} sq={} wb={} retired={}",
            self.id,
            self.halted,
            self.rob.len(),
            self.lq.len(),
            self.sq.len(),
            self.wb.len(),
            self.retired
        );
        if let Some(head) = self.rob.front() {
            let _ = write!(s, " head=[{} {} {:?}]", head.seq, head.inst, head.stage);
        }
        if let Some(wbh) = self.wb.head() {
            let _ = write!(
                s,
                " wb_head=[{} {:?} acks={} defer={} star={}]",
                wbh.line(),
                wbh.state,
                wbh.acks_pending,
                wbh.saw_defer,
                wbh.use_star
            );
        }
        if self.atomic.active {
            let _ = write!(
                s,
                " atomic=[{} retry={}]",
                self.atomic.line, self.atomic.waiting_retry
            );
        }
        // Sort for a deterministic dump: MSHRs live in a hash map, and a
        // diagnosis must not depend on its iteration order.
        let mut mshr_lines: Vec<_> = self.mshrs.lines().collect();
        mshr_lines.sort_unstable();
        let mut sep = " mshrs=[";
        for l in mshr_lines {
            let _ = write!(s, "{sep}{l}");
            sep = ", ";
        }
        if sep == ", " {
            s.push(']');
        }
        if !self.pending_installs.is_empty() {
            let _ = write!(s, " pending_installs={}", self.pending_installs.len());
        }
        s
    }

    /// Removes and returns all outbound coherence messages.
    pub fn drain_outbox(&mut self) -> Vec<(NodeId, Msg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains all outbound coherence messages into `out`, preserving both
    /// buffers' capacity (the steady-state routing path).
    pub fn drain_outbox_into(&mut self, out: &mut Vec<(NodeId, Msg)>) {
        out.append(&mut self.outbox);
    }

    /// Returns `true` while no outbound coherence message is pending.
    /// The machine's spin-parking replay asserts this after each
    /// catch-up tick: a verified spin window sent nothing, so neither
    /// may its repeats.
    pub fn outbox_is_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    fn home(&self, line: LineAddr) -> NodeId {
        NodeId::Slice(home_slice(line, self.cfg.mem.llc_slices))
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        self.outbox.push((dst, msg));
    }

    // ------------------------------------------------------------------
    // Inbound coherence messages
    // ------------------------------------------------------------------

    /// Processes one message delivered by the interconnect.
    pub fn handle_msg(&mut self, msg: Msg, now: Cycle, image: &mut Memory) {
        match msg {
            Msg::Data {
                line,
                grant,
                acks_expected,
            } => self.on_data(line, grant, acks_expected, now, image),
            Msg::OwnerData { line, grant, .. } => self.on_owner_data(line, grant, now, image),
            Msg::Inv {
                line,
                requester,
                star,
            } => self.on_inv(line, requester, star, now),
            Msg::FwdGetS { line, requester } => self.on_fwd_gets(line, requester),
            Msg::FwdGetX {
                line,
                requester,
                star,
            } => self.on_fwd_getx(line, requester, star, now),
            Msg::BackInv { line, slice } => self.on_back_inv(line, slice, now),
            Msg::Clear { line } => self.on_clear_msg(line),
            Msg::Nack { line, was_write } => self.on_nack(line, was_write, now),
            Msg::InvAck { line, .. } => self.on_inv_ack(line, false, now, image),
            Msg::InvDefer { line, .. } => self.on_inv_ack(line, true, now, image),
            other => {
                debug_assert!(
                    false,
                    "core {} received unexpected message {other}",
                    self.id
                );
            }
        }
    }

    fn write_txn_matches(&self, line: LineAddr) -> Option<bool /*is_atomic*/> {
        if self.atomic.active && !self.atomic.waiting_retry && self.atomic.line == line {
            return Some(true);
        }
        if let Some(head) = self.wb.head() {
            if head.state == WbState::Requested && head.line() == line {
                return Some(false);
            }
        }
        None
    }

    fn on_data(
        &mut self,
        line: LineAddr,
        grant: DataGrant,
        acks_expected: usize,
        now: Cycle,
        image: &mut Memory,
    ) {
        if grant == DataGrant::Modified {
            match self.write_txn_matches(line) {
                Some(true) => {
                    self.atomic.have_data = true;
                    self.atomic.acks_pending = acks_expected;
                    self.atomic.needs_unblock = acks_expected > 0;
                    self.try_finish_write(true, now, image);
                    return;
                }
                Some(false) => {
                    let head = self.wb.head_mut().expect("matched write txn has a head");
                    head.have_data = true;
                    head.acks_pending = acks_expected;
                    self.wb_needs_unblock = acks_expected > 0;
                    self.try_finish_write(false, now, image);
                    return;
                }
                None => {}
            }
        }
        // Read fill.
        let state = match grant {
            DataGrant::Shared => Mesi::Shared,
            DataGrant::Exclusive => Mesi::Exclusive,
            DataGrant::Modified => Mesi::Modified,
        };
        self.install_or_queue(line, state, InstallAction::ReadFill, now, image);
    }

    fn on_owner_data(&mut self, line: LineAddr, grant: DataGrant, now: Cycle, image: &mut Memory) {
        if grant == DataGrant::Modified {
            match self.write_txn_matches(line) {
                Some(true) => {
                    self.atomic.have_data = true;
                    self.atomic.needs_unblock = true;
                    self.try_finish_write(true, now, image);
                    return;
                }
                Some(false) => {
                    let head = self.wb.head_mut().expect("matched write txn has a head");
                    head.have_data = true;
                    self.wb_needs_unblock = true;
                    self.try_finish_write(false, now, image);
                    return;
                }
                None => {}
            }
        }
        self.install_or_queue(line, Mesi::Shared, InstallAction::ReadFill, now, image);
    }

    fn on_inv_ack(&mut self, line: LineAddr, defer: bool, now: Cycle, image: &mut Memory) {
        match self.write_txn_matches(line) {
            Some(true) => {
                if defer {
                    self.atomic.saw_defer = true;
                }
                if self.atomic.acks_pending > 0 {
                    self.atomic.acks_pending -= 1;
                } else if self.atomic.have_data {
                    self.record_ack_underflow(line);
                }
                self.try_finish_write(true, now, image);
            }
            Some(false) => {
                let underflow = {
                    let head = self.wb.head_mut().expect("matched write txn has a head");
                    if defer {
                        head.saw_defer = true;
                    }
                    if head.acks_pending > 0 {
                        head.acks_pending -= 1;
                        false
                    } else {
                        head.have_data
                    }
                };
                if underflow {
                    self.record_ack_underflow(line);
                }
                self.try_finish_write(false, now, image);
            }
            None => {
                // Stale response from an aborted attempt; drop it.
            }
        }
    }

    /// An InvAck/InvDefer arrived *after* this transaction's Data had
    /// already set (and the acks drained) the expected count. A
    /// zero-count ack *before* Data is different — it is a stale response
    /// from an aborted earlier attempt on the same line, which
    /// `write_txn_matches` cannot distinguish, and same-round acks can
    /// never beat the Data (mesh triangle inequality) — so only the
    /// post-Data case is a protocol violation. The old `saturating_sub`
    /// silently swallowed both; the stale case is still tolerated, while
    /// the genuine underflow now panics in debug builds and is counted
    /// and reported to the checker in release builds.
    fn record_ack_underflow(&mut self, line: LineAddr) {
        self.check.emit(CheckEvent::AckUnderflow {
            core: self.id,
            line,
        });
        self.stats.incr("protocol.ack_underflows");
        debug_assert!(
            false,
            "core {}: InvAck underflow on {line} (more acks than expected)",
            self.id
        );
    }

    /// Checks whether the current write transaction (write-buffer head or
    /// atomic) can finish — all responses in — and either merges the write
    /// or aborts and schedules the starred retry.
    fn try_finish_write(&mut self, is_atomic: bool, now: Cycle, image: &mut Memory) {
        let (have_data, acks, saw_defer, needs_unblock) = if is_atomic {
            (
                self.atomic.have_data,
                self.atomic.acks_pending,
                self.atomic.saw_defer,
                self.atomic.needs_unblock,
            )
        } else {
            let Some(head) = self.wb.head() else { return };
            (
                head.have_data,
                head.acks_pending,
                head.saw_defer,
                self.wb_needs_unblock,
            )
        };
        // For the FwdGetX path a defer arrives without data; treat the
        // defer itself as terminal once no acks remain.
        if acks > 0 || (!have_data && !saw_defer) {
            return;
        }
        let line = if is_atomic {
            self.atomic.line
        } else {
            self.wb.head().expect("write head exists").line()
        };
        if saw_defer {
            // A sharer pinned the line: abort at the directory, retry with
            // GetX* after a backoff (Figure 5a).
            self.send(
                self.home(line),
                Msg::Abort {
                    line,
                    from: self.id,
                },
            );
            self.stats.incr_id(self.ids.wb_writes_retried);
            self.tracer.emit(EventKind::WriteAborted { line });
            self.check.emit(CheckEvent::WriteAborted {
                core: self.id,
                line,
            });
            if is_atomic {
                self.atomic.use_star = true;
                self.atomic.have_data = false;
                self.atomic.saw_defer = false;
                self.atomic.waiting_retry = true;
                self.atomic.retry_at = now + DEFER_RETRY_DELAY;
            } else {
                let head = self.wb.head_mut().expect("write head exists");
                head.use_star = true;
                head.have_data = false;
                head.saw_defer = false;
                head.state = WbState::WaitingRetry;
                head.retry_at = now + DEFER_RETRY_DELAY;
            }
            return;
        }
        // Success: install in M and merge.
        let action = if is_atomic {
            InstallAction::AtomicFinish { needs_unblock }
        } else {
            InstallAction::WriteMerge { needs_unblock }
        };
        self.install_or_queue(line, Mesi::Modified, action, now, image);
    }

    fn on_inv(&mut self, line: LineAddr, requester: CoreId, star: bool, now: Cycle) {
        if star && self.governor.on_inv_star(line) {
            self.emit_cpt_inserted(line);
        }
        let pinned = self.governor.is_line_pinned(line);
        let ignore_pin = pinned && self.take_ignore_pin_mutation();
        if pinned && !ignore_pin {
            // Section 5.1.1: the cache is not invalidated, the load is not
            // squashed, and a Defer is sent to the writer.
            self.stats.incr_id(self.ids.l1_invs_deferred);
            self.tracer.emit(EventKind::InvDeferred { line });
            self.send(
                NodeId::Core(requester),
                Msg::InvDefer {
                    line,
                    from: self.id,
                },
            );
            return;
        }
        if !ignore_pin {
            // The mutation path deliberately skips the squash too: the
            // pinned load keeps its stale value, which is exactly the bug
            // the checker must flag.
            self.squash_tso_loads(line, self.ids.squash_mcv_inv, "mcv_inv", now);
        }
        self.l1.invalidate(line);
        self.check.emit(CheckEvent::L1Invalidated {
            core: self.id,
            line,
            cause: InvalidateCause::Inv,
        });
        self.send(
            NodeId::Core(requester),
            Msg::InvAck {
                line,
                from: self.id,
            },
        );
    }

    /// Consumes the armed `IgnorePinOnInv` mutation, if any. Fires at
    /// most once per run.
    fn take_ignore_pin_mutation(&mut self) -> bool {
        if self.mutation_armed && self.mutation == Mutation::IgnorePinOnInv {
            self.mutation_armed = false;
            true
        } else {
            false
        }
    }

    /// Reports a CPT insert (an `Inv*` arrived) to the checker.
    fn emit_cpt_inserted(&mut self, line: LineAddr) {
        self.check.emit(CheckEvent::CptInserted {
            core: self.id,
            line,
            occupancy: self.governor.cpt().occupancy(),
        });
    }

    /// Handles an inbound `Clear`: the starred write that forbade pinning
    /// this line has committed, so the CPT entry (if one was recorded —
    /// an overflowed CPT legally has none) is released.
    fn on_clear_msg(&mut self, line: LineAddr) {
        if self.governor.on_clear(line) {
            self.check.emit(CheckEvent::CptRemoved {
                core: self.id,
                line,
                occupancy: self.governor.cpt().occupancy(),
            });
        }
    }

    fn on_fwd_gets(&mut self, line: LineAddr, requester: CoreId) {
        // Downgrade M/E -> S; reads do not invalidate, so no squash and no
        // defer are needed.
        let dirty = match self.l1.get_mut(line) {
            Some(state) => {
                let was_dirty = *state == Mesi::Modified;
                *state = Mesi::Shared;
                was_dirty
            }
            None => false,
        };
        self.send(
            NodeId::Core(requester),
            Msg::OwnerData {
                line,
                grant: DataGrant::Shared,
                from: self.id,
            },
        );
        self.send(
            self.home(line),
            Msg::CopyBack {
                line,
                from: self.id,
                dirty,
            },
        );
    }

    fn on_fwd_getx(&mut self, line: LineAddr, requester: CoreId, star: bool, now: Cycle) {
        if star && self.governor.on_inv_star(line) {
            self.emit_cpt_inserted(line);
        }
        if self.governor.is_line_pinned(line) {
            self.stats.incr_id(self.ids.l1_invs_deferred);
            self.tracer.emit(EventKind::InvDeferred { line });
            self.send(
                NodeId::Core(requester),
                Msg::InvDefer {
                    line,
                    from: self.id,
                },
            );
            return;
        }
        self.squash_tso_loads(line, self.ids.squash_mcv_inv, "mcv_inv", now);
        self.l1.invalidate(line);
        self.check.emit(CheckEvent::L1Invalidated {
            core: self.id,
            line,
            cause: InvalidateCause::FwdGetX,
        });
        self.send(
            NodeId::Core(requester),
            Msg::OwnerData {
                line,
                grant: DataGrant::Modified,
                from: self.id,
            },
        );
    }

    fn on_back_inv(&mut self, line: LineAddr, slice: usize, now: Cycle) {
        if self.governor.is_line_pinned(line) {
            self.stats.incr_id(self.ids.l1_back_invs_deferred);
            self.tracer.emit(EventKind::InvDeferred { line });
            self.send(
                NodeId::Slice(slice),
                Msg::BackInvDefer {
                    line,
                    from: self.id,
                },
            );
            return;
        }
        self.squash_tso_loads(line, self.ids.squash_mcv_evict, "mcv_evict", now);
        let dirty = self.l1.invalidate(line) == Some(Mesi::Modified);
        self.check.emit(CheckEvent::L1Invalidated {
            core: self.id,
            line,
            cause: InvalidateCause::BackInv,
        });
        self.send(
            NodeId::Slice(slice),
            Msg::BackInvAck {
                line,
                from: self.id,
                dirty,
            },
        );
    }

    fn on_nack(&mut self, line: LineAddr, was_write: bool, now: Cycle) {
        self.stats.incr_id(self.ids.l1_nacks);
        if was_write {
            // The rejected request was our GetX (write-buffer head or
            // atomic); the tag prevents misattributing a nacked *read* on
            // the same line to the write transaction.
            if self.atomic.active && self.atomic.line == line && !self.atomic.waiting_retry {
                self.atomic.waiting_retry = true;
                self.atomic.retry_at = now + NACK_RETRY_DELAY;
                self.atomic.have_data = false;
                return;
            }
            if let Some(head) = self.wb.head_mut() {
                if head.state == WbState::Requested && head.line() == line {
                    head.state = WbState::WaitingRetry;
                    head.retry_at = now + NACK_RETRY_DELAY;
                    head.have_data = false;
                }
            }
            return;
        }
        // A read request was nacked: retry the GetS while the miss is
        // still wanted.
        if self.mshrs.contains(line) {
            self.read_retries.push((now + NACK_RETRY_DELAY, line));
        }
    }

    /// TSO conservative squash: any performed-but-unretired load on `line`
    /// that is not the oldest load in the ROB is squashed, along with its
    /// successors (Section 2). `counter` attributes the squash in the
    /// statistics and `cause` in the event trace.
    fn squash_tso_loads(
        &mut self,
        line: LineAddr,
        counter: StatId,
        cause: &'static str,
        now: Cycle,
    ) {
        // The aggressive implementation never squashes the oldest load in
        // the ROB (it cannot have been reordered); the conservative one
        // squashes any matching performed load (Section 2).
        let oldest_seq = if self.cfg.core.conservative_tso {
            None
        } else {
            self.lq.first().map(|e| e.seq)
        };
        let victim = self.lq.iter().find(|e| {
            e.performed()
                && !e.forwarded
                && !e.invisible
                && e.pin != PinState::Pinned
                && e.line() == Some(line)
                && Some(e.seq) != oldest_seq
        });
        if let Some(v) = victim {
            let seq = v.seq;
            debug_assert_eq!(
                v.pin,
                PinState::Unpinned,
                "pending loads have not performed"
            );
            let pc = self
                .rob_entry(seq)
                .map(|e| e.pc)
                .expect("squashed load is in the ROB");
            self.stats.incr_id(counter);
            self.squash_from(seq, pc, cause, now);
        }
    }

    // ------------------------------------------------------------------
    // Install path
    // ------------------------------------------------------------------

    fn install_or_queue(
        &mut self,
        line: LineAddr,
        state: Mesi,
        action: InstallAction,
        now: Cycle,
        image: &mut Memory,
    ) {
        // A late read fill (e.g. a nacked-then-regranted prefetch) must
        // not downgrade a line we already hold with write permission.
        let state = match self.l1.peek(line) {
            Some(&existing) if existing.writable() && !state.writable() => existing,
            _ => state,
        };
        if self.try_install(line, state, now) {
            self.run_install_action(line, action, now, image);
        } else {
            self.pending_installs.push(PendingInstall {
                line,
                state,
                action,
                retry_at: now + INSTALL_RETRY_DELAY,
            });
        }
    }

    /// Attempts to place `line` into the L1, honoring pinned-line eviction
    /// denial. Returns `false` if every victim in the set is pinned.
    fn try_install(&mut self, line: LineAddr, state: Mesi, now: Cycle) -> bool {
        let governor = &self.governor;
        let result = self
            .l1
            .insert(line, state, |victim, _| !governor.is_line_pinned(victim));
        match result {
            Ok(None) => true,
            Ok(Some((victim, victim_state))) => {
                // Evicting a line with performed unretired loads squashes
                // them (conservative TSO), and the directory must be told.
                self.squash_tso_loads(victim, self.ids.squash_mcv_evict, "mcv_evict", now);
                self.stats.incr_id(self.ids.l1_evictions);
                self.check.emit(CheckEvent::L1Invalidated {
                    core: self.id,
                    line: victim,
                    cause: InvalidateCause::Evict,
                });
                let msg = if victim_state == Mesi::Modified {
                    Msg::PutM {
                        line: victim,
                        from: self.id,
                    }
                } else {
                    Msg::PutS {
                        line: victim,
                        from: self.id,
                    }
                };
                self.send(self.home(victim), msg);
                true
            }
            Err(_) => {
                self.stats.incr_id(self.ids.l1_evictions_denied);
                false
            }
        }
    }

    fn run_install_action(
        &mut self,
        line: LineAddr,
        action: InstallAction,
        now: Cycle,
        image: &mut Memory,
    ) {
        match action {
            InstallAction::ReadFill => {
                let waiters = self.mshrs.complete(line);
                for seq in waiters {
                    self.perform_waiting_load(seq, now, image);
                }
                // Late Pinning: loads that issued pin-pending on this line
                // become pinned the moment their data arrives.
                self.promote_pending_pins(line);
            }
            InstallAction::WriteMerge { needs_unblock } => {
                let head = self.wb.pop().expect("write merge requires a head entry");
                image.write(head.addr, head.value);
                self.stats.incr_id(self.ids.wb_merges);
                self.check.emit(CheckEvent::WriteFinished {
                    core: self.id,
                    line,
                });
                if needs_unblock {
                    self.send(
                        self.home(line),
                        Msg::Unblock {
                            line,
                            from: self.id,
                        },
                    );
                }
                self.wb_needs_unblock = false;
                self.promote_pending_pins(line);
            }
            InstallAction::AtomicFinish { needs_unblock } => {
                self.finish_atomic(now, image);
                if needs_unblock {
                    self.send(
                        self.home(line),
                        Msg::Unblock {
                            line,
                            from: self.id,
                        },
                    );
                }
            }
        }
    }

    fn promote_pending_pins(&mut self, line: LineAddr) {
        for e in &mut self.lq {
            if e.pin != PinState::Pending || e.line() != Some(line) {
                continue;
            }
            e.pin = PinState::Pinned;
            if self.governor.record_pin(line) {
                self.check.emit(CheckEvent::PinAcquired {
                    core: self.id,
                    line,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // The pipeline tick
    // ------------------------------------------------------------------

    /// Advances the core by one cycle. Returns `true` if any pipeline
    /// state changed ("active"), `false` for a *quiet* tick whose only
    /// effects are time-independent statistics (the per-cycle counter,
    /// stall counters, occupancy samples). The machine's idle-cycle
    /// fast-forward relies on a quiet tick repeating identically until
    /// [`Core::next_timed_event`] or an inbound message.
    pub fn tick(&mut self, now: Cycle, image: &mut Memory) -> bool {
        self.stats.incr_id(self.ids.cycles);
        if now.raw().is_multiple_of(OCC_SAMPLE_PERIOD) {
            self.stats
                .sample_id(self.ids.occ_rob, self.rob.len() as u64);
            self.stats.sample_id(self.ids.occ_lq, self.lq.len() as u64);
            self.stats.sample_id(self.ids.occ_wb, self.wb.len() as u64);
        }
        if self.tracer.enabled() {
            self.tracer.set_now(now);
            self.l1.tracer_mut().set_now(now);
            self.governor.tracer_mut().set_now(now);
        }
        let mut active = self.retry_pending_installs(now, image);
        active |= self.retry_reads(now);
        active |= self.commit(now, image);
        active |= self.drain_write_buffer(now, image);
        active |= self.step_atomic(now, image);
        self.aggr = self.aggregates();
        self.check_vp_progress();
        if self.policy.tracks_taint() {
            active |= self.propagate_taint();
        }
        active |= self.pin_pass(now);
        active |= self.trace_vp_conditions();
        active |= self.complete_executing(now, image);
        active |= self.issue(now, image);
        active |= self.dispatch(now);
        active |= self.fetch(now);
        active
    }

    /// Re-synchronizes the tracers' clock without ticking. The naive run
    /// loop ticks every core every cycle, so a message handled at cycle
    /// `c` stamps trace events with the clock the previous tick left
    /// (`c - 1`); the event-driven loop calls this when waking a parked
    /// core so the stamps match exactly.
    pub fn sync_trace_now(&mut self, now: Cycle) {
        if self.tracer.enabled() {
            self.tracer.set_now(now);
            self.l1.tracer_mut().set_now(now);
            self.governor.tracer_mut().set_now(now);
        }
    }

    /// The earliest future cycle at which this core has self-scheduled
    /// work: execution completions, retry timers, the fetch-stall window.
    /// `None` means the core stays quiet until an inbound message (or
    /// some other core-visible state change) arrives. Candidates may be
    /// conservative — earlier than strictly necessary — because the
    /// machine only uses them to bound idle-cycle fast-forward skips.
    pub fn next_timed_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            next = Some(match next {
                Some(n) if n <= c => n,
                _ => c,
            });
        };
        // Min over pending completions. Stale heap entries only make the
        // bound conservatively early, which is allowed; every live
        // `Executing` entry is present, so it is never late.
        if let Some(&Reverse((done_at, _))) = self.exec_heap.peek() {
            consider(done_at);
        }
        for p in &self.pending_installs {
            consider(p.retry_at);
        }
        for &(at, _) in &self.read_retries {
            consider(at);
        }
        if let Some(h) = self.wb.head() {
            if h.state == WbState::WaitingRetry {
                consider(h.retry_at);
            }
        }
        if self.atomic.active && self.atomic.waiting_retry {
            consider(self.atomic.retry_at);
        }
        // Fetch wakes on its own only when the stall window expires while
        // there is buffer space; a full buffer waits on dispatch instead.
        if !self.fetch_halted
            && self.fetch_buf.len() < FETCH_BUF_CAP
            && now < self.fetch_stalled_until
        {
            consider(self.fetch_stalled_until);
        }
        next
    }

    /// Applies `ticks` quiet-tick statistic deltas and `occ_samples`
    /// occupancy-histogram samples in one shot — the machine's
    /// fast-forward replay. `*_before`/`*_after` are
    /// [`Stats::counter_values`] snapshots (core pipeline and pin
    /// governor) bracketing one representative quiet tick.
    pub fn replay_quiet_ticks(
        &mut self,
        core_before: &[u64],
        core_after: &[u64],
        gov_before: &[u64],
        gov_after: &[u64],
        ticks: u64,
        occ_samples: u64,
    ) {
        self.stats
            .replay_counter_delta(core_before, core_after, ticks);
        self.governor
            .stats_mut()
            .replay_counter_delta(gov_before, gov_after, ticks);
        if occ_samples > 0 {
            self.stats
                .sample_n_id(self.ids.occ_rob, self.rob.len() as u64, occ_samples);
            self.stats
                .sample_n_id(self.ids.occ_lq, self.lq.len() as u64, occ_samples);
            self.stats
                .sample_n_id(self.ids.occ_wb, self.wb.len() as u64, occ_samples);
        }
    }

    fn retry_pending_installs(&mut self, now: Cycle, image: &mut Memory) -> bool {
        if self.pending_installs.is_empty() {
            return false;
        }
        let mut due = std::mem::take(&mut self.scratch_installs);
        due.clear();
        self.pending_installs.retain(|p| {
            if p.retry_at <= now {
                due.push(*p);
                false
            } else {
                true
            }
        });
        let any = !due.is_empty();
        for p in due.drain(..) {
            self.install_or_queue(p.line, p.state, p.action, now, image);
        }
        self.scratch_installs = due;
        any
    }

    fn retry_reads(&mut self, now: Cycle) -> bool {
        if self.read_retries.is_empty() {
            return false;
        }
        let mut due = std::mem::take(&mut self.scratch_lines);
        due.clear();
        self.read_retries.retain(|&(at, line)| {
            if at <= now {
                due.push(line);
                false
            } else {
                true
            }
        });
        let any = !due.is_empty();
        for line in due.drain(..) {
            if self.mshrs.contains(line) {
                self.send(
                    self.home(line),
                    Msg::GetS {
                        line,
                        requester: self.id,
                    },
                );
            }
        }
        self.scratch_lines = due;
        any
    }

    // ---- commit ----

    fn commit(&mut self, now: Cycle, _image: &mut Memory) -> bool {
        // Every stall path breaks *before* mutating, so "anything retired"
        // is exactly "anything changed".
        let retired_before = self.retired;
        for _ in 0..self.cfg.core.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.completed() {
                break;
            }
            let seq = head.seq;
            let inst = head.inst;
            let pc = head.pc;
            let result = head.result;
            let head_dispatched = head.dispatched_at;
            let tainted = head.tainted;

            // Stores move to the write buffer at retirement (TSO).
            if matches!(inst, Inst::Store { .. }) {
                let entry = self.sq.first().expect("retiring store has an SQ entry");
                debug_assert_eq!(entry.seq, seq);
                let (addr, data) = (
                    entry.addr.expect("resolved store"),
                    entry.data.expect("resolved store"),
                );
                if self.wb.push(addr, data).is_err() {
                    self.stats.incr_id(self.ids.stall_wb_full);
                    break;
                }
                self.sq.remove(0);
            }
            if inst.is_load() && !inst.is_atomic() {
                let entry = self.lq.first().expect("retiring load has an LQ entry");
                debug_assert_eq!(entry.seq, seq);
                if entry.invisible {
                    // InvisiSpec: the exposed validation access has not
                    // completed; the load cannot leave the pipeline yet.
                    self.stats.incr_id(self.ids.stall_validation);
                    break;
                }
                if entry.pin == PinState::Pinned {
                    let line = entry.line().expect("pinned load has an address");
                    if self.governor.record_unpin(line) {
                        self.check.emit(CheckEvent::PinReleased {
                            core: self.id,
                            line,
                        });
                    }
                }
                if self.check.enabled() {
                    if let (Some(addr), Some(value)) = (entry.addr, entry.value) {
                        let latency = entry.performed_at.map_or(0, |p| p.since(head_dispatched));
                        self.check.emit(CheckEvent::LoadRetired {
                            core: self.id,
                            seq: seq.0,
                            addr,
                            value,
                            latency,
                        });
                    }
                }
                self.lq.remove(0);
            }
            match inst {
                Inst::Call { .. } => self.arch_call_stack.push(pc.next()),
                Inst::Ret => {
                    self.arch_call_stack.pop();
                }
                Inst::Halt => {
                    self.halted = true;
                    self.fetch_halted = true;
                }
                _ => {}
            }
            if let (Some(dst), Some(v)) = (inst.def_reg(), result) {
                self.regfile[dst.index()] = v;
                if self.rename[dst.index()] == Some(seq) {
                    self.rename[dst.index()] = None;
                }
            }
            // Consumers of a retired producer read its value as
            // architectural, hence untainted.
            self.taint_dirty |= tainted;
            self.rob.pop_front();
            self.issue_flags.pop_front();
            self.retired += 1;
            self.tracer.emit(EventKind::Retire {
                seq,
                pc: pc.0 as u64,
            });
            self.stats.incr_id(self.ids.retired);
            self.stats
                .sample_id(self.ids.rob_commit_latency, now.since(head_dispatched));
            if self.halted {
                break;
            }
        }
        self.retired != retired_before
    }

    // ---- write buffer drain ----

    fn drain_write_buffer(&mut self, now: Cycle, image: &mut Memory) -> bool {
        let Some(head) = self.wb.head() else {
            return false;
        };
        match head.state {
            WbState::Idle => {
                let line = head.line();
                let addr = head.addr;
                let value = head.value;
                let use_star = head.use_star;
                if self.l1.peek(line).is_some_and(|s| s.writable()) {
                    // Silent upgrade/merge: the line is already E/M here.
                    if let Some(s) = self.l1.get_mut(line) {
                        *s = Mesi::Modified;
                    }
                    image.write(addr, value);
                    self.wb.pop();
                    self.stats.incr_id(self.ids.wb_merges);
                    self.check.emit(CheckEvent::WriteFinished {
                        core: self.id,
                        line,
                    });
                    self.promote_pending_pins(line);
                } else {
                    self.send(
                        self.home(line),
                        Msg::GetX {
                            line,
                            requester: self.id,
                            star: use_star,
                        },
                    );
                    let head = self.wb.head_mut().expect("head still present");
                    head.state = WbState::Requested;
                    head.have_data = false;
                    head.saw_defer = false;
                    head.acks_pending = 0;
                    self.wb_needs_unblock = false;
                }
                // Both Idle branches mutate (merge or request send).
                true
            }
            WbState::Requested => false,
            WbState::WaitingRetry => {
                if now >= head.retry_at {
                    self.wb.head_mut().expect("head still present").state = WbState::Idle;
                    true
                } else {
                    false
                }
            }
        }
    }

    // ---- atomic execution at the ROB head ----

    fn step_atomic(&mut self, now: Cycle, image: &mut Memory) -> bool {
        let Some(head) = self.rob.front() else {
            return false;
        };
        if !head.inst.is_atomic() || head.completed() {
            return false;
        }
        if self.atomic.active {
            if self.atomic.waiting_retry && now >= self.atomic.retry_at {
                self.atomic.waiting_retry = false;
                self.atomic.saw_defer = false;
                self.atomic.have_data = false;
                let line = self.atomic.line;
                self.send(
                    self.home(line),
                    Msg::GetX {
                        line,
                        requester: self.id,
                        star: self.atomic.use_star,
                    },
                );
                return true;
            }
            return false;
        }
        // Atomics execute only at the head, with the write buffer drained,
        // to provide their LOCK fence semantics.
        if !self.wb.is_empty() {
            return false;
        }
        let seq = self.rob.front().expect("head checked").seq;
        if !self.operands_ready(seq) {
            return false;
        }
        let (base, offset) = self
            .rob
            .front()
            .expect("head checked")
            .inst
            .mem_operand()
            .expect("atomic is a memory op");
        let base_val = self.operand_value(seq, base);
        let addr = Addr::new(base_val.wrapping_add(offset as u64));
        let line = addr.line();
        if self.l1.peek(line).is_some_and(|s| s.writable()) {
            self.atomic.active = true;
            self.atomic.line = line;
            self.finish_atomic(now, image);
        } else {
            self.atomic = AtomicTxn {
                active: true,
                line,
                use_star: false,
                acks_pending: 0,
                saw_defer: false,
                have_data: false,
                needs_unblock: false,
                waiting_retry: false,
                retry_at: Cycle::ZERO,
            };
            self.send(
                self.home(line),
                Msg::GetX {
                    line,
                    requester: self.id,
                    star: false,
                },
            );
        }
        true
    }

    fn finish_atomic(&mut self, now: Cycle, image: &mut Memory) {
        let head = self.rob.front_mut().expect("atomic finish requires a head");
        debug_assert!(head.inst.is_atomic());
        let seq = head.seq;
        let inst = head.inst;
        let (base, offset) = inst.mem_operand().expect("atomic is a memory op");
        let base_val = self.operand_value(seq, base);
        let addr = Addr::new(base_val.wrapping_add(offset as u64));
        let line = addr.line();
        if let Some(s) = self.l1.get_mut(line) {
            *s = Mesi::Modified;
        } else {
            // The GetX path installs before calling us; the hit path has
            // the line already. Defensive install.
            let _ = self.try_install(line, Mesi::Modified, now);
        }
        let old = image.read(addr);
        let new = match inst {
            Inst::AtomicAdd { src, .. } => old.wrapping_add(self.operand_value(seq, src)),
            Inst::AtomicCas { cmp, src, .. } => {
                if old == self.operand_value(seq, cmp) {
                    self.operand_value(seq, src)
                } else {
                    old
                }
            }
            _ => unreachable!("finish_atomic on non-atomic"),
        };
        image.write(addr, new);
        let head = self.rob.front_mut().expect("head still present");
        head.result = Some(old);
        head.stage = Stage::Completed;
        self.wake_waiters(seq);
        self.atomic = AtomicTxn::default();
        self.stats.incr_id(self.ids.atomics);
        self.check.emit(CheckEvent::WriteFinished {
            core: self.id,
            line,
        });
    }

    // ---- taint propagation (STT) ----

    /// Re-derives the non-load taint bits if an input changed, then
    /// clears the bits of performed loads that reached their VP. The
    /// untaint scan runs every cycle: a VP arrives without any taint
    /// input changing.
    fn propagate_taint(&mut self) -> bool {
        debug_assert!(
            self.taint_dirty || self.taint_closed(),
            "a taint input changed without setting taint_dirty"
        );
        let mut changed = false;
        if std::mem::take(&mut self.taint_dirty) {
            // Walk in program order: producers precede consumers, so one
            // pass reaches a fixed point.
            for i in 0..self.rob.len() {
                let e = &self.rob[i];
                if e.inst.is_load() {
                    // A load's own taint is managed at perform/VP time.
                    continue;
                }
                let t = srcs_tainted(&self.rob, &e.srcs);
                if t != e.tainted {
                    self.rob[i].tainted = t;
                    changed = true;
                }
            }
        }
        // Untaint loads that have reached their VP.
        let aggr = self.aggr;
        for i in 0..self.lq.len() {
            let seq = self.lq[i].seq;
            if self.lq[i].performed() && self.rob_entry(seq).is_some_and(|d| d.tainted) {
                let status = self.vp_status_for(i, &aggr);
                if self.vp_mask.reached(status) {
                    let d = self.rob_entry_mut(seq).expect("checked above");
                    d.tainted = false;
                    self.taint_dirty = true;
                    changed = true;
                }
            }
        }
        changed
    }

    /// The closure invariant that makes skipping a clean pass exact
    /// (debug-build oracle for [`Core::propagate_taint`], in the style of
    /// [`Core::aggregates_reference`]): every non-load's taint bit equals
    /// the OR of its in-ROB producers' bits.
    fn taint_closed(&self) -> bool {
        self.rob
            .iter()
            .all(|e| e.inst.is_load() || e.tainted == srcs_tainted(&self.rob, &e.srcs))
    }

    // ---- pinning ----

    /// Number of yet-to-complete stores older than `seq` (in the write
    /// buffer or still in the SQ) — the Section 5.1.2 deadlock-avoidance
    /// count.
    fn older_incomplete_stores(&self, seq: SeqNum) -> usize {
        // The SQ is sorted by seq (dispatch appends in program order), so
        // the count of older stores is a partition point, not a scan.
        let older = self.sq.partition_point(|s| s.seq < seq);
        debug_assert_eq!(older, self.sq.iter().filter(|s| s.seq < seq).count());
        self.wb.len() + older
    }

    /// Non-ordering pin-eligibility conditions for LQ entry `i`.
    fn pin_eligible_base(&self, i: usize, aggr: &Aggregates) -> bool {
        let e = &self.lq[i];
        let Some(line) = e.line() else { return false };
        let status = self.vp_status_base(i, aggr);
        status.clear_except_mcv()
            && aggr.oldest_active_fence.is_none_or(|f| f > e.seq)
            && self.older_incomplete_stores(e.seq) <= self.wb.capacity()
            && self.governor.can_attempt_pin(line).is_ok()
    }

    /// Ordering prefix check: every load older than LQ index `i` is
    /// pinned, MCV-immune, retired, or is the (exempt, issued) oldest
    /// load.
    fn pin_order_ok(&self, i: usize) -> bool {
        let aggressive = !self.cfg.core.conservative_tso;
        self.lq.iter().take(i).enumerate().all(|(j, e)| {
            e.pin == PinState::Pinned
                || e.mcv_immune()
                || (aggressive && j == 0 && (e.performed() || e.waiting_fill))
        })
    }

    fn pin_pass(&mut self, _now: Cycle) -> bool {
        if self.governor.mode() == PinMode::Off {
            return false;
        }
        let mut active = false;
        let aggr = self.aggr;
        for i in 0..self.lq.len() {
            let e = &self.lq[i];
            match e.pin {
                PinState::Pinned => continue,
                // Strict program order: one pin-pending load blocks all
                // younger pins (Section 5.2).
                PinState::Pending => break,
                PinState::Unpinned => {}
            }
            if e.mcv_immune() {
                continue;
            }
            if !self.pin_order_ok(i) {
                break;
            }
            if !self.pin_eligible_base(i, &aggr) {
                // The oldest load is exempt from MCV squashes, so younger
                // loads may pin past it once it has issued; everyone else
                // blocks the frontier.
                if i == 0 && (e.performed() || e.waiting_fill) {
                    continue;
                }
                break;
            }
            let line = self.lq[i].line().expect("eligible load has an address");
            match self.governor.mode() {
                PinMode::Early => {
                    let lq_id = self.lq[i].lq_id;
                    let lq = &self.lq;
                    let live = |id: u64| -> Option<LineAddr> {
                        lq.iter()
                            .find(|x| x.lq_id == id && x.pin == PinState::Pinned)
                            .and_then(|x| x.line())
                    };
                    let governor = &mut self.governor;
                    // try_pin_early mutates governor statistics either way;
                    // treat any attempt as activity so EP-denied windows
                    // are never fast-forwarded over.
                    active = true;
                    match governor.try_pin_early(line, lq_id, &live) {
                        Ok(newly_pinned) => {
                            self.lq[i].pin = PinState::Pinned;
                            if newly_pinned {
                                self.check.emit(CheckEvent::PinAcquired {
                                    core: self.id,
                                    line,
                                });
                            }
                            continue;
                        }
                        Err(_) => {
                            self.stats.incr_id(self.ids.pin_ep_denied);
                            break;
                        }
                    }
                }
                PinMode::Late => {
                    let e = &self.lq[i];
                    if e.performed()
                        && !e.forwarded
                        && self.l1.peek(line).is_some_and(|s| s.readable())
                    {
                        self.lq[i].pin = PinState::Pinned;
                        if self.governor.record_pin(line) {
                            self.check.emit(CheckEvent::PinAcquired {
                                core: self.id,
                                line,
                            });
                        }
                        active = true;
                        continue;
                    }
                    if e.waiting_fill {
                        let seq = e.seq;
                        self.lq[i].pin = PinState::Pending;
                        self.tracer.emit(EventKind::PinPending { seq, line });
                        active = true;
                        break;
                    }
                    // Not yet issued: the issue stage will send it out
                    // pin-pending; stop the frontier here.
                    break;
                }
                PinMode::Off => unreachable!("checked above"),
            }
        }
        active
    }

    // ---- VP status ----

    fn aggregates(&mut self) -> Aggregates {
        // Each term is the oldest still-unresolved instruction of its
        // class. The `agg_*` deques hold the seq-ascending class members;
        // a front entry is popped once its condition clears, which is
        // permanent (completion and address resolution never revert for
        // a given dynamic instruction, and squashes purge the deques
        // eagerly), so the surviving front IS the oldest match.
        while let Some(&seq) = self.agg_ctrl.front() {
            match self.rob_entry(seq) {
                Some(e) if !e.completed() => break,
                _ => self.agg_ctrl.pop_front(),
            };
        }
        while let Some(&seq) = self.agg_fence.front() {
            match self.rob_entry(seq) {
                Some(e) if !e.completed() => break,
                _ => self.agg_fence.pop_front(),
            };
        }
        while let Some(&seq) = self.agg_mem.front() {
            if !self.agg_addr_known(seq) {
                break;
            }
            self.agg_mem.pop_front();
        }
        while let Some(&seq) = self.agg_store.front() {
            if !self.agg_addr_known(seq) {
                break;
            }
            self.agg_store.pop_front();
        }
        let a = Aggregates {
            oldest_unresolved_ctrl: self.agg_ctrl.front().copied(),
            oldest_active_fence: self.agg_fence.front().copied(),
            oldest_unknown_mem_addr: self.agg_mem.front().copied(),
            oldest_unknown_store_addr: self.agg_store.front().copied(),
        };
        debug_assert_eq!(a, self.aggregates_reference());
        a
    }

    /// Whether the memory instruction `seq` may leave the `agg_mem` /
    /// `agg_store` deques: retired, or its address is resolved. Returning
    /// `false` keeps it (matching the reference scan, which treats a
    /// mem instruction with a missing queue entry as address-unknown).
    fn agg_addr_known(&self, seq: SeqNum) -> bool {
        let Some(e) = self.rob_entry(seq) else {
            return true; // retired
        };
        if e.inst.is_atomic() {
            e.completed()
        } else if e.inst.is_load() {
            self.lq_index(seq)
                .is_some_and(|i| self.lq[i].addr.is_some())
        } else {
            self.sq_index(seq)
                .is_some_and(|i| self.sq[i].addr.is_some())
        }
    }

    /// The original full-ROB scan, kept as the debug-build oracle for the
    /// deque-backed [`Core::aggregates`] (via `debug_assert_eq!`; release
    /// builds never call it).
    fn aggregates_reference(&self) -> Aggregates {
        let mut a = Aggregates::default();
        for e in &self.rob {
            if e.inst.is_control() && !e.completed() && a.oldest_unresolved_ctrl.is_none() {
                a.oldest_unresolved_ctrl = Some(e.seq);
            }
            if e.inst.is_fence() && !e.completed() && a.oldest_active_fence.is_none() {
                a.oldest_active_fence = Some(e.seq);
            }
            if e.inst.is_mem() {
                let addr_known = if e.inst.is_atomic() {
                    e.completed()
                } else if e.inst.is_load() {
                    self.lq_index(e.seq)
                        .is_some_and(|i| self.lq[i].addr.is_some())
                } else {
                    self.sq_index(e.seq)
                        .is_some_and(|i| self.sq[i].addr.is_some())
                };
                if !addr_known {
                    if a.oldest_unknown_mem_addr.is_none() {
                        a.oldest_unknown_mem_addr = Some(e.seq);
                    }
                    if e.inst.is_store() && a.oldest_unknown_store_addr.is_none() {
                        a.oldest_unknown_store_addr = Some(e.seq);
                    }
                }
            }
        }
        a
    }

    /// VP conditions other than MCV for LQ entry `i`.
    fn vp_status_base(&self, i: usize, aggr: &Aggregates) -> VpStatus {
        let e = &self.lq[i];
        let seq = e.seq;
        VpStatus {
            ctrl_clear: aggr.oldest_unresolved_ctrl.is_none_or(|s| s > seq),
            alias_clear: aggr.oldest_unknown_store_addr.is_none_or(|s| s > seq),
            exception_clear: e.addr.is_some()
                && aggr.oldest_unknown_mem_addr.is_none_or(|s| s >= seq),
            mcv_clear: false,
        }
    }

    /// Full VP status for LQ entry `i`, including the MCV condition under
    /// the active pinning mode.
    fn vp_status_for(&self, i: usize, aggr: &Aggregates) -> VpStatus {
        let mut status = self.vp_status_base(i, aggr);
        let e = &self.lq[i];
        let is_oldest = i == 0;
        status.mcv_clear = e.mcv_immune()
            || is_oldest
            || match self.governor.mode() {
                PinMode::Off => false,
                PinMode::Early => false, // must actually be pinned
                PinMode::Late => {
                    e.pin == PinState::Pending
                        || (status.clear_except_mcv()
                            && self.pin_order_ok(i)
                            && self.pin_eligible_base(i, aggr))
                }
            };
        status
    }

    /// Trace-only LQ scan: attributes each load's VP progress to the
    /// first still-blocking condition and emits `VpBlocked` on every
    /// blocker transition and `VpClear` once the VP is reached. Runs only
    /// with tracing enabled; the simulated pipeline never reads the
    /// attribution fields.
    fn trace_vp_conditions(&mut self) -> bool {
        if !self.tracer.enabled() {
            return false;
        }
        let mut active = false;
        let aggr = self.aggr;
        for i in 0..self.lq.len() {
            let status = self.vp_status_for(i, &aggr);
            let blocker = self.vp_mask.blocking_condition(status);
            let seq = self.lq[i].seq;
            match blocker {
                Some(b) => {
                    if self.lq[i].vp_blocker != Some(b) {
                        self.lq[i].vp_blocker = Some(b);
                        self.tracer.emit(EventKind::VpBlocked { seq, blocker: b });
                        active = true;
                    }
                    // A cleared load can re-block (e.g. a younger check
                    // after a partial squash); let a later clear re-fire.
                    if self.lq[i].vp_clear_traced {
                        self.lq[i].vp_clear_traced = false;
                        active = true;
                    }
                }
                None => {
                    if !self.lq[i].vp_clear_traced {
                        self.lq[i].vp_clear_traced = true;
                        let last = self.lq[i].vp_blocker.unwrap_or("none");
                        self.tracer.emit(EventKind::VpClear { seq, blocker: last });
                        active = true;
                    }
                }
            }
        }
        active
    }

    /// Checker-only LQ scan mirroring [`Core::vp_status_base`]: reports
    /// each load's base VP-condition bits (control, alias, exception —
    /// the conditions that may only latch, never regress, within a load's
    /// lifetime) so the checker can assert monotone progress. MCV and pin
    /// eligibility legitimately re-block and are excluded. Never
    /// contributes to `tick`'s activity result: with the checker on or
    /// off, cycles, statistics, and traces must stay bit-identical.
    fn check_vp_progress(&mut self) {
        if !self.check.enabled() {
            return;
        }
        let aggr = self.aggr;
        for i in 0..self.lq.len() {
            let status = self.vp_status_base(i, &aggr);
            let mut bits = 0u8;
            if status.ctrl_clear {
                bits |= VP_CTRL;
            }
            if status.alias_clear {
                bits |= VP_ALIAS;
            }
            if status.exception_clear {
                bits |= VP_EXCEPTION;
            }
            if self.lq[i].vp_bits != bits {
                self.lq[i].vp_bits = bits;
                self.check.emit(CheckEvent::VpProgress {
                    core: self.id,
                    seq: self.lq[i].seq.0,
                    bits,
                });
            }
        }
    }

    /// Moves buffered check events into `out`, preserving order.
    pub fn drain_check_events(&mut self, out: &mut Vec<CheckEvent>) {
        self.check.drain_into(out);
    }

    /// Captures this core's coherence-visible state for the checker's
    /// periodic whole-machine scan (SWMR, pin/L1 agreement, CST/CPT
    /// occupancy bounds).
    pub fn check_snapshot(&self) -> CoreSnapshot {
        let l1_lines = self
            .l1
            .iter()
            .filter_map(|(line, &m)| {
                let mode = match m {
                    Mesi::Invalid => return None,
                    Mesi::Shared => LineMode::Shared,
                    Mesi::Exclusive => LineMode::Exclusive,
                    Mesi::Modified => LineMode::Modified,
                };
                Some((line, mode))
            })
            .collect();
        let mut pinned_lines: Vec<_> = self.governor.pinned_lines().collect();
        pinned_lines.sort_unstable();
        CoreSnapshot {
            core: self.id,
            l1_lines,
            pinned_lines,
            cpt_occupancy: self.governor.cpt().occupancy(),
            cpt_capacity: self.governor.cpt().capacity(),
            cst_l1: self.governor.cst_l1_usage(),
            cst_dir: self.governor.cst_dir_usage(),
        }
    }

    // ---- execute completion ----

    fn complete_executing(&mut self, now: Cycle, _image: &mut Memory) -> bool {
        if self.exec_heap.peek().is_none_or(|&Reverse((d, _))| d > now) {
            return false;
        }
        let mut active = false;
        let mut resolutions = std::mem::take(&mut self.scratch_seqs);
        resolutions.clear();
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        while let Some(&Reverse((d, seq))) = self.exec_heap.peek() {
            if d > now {
                break;
            }
            self.exec_heap.pop();
            due.push((d, seq));
        }
        // Flip in ROB (= seq) order, exactly like the scan this replaces.
        // The heap can hold stale pairs — the instruction was squashed, or
        // the seq was reused and re-issued with a different latency — and
        // duplicates of one pair; flipping only on an exact live match
        // (and at most once, since the first flip leaves `Completed`)
        // drops them all.
        due.sort_unstable_by_key(|&(_, seq)| seq);
        for &(d, seq) in &due {
            let tracer = &mut self.tracer;
            let Some(e) = rob_entry_mut_in(&mut self.rob, seq) else {
                continue;
            };
            if e.stage != (Stage::Executing { done_at: d }) {
                continue;
            }
            e.stage = Stage::Completed;
            active = true;
            tracer.emit(EventKind::Complete { seq });
            if e.inst.is_control() || matches!(e.inst, Inst::Store { .. }) {
                resolutions.push(seq);
            }
            self.wake_waiters(seq);
        }
        due.clear();
        self.scratch_due = due;
        for &seq in &resolutions {
            if self.rob_entry(seq).is_none() {
                continue; // squashed by an earlier resolution this cycle
            }
            let inst = self.rob_entry(seq).expect("checked").inst;
            if inst.is_control() {
                self.resolve_control(seq, now);
            } else {
                self.resolve_store(seq, now);
            }
        }
        resolutions.clear();
        self.scratch_seqs = resolutions;
        active
    }

    fn resolve_control(&mut self, seq: SeqNum, now: Cycle) {
        let e = self.rob_entry(seq).expect("resolving control in ROB");
        let pc = e.pc;
        let inst = e.inst;
        let pred = e
            .pred
            .clone()
            .expect("control instructions carry predictions");
        let (actual_taken, actual_target) = match inst {
            Inst::Branch {
                cond,
                src1,
                src2,
                target,
            } => {
                let a = self.operand_value(seq, src1);
                let b = self.operand_value(seq, src2);
                let taken = cond.eval(a, b);
                (taken, if taken { target } else { pc.next() })
            }
            Inst::Jump { target } | Inst::Call { target } => (true, target),
            Inst::Ret => (true, self.ret_target_at(seq)),
            _ => unreachable!("not a control instruction"),
        };
        let mispredicted = pred.target != actual_target;
        if inst.is_cond_branch() {
            self.bp
                .update_cond(pc, actual_taken, pred.taken, &pred.checkpoint);
        }
        self.bp.update_target(pc, actual_target);
        if mispredicted {
            self.stats.incr_id(self.ids.squash_branch);
            self.bp.recover(
                &pred.checkpoint,
                if inst.is_cond_branch() {
                    Some(actual_taken)
                } else {
                    None
                },
            );
            if inst == Inst::Ret {
                // Re-apply the ret's own pop on the restored RAS.
                let _ = self.bp.pop_return();
            }
            if matches!(inst, Inst::Call { .. }) {
                self.bp.push_return(pc.next());
            }
            self.squash_from(seq.next(), actual_target, "branch", now);
            self.fetch_stalled_until = now + self.cfg.core.mispredict_penalty;
        }
    }

    fn resolve_store(&mut self, seq: SeqNum, now: Cycle) {
        let Some(entry) = self.sq_index(seq).map(|i| &self.sq[i]) else {
            return;
        };
        let Some(addr) = entry.addr else { return };
        let word = addr.raw() >> 3;
        // Memory-order violation: a younger load already performed against
        // stale data (it read memory, or forwarded from a store older than
        // this one).
        let victim = self.lq.iter().find(|l| {
            l.seq > seq
                && l.performed()
                && l.addr.is_some_and(|a| a.raw() >> 3 == word)
                // The load is mis-ordered unless it already bound its
                // value from this store or a younger one; values from the
                // write buffer, memory, or an older store are all stale.
                && l.forwarded_from.is_none_or(|f| f < seq)
        });
        if let Some(v) = victim {
            let vseq = v.seq;
            debug_assert_eq!(v.pin, PinState::Unpinned, "pinned loads are never squashed");
            let pc = self.rob_entry(vseq).expect("victim load is in ROB").pc;
            self.stats.incr_id(self.ids.squash_alias);
            self.squash_from(vseq, pc, "alias", now);
            self.fetch_stalled_until = now + 3;
        }
    }

    /// Computes the architectural return target for the `Ret` at `seq`:
    /// the committed call stack adjusted by older in-flight calls/rets.
    fn ret_target_at(&self, seq: SeqNum) -> Pc {
        let mut stack = self.arch_call_stack.clone();
        for e in &self.rob {
            if e.seq >= seq {
                break;
            }
            match e.inst {
                Inst::Call { .. } => stack.push(e.pc.next()),
                Inst::Ret => {
                    stack.pop();
                }
                _ => {}
            }
        }
        stack
            .last()
            .copied()
            .unwrap_or_else(|| Pc(self.program.len()))
    }

    // ---- issue ----

    fn issue(&mut self, now: Cycle, image: &mut Memory) -> bool {
        let mut active = false;
        let mut budget = self.cfg.core.issue_width;
        // Non-memory and address-generation issue. Candidates come from
        // `issue_queue`: the program-order sequence numbers of exactly
        // the `ISSUE_CHECK` entries, maintained incrementally at
        // dispatch, wake, squash, and at each visit below — so the pass
        // touches only entries that can possibly make progress, with no
        // per-tick collection scan. Parked entries never appear here —
        // their producer's completion flips them back to `ISSUE_CHECK`
        // via its waiter chain, so a blocked arm is re-run exactly when
        // its operands may have become ready.
        debug_assert!(self.issue_flags_consistent());
        let head = self.rob.front().map_or(SeqNum(0), |e| e.seq);
        let mut qi = 0usize;
        // Unexamined candidates past the issue width stay queued and
        // are revisited next cycle, exactly as a full scan would
        // revisit them.
        while qi < self.issue_queue.len() && budget > 0 {
            let seq = self.issue_queue[qi];
            // A queued (`ISSUE_CHECK`) entry cannot have retired —
            // completion demotes the flag and dequeues first — so its
            // ROB slot is the seq offset from the head, which is stable
            // for the whole pass (no retirement here, and squashes only
            // remove younger entries).
            let idx = (seq.0 - head.0) as usize;
            'entry: {
                let e = &self.rob[idx];
                debug_assert_eq!(e.seq, seq);
                if e.stage != Stage::Dispatched || e.issue_done {
                    // Progressed through another path since the flag was
                    // set; drop the entry from future scans.
                    self.issue_flags[idx] = ISSUE_SKIP;
                    break 'entry;
                }
                if let Some(p) = e.issue_blocked_on {
                    // Defensive: a queued entry's recorded blocker has
                    // completed or retired (that is what woke it). Should
                    // it still be in flight, the arm re-run would be a
                    // guaranteed no-op — skip it.
                    if self.rob_entry(p).is_some_and(|d| !d.completed()) {
                        break 'entry;
                    }
                }
                let inst = e.inst;
                match inst {
                    Inst::Nop => {
                        // No result register, so nothing can be parked on
                        // this entry — completion needs no waiter wake.
                        debug_assert!(self.rob[idx].first_waiter.is_none());
                        self.rob[idx].stage = Stage::Completed;
                        self.issue_flags[idx] = ISSUE_SKIP;
                        active = true;
                    }
                    Inst::Halt => {
                        // Halt completes only at the head so that everything
                        // older retires first.
                        if idx == 0 {
                            debug_assert!(self.rob[idx].first_waiter.is_none());
                            self.rob[idx].stage = Stage::Completed;
                            self.issue_flags[idx] = ISSUE_SKIP;
                            active = true;
                        }
                    }
                    Inst::Mfence => {
                        if idx == 0 && self.wb.is_empty() {
                            debug_assert!(self.rob[idx].first_waiter.is_none());
                            self.rob[idx].stage = Stage::Completed;
                            self.issue_flags[idx] = ISSUE_SKIP;
                            active = true;
                        }
                    }
                    Inst::AtomicAdd { .. } | Inst::AtomicCas { .. } => {
                        // Driven by step_atomic at the head.
                    }
                    Inst::Alu { op, src1, src2, .. } => {
                        let a = match self.operand_or_blocker(seq, src1) {
                            Ok(v) => v,
                            Err(b) => {
                                self.record_issue_block(idx, b);
                                break 'entry;
                            }
                        };
                        let b = match src2 {
                            Operand::Reg(r) => match self.operand_or_blocker(seq, r) {
                                Ok(v) => v,
                                Err(b) => {
                                    self.record_issue_block(idx, b);
                                    break 'entry;
                                }
                            },
                            Operand::Imm(v) => v as u64,
                        };
                        let lat = if op.is_long_latency() {
                            self.cfg.core.mul_latency
                        } else {
                            self.cfg.core.alu_latency
                        };
                        self.rob[idx].result = Some(op.apply(a, b));
                        self.rob[idx].stage = Stage::Executing { done_at: now + lat };
                        self.issue_flags[idx] = ISSUE_SKIP;
                        self.exec_heap.push(Reverse((now + lat, seq)));
                        budget -= 1;
                        active = true;
                    }
                    Inst::Branch { src1, src2, .. } => {
                        let blocked = match self.operand_or_blocker(seq, src1) {
                            Err(b) => Some(b),
                            Ok(_) => self.operand_or_blocker(seq, src2).err(),
                        };
                        if let Some(b) = blocked {
                            self.record_issue_block(idx, b);
                            break 'entry;
                        }
                        self.rob[idx].stage = Stage::Executing { done_at: now + 1 };
                        self.issue_flags[idx] = ISSUE_SKIP;
                        self.exec_heap.push(Reverse((now + 1, seq)));
                        budget -= 1;
                        active = true;
                    }
                    Inst::Jump { .. } | Inst::Call { .. } | Inst::Ret => {
                        self.rob[idx].stage = Stage::Executing { done_at: now + 1 };
                        self.issue_flags[idx] = ISSUE_SKIP;
                        self.exec_heap.push(Reverse((now + 1, seq)));
                        budget -= 1;
                        active = true;
                    }
                    Inst::Load { base, .. } => {
                        // Address generation; the memory access itself is
                        // gated separately below.
                        let Some(lq_idx) = self.lq_index(seq) else {
                            break 'entry;
                        };
                        if self.lq[lq_idx].addr.is_some() {
                            // Addresses are never un-resolved (a mispredicted
                            // load is squashed outright), so this pass is done
                            // with the entry; issue_loads takes it from here.
                            self.rob[idx].issue_done = true;
                            self.issue_flags[idx] = ISSUE_SKIP;
                            break 'entry;
                        }
                        let b = match self.operand_or_blocker(seq, base) {
                            Ok(v) => v,
                            Err(bl) => {
                                self.record_issue_block(idx, bl);
                                break 'entry;
                            }
                        };
                        let offset = match inst {
                            Inst::Load { offset, .. } => offset,
                            _ => unreachable!(),
                        };
                        self.lq[lq_idx].addr = Some(Addr::new(b.wrapping_add(offset as u64)));
                        self.rob[idx].issue_done = true;
                        self.issue_flags[idx] = ISSUE_SKIP;
                        budget -= 1;
                        active = true;
                    }
                    Inst::Store { src, base, offset } => {
                        // Address generation and data capture are independent
                        // micro-ops, as in real LSUs: the address (which drives
                        // alias resolution and younger loads' VP conditions)
                        // must not wait for the data.
                        let Some(sq_idx) = self.sq_index(seq) else {
                            break 'entry;
                        };
                        let mut progressed = false;
                        if self.sq[sq_idx].addr.is_none() {
                            match self.operand_or_blocker(seq, base) {
                                Ok(b) => {
                                    self.sq[sq_idx].addr =
                                        Some(Addr::new(b.wrapping_add(offset as u64)));
                                    self.resolve_store(seq, now);
                                    progressed = true;
                                }
                                // Data capture below also needs the address,
                                // so the whole arm is blocked on `base`.
                                Err(bl) => self.record_issue_block(idx, bl),
                            }
                        }
                        // `resolve_store` squashes only younger instructions,
                        // never this store; re-find it defensively.
                        if let Some(sq_idx) = self.sq_index(seq) {
                            if self.sq[sq_idx].data.is_none() && self.sq[sq_idx].addr.is_some() {
                                match self.operand_or_blocker(seq, src) {
                                    Ok(d) => {
                                        self.sq[sq_idx].data = Some(d);
                                        progressed = true;
                                    }
                                    Err(bl) => self.record_issue_block(idx, bl),
                                }
                            }
                            if self.sq[sq_idx].resolved() {
                                if let Some(e) = self.rob_entry_mut(seq) {
                                    if e.stage == Stage::Dispatched {
                                        e.stage = Stage::Executing { done_at: now + 1 };
                                        self.issue_flags[idx] = ISSUE_SKIP;
                                        self.exec_heap.push(Reverse((now + 1, seq)));
                                        active = true;
                                    }
                                }
                            }
                        }
                        if progressed {
                            budget -= 1;
                            active = true;
                        }
                    }
                }
            }
            // A store's alias squash above back-purges the queue's
            // younger suffix; the visited store itself is never
            // squashed, but re-read the slot defensively before
            // deciding keep-vs-dequeue.
            if self.issue_queue.get(qi).copied() != Some(seq) {
                continue;
            }
            if self.issue_flags[idx] == ISSUE_CHECK {
                qi += 1;
            } else {
                self.issue_queue.remove(qi);
            }
        }
        active |= self.issue_loads(now, image);
        active
    }

    /// The load-issue pass: applies the defense scheme's policy, performs
    /// store-to-load forwarding, and accesses the L1.
    fn issue_loads(&mut self, now: Cycle, image: &mut Memory) -> bool {
        let mut active = false;
        let mut ports = 3usize; // L1-D read ports (Table 1)
        let aggr = self.aggr;
        let mut i = 0usize;
        // Visits can squash an LQ suffix (validation mismatch); the
        // bound is re-read every iteration, so a truncated tail is
        // simply never reached.
        while i < self.lq.len() {
            if ports == 0 {
                break;
            }
            'load: {
                let e = &self.lq[i];
                let seq = e.seq;
                if e.invisible && e.performed() && !e.exposing {
                    // InvisiSpec exposure: once the load reaches its VP, issue
                    // the second, visible access to validate the early value.
                    let status = self.vp_status_for(i, &aggr);
                    if self.vp_mask.reached(status) {
                        active |= self.expose_load(i, now, image);
                        ports -= 1;
                    }
                    break 'load;
                }
                if e.performed() || e.waiting_fill {
                    break 'load;
                }
                let Some(addr) = e.addr else {
                    break 'load;
                };
                // Loads younger than an active fence must not issue.
                if aggr.oldest_active_fence.is_some_and(|f| f < seq) {
                    break 'load;
                }
                let line = addr.line();
                let status = self.vp_status_for(i, &aggr);
                let vp_reached = self.vp_mask.reached(status);
                let tainted = self.policy.tracks_taint()
                    && self
                        .rob_entry(seq)
                        .is_some_and(|d| srcs_tainted(&self.rob, &d.srcs));
                // Only Delay-On-Miss consults residency to *decide*; for
                // every other scheme the probe is deferred past the issue
                // decision, so a blocked load polling here each cycle
                // never touches the L1 set.
                let mut l1_hit =
                    self.policy.consults_l1() && self.l1.peek(line).is_some_and(|s| s.readable());
                let ctx = LoadContext {
                    vp_reached,
                    l1_hit,
                    address_tainted: tainted,
                };
                if let Err(block) = self.policy.may_issue(ctx) {
                    let key = match block {
                        pl_secure::scheme::IssueBlock::WaitVp => self.ids.stall_vp,
                        pl_secure::scheme::IssueBlock::WaitMissVp => self.ids.stall_dom_miss,
                        pl_secure::scheme::IssueBlock::WaitTaint => self.ids.stall_taint,
                    };
                    self.stats.incr_id(key);
                    break 'load;
                }
                if !self.policy.consults_l1() {
                    l1_hit = self.l1.peek(line).is_some_and(|s| s.readable());
                }
                // Store-to-load forwarding from older SQ entries.
                let word = addr.raw() >> 3;
                let fwd = self
                    .sq
                    .iter()
                    .rev()
                    .filter(|s| s.seq < seq)
                    .find(|s| s.addr.is_some_and(|a| a.raw() >> 3 == word));
                if let Some(store) = fwd {
                    let from = store.seq;
                    match store.data {
                        Some(v) => {
                            self.perform_load(i, v, true, Some(from), now, !vp_reached);
                            ports -= 1;
                            active = true;
                        }
                        None => {
                            // Matching older store without data: wait.
                            self.stats.incr_id(self.ids.stall_store_data);
                        }
                    }
                    break 'load;
                }
                // Write-buffer forwarding (retired but unmerged own stores).
                if let Some(v) = self.wb.forward(addr) {
                    self.perform_load(i, v, true, None, now, !vp_reached);
                    ports -= 1;
                    active = true;
                    break 'load;
                }
                if self.policy.issues_invisibly() && !vp_reached {
                    // Invisible speculation: bind the value without changing
                    // cache state; validate at the VP (exposure). The access
                    // still pays a realistic latency — the L1 hit time when
                    // the line is resident, otherwise a memory round trip.
                    // Without consulting the directory we cannot tell LLC
                    // from DRAM residency, so the miss case is charged the
                    // full DRAM latency: conservative for the invisible
                    // scheme (it can only look worse, never unfairly better).
                    let v = image.read(addr);
                    let latency = if l1_hit {
                        self.cfg.mem.l1d.hit_latency
                    } else {
                        self.cfg.mem.llc_slice.hit_latency
                            + 2 * self.cfg.mem.hop_latency
                            + self.cfg.mem.dram_latency
                    };
                    self.tracer.emit(EventKind::IssueLoad { seq, line, l1_hit });
                    self.perform_load(i, v, false, None, now, false);
                    self.lq[i].invisible = true;
                    if let Some(d) = self.rob_entry_mut(seq) {
                        // Override the L1-hit deadline `perform_load` set
                        // with the invisible access's latency. The heap
                        // entry `perform_load` pushed carries the old
                        // deadline and is discarded as stale, so the new
                        // deadline needs its own entry.
                        d.stage = Stage::Executing {
                            done_at: now + latency,
                        };
                        self.exec_heap.push(Reverse((now + latency, seq)));
                    }
                    self.stats.incr_id(self.ids.loads_invisible);
                    ports -= 1;
                    active = true;
                    break 'load;
                }
                if l1_hit {
                    self.l1.touch(line);
                    let v = image.read(addr);
                    self.stats.incr_id(self.ids.l1_hits);
                    self.tracer.emit(EventKind::IssueLoad {
                        seq,
                        line,
                        l1_hit: true,
                    });
                    self.perform_load(i, v, false, None, now, !vp_reached);
                    ports -= 1;
                    active = true;
                } else {
                    match self.mshrs.allocate(line, seq, false) {
                        Ok(primary) => {
                            self.stats.incr_id(self.ids.l1_misses);
                            self.tracer.emit(EventKind::IssueLoad {
                                seq,
                                line,
                                l1_hit: false,
                            });
                            self.lq[i].waiting_fill = true;
                            // Late Pinning: if this load issued under pin
                            // eligibility (not merely as the oldest load),
                            // mark it pin-pending so arrival pins it.
                            if self.governor.mode() == PinMode::Late
                                && status.clear_except_mcv()
                                && self.pin_order_ok(i)
                                && self.pin_eligible_base(i, &aggr)
                            {
                                self.lq[i].pin = PinState::Pending;
                                self.tracer.emit(EventKind::PinPending { seq, line });
                            }
                            if primary {
                                self.send(
                                    self.home(line),
                                    Msg::GetS {
                                        line,
                                        requester: self.id,
                                    },
                                );
                                self.prefetch_after(line);
                            }
                            ports -= 1;
                            active = true;
                        }
                        Err(_) => {
                            self.stats.incr_id(self.ids.stall_mshr_full);
                        }
                    }
                }
            }
            i += 1;
        }
        active
    }

    /// Issues the InvisiSpec exposure access for LQ entry `i`: an L1 hit
    /// validates immediately; a miss fetches the line and validates on
    /// arrival.
    fn expose_load(&mut self, i: usize, now: Cycle, image: &mut Memory) -> bool {
        let e = &self.lq[i];
        let addr = e.addr.expect("performed load has an address");
        let seq = e.seq;
        let line = addr.line();
        if self.l1.peek(line).is_some_and(|s| s.readable()) {
            self.l1.touch(line);
            self.stats.incr_id(self.ids.l1_hits);
            self.validate_exposed(i, now, image);
            true
        } else {
            match self.mshrs.allocate(line, seq, false) {
                Ok(primary) => {
                    self.stats.incr_id(self.ids.l1_misses);
                    self.lq[i].exposing = true;
                    if primary {
                        self.send(
                            self.home(line),
                            Msg::GetS {
                                line,
                                requester: self.id,
                            },
                        );
                        self.prefetch_after(line);
                    }
                    true
                }
                Err(_) => {
                    self.stats.incr_id(self.ids.stall_mshr_full);
                    false
                }
            }
        }
    }

    /// Compares the invisibly bound value against the now-coherent value;
    /// a mismatch squashes and re-executes the load (InvisiSpec
    /// validation failure).
    fn validate_exposed(&mut self, i: usize, now: Cycle, image: &mut Memory) {
        let e = &self.lq[i];
        let addr = e.addr.expect("exposed load has an address");
        let bound = e.value.expect("exposed load has a bound value");
        let seq = e.seq;
        let current = self.wb.forward(addr).unwrap_or_else(|| image.read(addr));
        if current == bound {
            self.lq[i].invisible = false;
            self.lq[i].exposing = false;
            self.stats.incr_id(self.ids.loads_validated);
        } else {
            let pc = self.rob_entry(seq).expect("load in ROB").pc;
            self.stats.incr_id(self.ids.squash_validation);
            self.squash_from(seq, pc, "validation", now);
        }
    }

    /// Next-line prefetcher (Table 1): on a demand miss, fetch the
    /// following lines too. Prefetches piggyback on the MSHR file with a
    /// sentinel waiter so squashes never wake anything, and are dropped
    /// when MSHRs are scarce — demand misses keep priority.
    fn prefetch_after(&mut self, line: LineAddr) {
        for d in 1..=self.cfg.mem.prefetch_degree {
            if self.mshrs.len() + 2 > self.cfg.mem.l1d.mshr_entries {
                return; // leave headroom for demand misses
            }
            let next = LineAddr::from_line_number(line.raw().wrapping_add(d as u64));
            if self.l1.peek(next).is_some() || self.mshrs.contains(next) || self.wb.has_line(next) {
                continue;
            }
            if self.mshrs.allocate(next, SeqNum(u64::MAX), false) == Ok(true) {
                self.stats.incr_id(self.ids.l1_prefetches);
                self.send(
                    self.home(next),
                    Msg::GetS {
                        line: next,
                        requester: self.id,
                    },
                );
            }
        }
    }

    /// Binds a load's value ("performs" it) and schedules completion.
    /// `forwarded_from` is the in-flight store that supplied the value,
    /// if any (see `LqEntry::forwarded_from`).
    fn perform_load(
        &mut self,
        i: usize,
        value: u64,
        forwarded: bool,
        forwarded_from: Option<SeqNum>,
        now: Cycle,
        pre_vp: bool,
    ) {
        let hit_latency = self.cfg.mem.l1d.hit_latency;
        let e = &mut self.lq[i];
        e.value = Some(value);
        e.performed_at = Some(now);
        e.forwarded = forwarded;
        e.forwarded_from = forwarded_from;
        e.waiting_fill = false;
        let seq = e.seq;
        self.stats.incr_id(self.ids.loads_performed);
        if forwarded {
            self.stats.incr_id(self.ids.loads_forwarded);
        }
        let taint = self.policy.tracks_taint() && pre_vp;
        self.taint_dirty |= taint;
        self.tracer
            .emit(EventKind::LoadPerformed { seq, forwarded });
        if let Some(d) = self.rob_entry_mut(seq) {
            d.tainted |= taint;
            d.result = Some(value);
            d.stage = Stage::Executing {
                done_at: now + hit_latency,
            };
            self.exec_heap.push(Reverse((now + hit_latency, seq)));
        }
    }

    /// Performs a load that was waiting on a fill that just installed.
    fn perform_waiting_load(&mut self, seq: SeqNum, now: Cycle, image: &mut Memory) {
        let Some(i) = self.lq_index(seq) else {
            return;
        };
        if self.lq[i].exposing {
            // InvisiSpec exposure fill arrived: validate the bound value.
            self.validate_exposed(i, now, image);
            return;
        }
        if self.lq[i].performed() {
            return;
        }
        self.lq[i].waiting_fill = false;
        let addr = self.lq[i].addr.expect("waiting load has an address");
        let word = addr.raw() >> 3;
        // An older store may have resolved while the fill was in flight;
        // re-check forwarding so the load binds the correct value.
        let fwd = self
            .sq
            .iter()
            .rev()
            .filter(|s| s.seq < seq)
            .find(|s| s.addr.is_some_and(|a| a.raw() >> 3 == word));
        let aggr = self.aggr;
        let pre_vp = {
            let status = self.vp_status_for(i, &aggr);
            !self.vp_mask.reached(status)
        };
        match fwd {
            Some(store) => {
                let from = store.seq;
                match store.data {
                    Some(v) => self.perform_load(i, v, true, Some(from), now, pre_vp),
                    None => {
                        // Wait for the store's data; the issue pass will
                        // retry forwarding (the line is now resident, so
                        // no new miss).
                    }
                }
            }
            None => {
                let from_wb = self.wb.forward(addr);
                let v = from_wb.unwrap_or_else(|| image.read(addr));
                self.perform_load(i, v, from_wb.is_some(), None, now, pre_vp);
            }
        }
    }

    // ---- operand reading ----

    /// Returns `true` once every source operand of `seq` is ready.
    fn operands_ready(&self, seq: SeqNum) -> bool {
        let Some(e) = self.rob_entry(seq) else {
            return false;
        };
        e.srcs
            .iter()
            .all(|&(r, _)| self.try_operand(seq, r).is_some())
    }

    /// The current value of `reg` as seen by instruction `seq`, or `None`
    /// if its producer has not completed.
    fn try_operand(&self, seq: SeqNum, reg: Reg) -> Option<u64> {
        if reg.is_zero() {
            return Some(0);
        }
        let e = self.rob_entry(seq)?;
        let producer = e.srcs.iter().find(|&&(r, _)| r == reg).map(|&(_, p)| p)?;
        match producer {
            Some(p) => match self.rob_entry(p) {
                Some(prod) if prod.completed() => prod.result,
                Some(_) => None,
                // Producer committed: its value is architectural.
                None => Some(self.regfile[reg.index()]),
            },
            None => Some(self.regfile[reg.index()]),
        }
    }

    /// Memoizes an issue-arm operand failure: the entry is parked (and
    /// skipped by the issue pass) until the recorded blocking producer
    /// completes and wakes it.
    fn record_issue_block(&mut self, idx: usize, blocker: Option<SeqNum>) {
        self.rob[idx].issue_blocked_on = blocker;
        if let Some(p) = blocker {
            let head = self.rob.front().expect("blocked entry in ROB").seq;
            if p >= head {
                // The ROB is seq-dense, so the producer sits at a fixed
                // offset from the head.
                let pidx = (p.0 - head.0) as usize;
                if !self.rob[pidx].completed() {
                    // Park until the producer completes: link this entry
                    // into the producer's waiter chain, whose walk at
                    // completion flips the flag back to `ISSUE_CHECK`.
                    let seq = self.rob[idx].seq;
                    debug_assert!(self.rob[idx].next_waiter.is_none());
                    let prev = self.rob[pidx].first_waiter.replace(seq);
                    self.rob[idx].next_waiter = prev;
                    self.issue_flags[idx] = ISSUE_PARKED;
                    return;
                }
            }
        }
        // No identifiable in-flight producer (retired, or completed with
        // no result): re-examine every cycle — the unmemoized behaviour.
        self.issue_flags[idx] = ISSUE_CHECK;
    }

    /// Wakes every issue-pass waiter parked on `pseq`, which has just
    /// completed: clears the chain and flips each waiter's flag back to
    /// [`ISSUE_CHECK`] so the next issue pass re-runs its arm.
    fn wake_waiters(&mut self, pseq: SeqNum) {
        let Some(front) = self.rob.front() else {
            return;
        };
        let head = front.seq;
        debug_assert!(pseq >= head);
        let pidx = (pseq.0 - head.0) as usize;
        let mut w = self.rob[pidx].first_waiter.take();
        while let Some(ws) = w {
            let widx = (ws.0 - head.0) as usize;
            let waiter = &mut self.rob[widx];
            debug_assert_eq!(waiter.seq, ws);
            debug_assert_eq!(waiter.issue_blocked_on, Some(pseq));
            w = waiter.next_waiter.take();
            self.issue_flags[widx] = ISSUE_CHECK;
            let pos = self.issue_queue.partition_point(|&s| s < ws);
            debug_assert_ne!(self.issue_queue.get(pos).copied(), Some(ws));
            self.issue_queue.insert(pos, ws);
        }
    }

    /// Removes `wseq` (whose chain link is `wnext`) from `pseq`'s waiter
    /// chain; called while squashing `wseq`. The producer is older than
    /// its waiter, so it is still in the ROB when the waiter is popped.
    fn unlink_waiter(&mut self, pseq: SeqNum, wseq: SeqNum, wnext: Option<SeqNum>) {
        let head = self.rob.front().expect("producer outlives waiter").seq;
        let pidx = (pseq.0 - head.0) as usize;
        if self.rob[pidx].first_waiter == Some(wseq) {
            self.rob[pidx].first_waiter = wnext;
            return;
        }
        let mut c = self.rob[pidx].first_waiter;
        while let Some(cs) = c {
            let cidx = (cs.0 - head.0) as usize;
            if self.rob[cidx].next_waiter == Some(wseq) {
                self.rob[cidx].next_waiter = wnext;
                return;
            }
            c = self.rob[cidx].next_waiter;
        }
        debug_assert!(false, "parked entry missing from its producer's chain");
    }

    /// Debug oracle: checks the flag mirror against the ROB. `ISSUE_SKIP`
    /// exactly covers entries the issue pass can never act on again, and
    /// a parked entry always names a live, incomplete producer (its wake
    /// fires when that producer completes). Also checks that
    /// `issue_queue` holds exactly the `ISSUE_CHECK` seqs, in program
    /// order (the ROB is seq-sorted, so element-wise equality covers
    /// membership and sortedness at once).
    fn issue_flags_consistent(&self) -> bool {
        self.issue_flags.len() == self.rob.len()
            && self.rob.iter().zip(self.issue_flags.iter()).all(|(e, &f)| {
                if e.stage != Stage::Dispatched || e.issue_done {
                    f == ISSUE_SKIP
                } else if f == ISSUE_PARKED {
                    e.issue_blocked_on
                        .is_some_and(|p| self.rob_entry(p).is_some_and(|d| !d.completed()))
                } else {
                    f == ISSUE_CHECK
                }
            })
            && self.issue_queue.iter().copied().eq(self
                .rob
                .iter()
                .zip(self.issue_flags.iter())
                .filter(|&(_, &f)| f == ISSUE_CHECK)
                .map(|(e, _)| e.seq))
    }

    /// Like [`Core::try_operand`], but a failure also reports which
    /// in-flight producer is blocking (`Err(Some(p))`), so the issue
    /// pass can memoize the entry and skip it until `p` completes.
    /// `Err(None)` means blocked with no identifiable producer (defensive
    /// — should not occur); the caller then re-checks every cycle, which
    /// is exactly the unmemoized behaviour.
    fn operand_or_blocker(&self, seq: SeqNum, reg: Reg) -> Result<u64, Option<SeqNum>> {
        if reg.is_zero() {
            return Ok(0);
        }
        let Some(e) = self.rob_entry(seq) else {
            return Err(None);
        };
        let Some(producer) = e.srcs.iter().find(|&&(r, _)| r == reg).map(|&(_, p)| p) else {
            return Err(None);
        };
        match producer {
            Some(p) => match self.rob_entry(p) {
                Some(prod) if prod.completed() => prod.result.ok_or(Some(p)),
                Some(_) => Err(Some(p)),
                // Producer committed: its value is architectural.
                None => Ok(self.regfile[reg.index()]),
            },
            None => Ok(self.regfile[reg.index()]),
        }
    }

    /// Like [`Core::try_operand`] but panics if unready; used at
    /// resolution time when readiness was already established.
    fn operand_value(&self, seq: SeqNum, reg: Reg) -> u64 {
        self.try_operand(seq, reg)
            .expect("operand ready at resolution")
    }

    // ---- dispatch & fetch ----

    fn dispatch(&mut self, now: Cycle) -> bool {
        let mut active = false;
        for _ in 0..self.cfg.core.fetch_width {
            if self.rob.len() == self.cfg.core.rob_entries {
                self.stats.incr_id(self.ids.stall_rob_full);
                break;
            }
            let Some(front) = self.fetch_buf.front() else {
                break;
            };
            let inst = front.inst;
            if inst.is_load() && !inst.is_atomic() && self.lq.len() == self.cfg.core.lq_entries {
                self.stats.incr_id(self.ids.stall_lq_full);
                break;
            }
            if matches!(inst, Inst::Store { .. }) && self.sq.len() == self.cfg.core.sq_entries {
                self.stats.incr_id(self.ids.stall_sq_full);
                break;
            }
            let f = self.fetch_buf.pop_front().expect("front checked");
            let seq = self.next_seq;
            self.next_seq = seq.next();
            // Record source operands and their producers from the
            // current rename map.
            let (use_regs, n_uses) = f.inst.use_regs_fixed();
            let mut srcs = SrcList::new();
            for &r in &use_regs[..n_uses] {
                srcs.push(
                    r,
                    if r.is_zero() {
                        None
                    } else {
                        self.rename[r.index()]
                    },
                );
            }
            let prev_map = f.inst.def_reg().map(|r| {
                let old = self.rename[r.index()];
                self.rename[r.index()] = Some(seq);
                (r, old)
            });
            if f.inst.is_load() && !f.inst.is_atomic() {
                let lq_id = self.governor.alloc_lq_id();
                self.lq.push(LqEntry::new(seq, lq_id));
            }
            if matches!(f.inst, Inst::Store { .. }) {
                self.sq.push(SqEntry::new(seq));
            }
            self.tracer.emit(EventKind::Dispatch {
                seq,
                pc: f.pc.0 as u64,
            });
            self.rob.push_back(DynInst {
                seq,
                pc: f.pc,
                inst: f.inst,
                stage: Stage::Dispatched,
                result: None,
                pred: f.pred,
                prev_map,
                srcs,
                dispatched_at: now,
                // Atomics never progress in the issue pass (step_atomic
                // drives them at the head), so skip them from the start.
                issue_done: f.inst.is_atomic(),
                issue_blocked_on: None,
                first_waiter: None,
                next_waiter: None,
                tainted: false,
            });
            if f.inst.is_atomic() {
                self.issue_flags.push_back(ISSUE_SKIP);
            } else {
                self.issue_flags.push_back(ISSUE_CHECK);
                // New entries carry the highest seq, so program order
                // is preserved by appending.
                self.issue_queue.push_back(seq);
            }
            if f.inst.is_control() {
                self.agg_ctrl.push_back(seq);
            }
            if f.inst.is_fence() {
                self.agg_fence.push_back(seq);
            }
            if f.inst.is_mem() {
                self.agg_mem.push_back(seq);
            }
            if f.inst.is_store() {
                self.agg_store.push_back(seq);
            }
            active = true;
        }
        // New entries start untainted; the next pass derives their bits.
        self.taint_dirty |= active;
        active
    }

    fn fetch(&mut self, now: Cycle) -> bool {
        if self.fetch_halted || now < self.fetch_stalled_until {
            return false;
        }
        let mut active = false;
        for _ in 0..self.cfg.core.fetch_width {
            if self.fetch_buf.len() >= FETCH_BUF_CAP {
                break;
            }
            let pc = self.fetch_pc;
            let inst = self.program.fetch(pc);
            let mut next = pc.next();
            let pred = if inst.is_control() {
                let (taken, target, ckpt) = match inst {
                    Inst::Branch { target, .. } => {
                        let (taken, ckpt) = self.bp.predict_cond(pc);
                        (taken, if taken { target } else { pc.next() }, ckpt)
                    }
                    Inst::Jump { target } | Inst::Call { target } => {
                        let ckpt = self.bp.checkpoint();
                        if matches!(inst, Inst::Call { .. }) {
                            self.bp.push_return(pc.next());
                        }
                        (true, target, ckpt)
                    }
                    Inst::Ret => {
                        let ckpt = self.bp.checkpoint();
                        let target = self.bp.pop_return().unwrap_or_else(|| pc.next());
                        (true, target, ckpt)
                    }
                    _ => unreachable!("is_control covers these"),
                };
                next = target;
                Some(PredInfo {
                    taken,
                    target,
                    checkpoint: ckpt,
                })
            } else {
                None
            };
            self.fetch_buf.push_back(Fetched { pc, inst, pred });
            self.fetch_pc = next;
            active = true;
            if inst == Inst::Halt {
                self.fetch_halted = true;
                break;
            }
        }
        active
    }

    // ---- squash ----

    /// Squashes every instruction with `seq >= first_bad` and redirects
    /// fetch to `refetch`. `cause` attributes the squash in the event
    /// trace ("branch", "alias", "validation", "mcv_inv", "mcv_evict").
    fn squash_from(&mut self, first_bad: SeqNum, refetch: Pc, cause: &'static str, now: Cycle) {
        self.tracer.emit(EventKind::Squash {
            first_bad,
            source: cause,
        });
        self.check.emit(CheckEvent::Squashed {
            core: self.id,
            first_bad: first_bad.0,
        });
        while let Some(back) = self.rob.back() {
            if back.seq < first_bad {
                break;
            }
            let e = self.rob.pop_back().expect("back checked");
            let f = self.issue_flags.pop_back().expect("mirror in lockstep");
            if f == ISSUE_PARKED {
                // Keep the waiter chains free of dead links: the chain
                // walk at wake and the dense-offset lookups rely on
                // every linked waiter being live.
                let p = e.issue_blocked_on.expect("parked entries name a producer");
                self.unlink_waiter(p, e.seq, e.next_waiter);
            }
            if let Some((reg, old)) = e.prev_map {
                self.rename[reg.index()] = old;
            }
            self.stats.incr_id(self.ids.squashed_insts);
        }
        debug_assert!(
            self.lq
                .iter()
                .all(|e| e.seq < first_bad || e.pin != PinState::Pinned),
            "a pinned load is being squashed"
        );
        self.lq.retain(|e| e.seq < first_bad);
        self.sq.retain(|e| e.seq < first_bad);
        // Back-purge the sorted candidate queue: a squash rewinds
        // `next_seq`, so a reused seq must never alias a stale entry.
        while self.issue_queue.back().is_some_and(|&s| s >= first_bad) {
            self.issue_queue.pop_back();
        }
        // Purge the aggregate deques eagerly: squash rewinds `next_seq`,
        // so a reused seq must never alias a stale entry. (`exec_heap`
        // and the issue memos are instead guarded at use.)
        for q in [
            &mut self.agg_ctrl,
            &mut self.agg_fence,
            &mut self.agg_mem,
            &mut self.agg_store,
        ] {
            while q.back().is_some_and(|&s| s >= first_bad) {
                q.pop_back();
            }
        }
        self.mshrs.squash_younger(first_bad);
        self.next_seq = first_bad;
        self.fetch_buf.clear();
        self.fetch_pc = refetch;
        self.fetch_halted = false;
        self.fetch_stalled_until = now + 1;
        self.stats.incr_id(self.ids.squashes);
    }

    // ---- LQ/SQ/ROB lookup ----

    /// Index of the LQ entry for `seq`, if any. The LQ is sorted by seq
    /// (dispatch appends in program order; squash and retire preserve
    /// order), so this is a binary search rather than a scan.
    fn lq_index(&self, seq: SeqNum) -> Option<usize> {
        let found = self.lq.binary_search_by_key(&seq, |e| e.seq).ok();
        debug_assert_eq!(found, self.lq.iter().position(|e| e.seq == seq));
        found
    }

    /// Index of the SQ entry for `seq`, if any. Sorted like the LQ.
    fn sq_index(&self, seq: SeqNum) -> Option<usize> {
        let found = self.sq.binary_search_by_key(&seq, |e| e.seq).ok();
        debug_assert_eq!(found, self.sq.iter().position(|e| e.seq == seq));
        found
    }

    fn rob_entry(&self, seq: SeqNum) -> Option<&DynInst> {
        let head = self.rob.front()?.seq;
        if seq < head {
            return None;
        }
        let idx = (seq.0 - head.0) as usize;
        let e = self.rob.get(idx)?;
        debug_assert_eq!(e.seq, seq, "ROB sequence numbers must be dense");
        Some(e)
    }

    fn rob_entry_mut(&mut self, seq: SeqNum) -> Option<&mut DynInst> {
        let head = self.rob.front()?.seq;
        if seq < head {
            return None;
        }
        let idx = (seq.0 - head.0) as usize;
        self.rob.get_mut(idx)
    }

    // ------------------------------------------------------------------
    // Spin parking: signature anchor, period verification, bulk replay
    // ------------------------------------------------------------------

    /// The spin-signature anchor the machine's detector tracks: the
    /// fetch PC and the next sequence number. A spinning core revisits
    /// the same anchor PC once per iteration with a fixed seq stride;
    /// the detector uses the pair to guess the raw iteration period
    /// before paying for a full [`Core::spin_verify`].
    pub fn spin_anchor(&self) -> (u64, u64) {
        (self.fetch_pc.0 as u64, self.next_seq.0)
    }

    /// Returns `true` when the core holds no in-flight memory-system
    /// transaction: all coherence buffers are empty and no retry timer
    /// is pending. Spin parking is only sound from such a boundary —
    /// everything that remains is pure pipeline state that the period
    /// shift of [`Core::spin_verify`] can reason about, and any future
    /// external influence must arrive as a message (which wakes the
    /// core).
    pub fn spin_ready(&self) -> bool {
        self.outbox.is_empty()
            && self.mshrs.is_empty()
            && self.wb.is_empty()
            && !self.wb_needs_unblock
            && self.pending_installs.is_empty()
            && self.read_retries.is_empty()
            && !self.atomic.active
            && !self.halted
    }

    /// LQ IDs that may still be allocated before the governor's
    /// wraparound-drain boundary. Bounds how many whole periods a
    /// parked spinning core may bulk-replay before it must run live
    /// again (the wrap drain is a global interaction).
    pub fn spin_wrap_budget(&self) -> u64 {
        self.governor.lq_ids_before_wrap()
    }

    /// Checks whether `probe` is exactly `base` advanced by one spin
    /// period of `period` cycles, and if so returns the [`SpinDelta`]
    /// that replays further periods in O(1). `base` is a snapshot of
    /// this core taken `period` cycles ago (its last ticked cycle being
    /// `base_now`); `probe` is the live core now. Consumes `base`: its
    /// state is shifted forward one period in place for the comparison.
    ///
    /// Returns `None` — park nothing, lose nothing but time — unless
    /// every condition for bit-identical replay holds:
    ///
    /// - both endpoints are [`Core::spin_ready`];
    /// - the period is a multiple of [`OCC_SAMPLE_PERIOD`], so every
    ///   period window contains the same occupancy-sample points;
    /// - the core dispatched *and* retired instructions (a fully
    ///   stalled core is the quiet-tick machinery's job, and its
    ///   stale cycle stamps would defeat the uniform shift);
    /// - no load performed invisibly (such loads read the memory image
    ///   directly, which a replay would not repeat);
    /// - the pin set did not change (remote cores read pin counts at
    ///   arbitrary cycles without a message; zero pins acquired plus
    ///   the governor boundary-state equality below implies the counts
    ///   were constant mid-period too, since releases alone could only
    ///   shrink the boundary counts);
    /// - the LQ-ID stride stays within the wraparound budget;
    /// - the branch predictor moved only in loop-predictor confidence
    ///   counters ([`BranchPredictor::spin_delta`]);
    /// - the shifted `base` matches `probe` field for field
    ///   ([`Core::spin_state_eq`]).
    pub fn spin_verify(
        base: &Core,
        probe: &Core,
        base_now: Cycle,
        period: u64,
    ) -> Option<SpinDelta> {
        if period == 0 || !period.is_multiple_of(OCC_SAMPLE_PERIOD) {
            return None;
        }
        if !base.spin_ready() || !probe.spin_ready() {
            return None;
        }
        let dseq = probe.next_seq.0.checked_sub(base.next_seq.0)?;
        let dretired = probe.retired.checked_sub(base.retired)?;
        if dseq == 0 || dretired == 0 {
            return None;
        }
        let dlqid = probe
            .governor
            .next_lq_id()
            .checked_sub(base.governor.next_lq_id())?;
        if dlqid > base.governor.lq_ids_before_wrap() {
            return None;
        }
        let dl1tick = probe.l1.lru_tick().checked_sub(base.l1.lru_tick())?;
        if probe.stats.get_id(probe.ids.loads_invisible)
            != base.stats.get_id(base.ids.loads_invisible)
        {
            return None;
        }
        if probe.governor.stats().get("pin.pins") != base.governor.stats().get("pin.pins") {
            return None;
        }
        // Cheap structural pre-gates: these fields are never shifted, so
        // they must already be bit-equal. Checking them (and the queue
        // shapes) before the predictor tables and the clone below keeps a
        // failed probe at a periodic cadence close to free.
        if base.fetch_pc != probe.fetch_pc
            || base.regfile != probe.regfile
            || base.rob.len() != probe.rob.len()
            || base.lq.len() != probe.lq.len()
            || base.sq.len() != probe.sq.len()
            || base.fetch_buf.len() != probe.fetch_buf.len()
        {
            return None;
        }
        let loop_deltas = BranchPredictor::spin_delta(&base.bp, &probe.bp)?;
        let delta = SpinDelta {
            period,
            dseq,
            dlqid,
            dretired,
            dl1tick,
            core_ctr_before: base.stats.counter_values().to_vec(),
            core_ctr_after: probe.stats.counter_values().to_vec(),
            core_hist_before: base.stats.hist_values(),
            core_hist_after: probe.stats.hist_values(),
            gov_ctr_before: base.governor.stats().counter_values().to_vec(),
            gov_ctr_after: probe.governor.stats().counter_values().to_vec(),
            gov_hist_before: base.governor.stats().hist_values(),
            gov_hist_after: probe.governor.stats().hist_values(),
            loop_deltas,
        };
        let mut shifted = Box::new(base.clone());
        shifted.spin_shift(dseq, period, dlqid, base_now);
        shifted.l1.spin_shift_lru(dl1tick);
        if !Core::spin_state_eq(&shifted, probe) {
            return None;
        }
        Some(delta)
    }

    /// Applies `k` whole spin periods in O(delta) time: statistics and
    /// histograms replay their per-period deltas, the predictor's loop
    /// tables and the L1 recency clock advance, and every sequence
    /// number, cycle stamp, and LQ ID in the pipeline shifts —
    /// bit-identical to running the `k * period` cycles live.
    /// `boundary` is the last cycle this core actually ticked.
    pub fn spin_advance(&mut self, k: u64, d: &SpinDelta, boundary: Cycle) {
        if k == 0 {
            return;
        }
        self.stats
            .replay_counter_delta(&d.core_ctr_before, &d.core_ctr_after, k);
        self.stats
            .replay_hist_delta(&d.core_hist_before, &d.core_hist_after, k);
        self.governor
            .stats_mut()
            .replay_counter_delta(&d.gov_ctr_before, &d.gov_ctr_after, k);
        self.governor
            .stats_mut()
            .replay_hist_delta(&d.gov_hist_before, &d.gov_hist_after, k);
        self.retired += k * d.dretired;
        self.bp.spin_advance(k, &d.loop_deltas);
        self.l1.spin_advance_ticks(d.dl1tick, k);
        self.spin_shift(k * d.dseq, k * d.period, k * d.dlqid, boundary);
    }

    /// Shifts every sequence number, cycle stamp, and LQ ID in the pure
    /// pipeline state forward by the given deltas — producing the state
    /// a periodic spin reaches `dcycle` cycles later. Fields gated
    /// empty by [`Core::spin_ready`] are untouched; the L1 recency
    /// clock is the callers' job (verification shifts one period, bulk
    /// advance applies `k` at once with the same touched-way cutoff).
    ///
    /// `boundary` is the last ticked cycle of the state being shifted:
    /// past-facing stamps (`dispatched_at`, `performed_at`) always
    /// shift — the shifted state describes instructions dispatched one
    /// period later — while `fetch_stalled_until` shifts only when
    /// still in the future, because an already-expired stall window is
    /// reproduced verbatim by the next iteration.
    fn spin_shift(&mut self, dseq: u64, dcycle: u64, dlqid: u64, boundary: Cycle) {
        let sseq = |s: SeqNum| SeqNum(s.0 + dseq);
        let sopt = |s: &mut Option<SeqNum>| {
            if let Some(x) = s.as_mut() {
                *x = SeqNum(x.0 + dseq);
            }
        };
        if self.fetch_stalled_until > boundary {
            self.fetch_stalled_until += dcycle;
        }
        for e in self.rob.iter_mut() {
            e.seq = sseq(e.seq);
            if let Stage::Executing { done_at } = &mut e.stage {
                *done_at += dcycle;
            }
            if let Some((_, p)) = e.prev_map.as_mut() {
                sopt(p);
            }
            for (_, p) in e.srcs.iter_mut() {
                sopt(p);
            }
            e.dispatched_at += dcycle;
            sopt(&mut e.issue_blocked_on);
            sopt(&mut e.first_waiter);
            sopt(&mut e.next_waiter);
        }
        self.next_seq = sseq(self.next_seq);
        for r in self.rename.iter_mut() {
            sopt(r);
        }
        for e in self.lq.iter_mut() {
            e.seq = sseq(e.seq);
            e.lq_id += dlqid;
            if let Some(t) = e.performed_at.as_mut() {
                *t += dcycle;
            }
            sopt(&mut e.forwarded_from);
        }
        for e in self.sq.iter_mut() {
            e.seq = sseq(e.seq);
        }
        // A uniform shift of both tuple components is strictly
        // monotone, so element order is preserved and re-heapifying
        // the shifted elements yields an equivalent heap.
        let shifted: Vec<_> = self
            .exec_heap
            .drain()
            .map(|Reverse((c, s))| Reverse((c + dcycle, sseq(s))))
            .collect();
        self.exec_heap = BinaryHeap::from(shifted);
        for q in [
            &mut self.agg_ctrl,
            &mut self.agg_fence,
            &mut self.agg_mem,
            &mut self.agg_store,
        ] {
            for s in q.iter_mut() {
                *s = SeqNum(s.0 + dseq);
            }
        }
        for s in self.issue_queue.iter_mut() {
            *s = SeqNum(s.0 + dseq);
        }
        sopt(&mut self.aggr.oldest_unresolved_ctrl);
        sopt(&mut self.aggr.oldest_unknown_store_addr);
        sopt(&mut self.aggr.oldest_unknown_mem_addr);
        sopt(&mut self.aggr.oldest_active_fence);
        self.governor.spin_advance_lq_ids(dlqid);
    }

    /// Structural equality of the pure pipeline state, used by
    /// [`Core::spin_verify`] after shifting the older snapshot. The
    /// struct is destructured without `..`, so adding a field forces a
    /// decision here. Excluded: statistics and the retired count
    /// (captured as per-period deltas in the [`SpinDelta`]), the branch
    /// predictor (compared separately via
    /// [`BranchPredictor::spin_delta`]), tracer and checker sinks
    /// (spin parking is gated off when either is enabled), per-tick
    /// scratch buffers (empty between ticks), and configuration-derived
    /// fields (identical by construction). The outbox and MSHRs are
    /// required empty on both sides rather than compared — they are
    /// gated empty by [`Core::spin_ready`] anyway.
    pub fn spin_state_eq(base: &Core, probe: &Core) -> bool {
        let Core {
            id: _,
            cfg: _,
            program: _,
            policy: _,
            vp_mask: _,
            bp: _,
            fetch_pc,
            fetch_halted,
            fetch_stalled_until,
            fetch_buf,
            rob,
            next_seq,
            rename,
            regfile,
            lq,
            sq,
            wb,
            wb_needs_unblock,
            l1,
            mshrs,
            pending_installs,
            read_retries,
            governor,
            taint_dirty,
            atomic,
            arch_call_stack,
            aggr,
            outbox,
            tracer: _,
            check: _,
            mutation: _,
            mutation_armed,
            stats: _,
            ids: _,
            halted,
            retired: _,
            scratch_installs: _,
            scratch_lines: _,
            scratch_seqs: _,
            scratch_due: _,
            exec_heap,
            agg_ctrl,
            agg_fence,
            agg_mem,
            agg_store,
            issue_flags,
            issue_queue,
        } = base;
        *fetch_pc == probe.fetch_pc
            && *fetch_halted == probe.fetch_halted
            && *fetch_stalled_until == probe.fetch_stalled_until
            && *fetch_buf == probe.fetch_buf
            && *rob == probe.rob
            && *next_seq == probe.next_seq
            && *rename == probe.rename
            && *regfile == probe.regfile
            && *lq == probe.lq
            && *sq == probe.sq
            && *wb == probe.wb
            && *wb_needs_unblock == probe.wb_needs_unblock
            && l1.spin_state_eq(&probe.l1)
            && mshrs.is_empty()
            && probe.mshrs.is_empty()
            && *pending_installs == probe.pending_installs
            && *read_retries == probe.read_retries
            && governor.spin_state_eq(&probe.governor)
            && *taint_dirty == probe.taint_dirty
            && *atomic == probe.atomic
            && *arch_call_stack == probe.arch_call_stack
            && *aggr == probe.aggr
            && outbox.is_empty()
            && probe.outbox.is_empty()
            && *mutation_armed == probe.mutation_armed
            && *halted == probe.halted
            && heap_sorted(exec_heap) == heap_sorted(&probe.exec_heap)
            && *agg_ctrl == probe.agg_ctrl
            && *agg_fence == probe.agg_fence
            && *agg_mem == probe.agg_mem
            && *agg_store == probe.agg_store
            && *issue_flags == probe.issue_flags
            && *issue_queue == probe.issue_queue
    }
}

/// STT: whether any of `srcs` comes from a tainted producer still in
/// `rob`. The ROB is seq-dense, so a producer older than its head has
/// retired, and its architectural value is untainted.
fn srcs_tainted(rob: &VecDeque<DynInst>, srcs: &SrcList) -> bool {
    let Some(head) = rob.front().map(|e| e.seq) else {
        return false;
    };
    srcs.iter().any(|&(_, p)| {
        p.is_some_and(|p| p >= head && rob.get((p.0 - head.0) as usize).is_some_and(|d| d.tainted))
    })
}

/// Dense-seq ROB lookup usable while another field of `Core` is borrowed.
fn rob_entry_mut_in(rob: &mut VecDeque<DynInst>, seq: SeqNum) -> Option<&mut DynInst> {
    let head = rob.front()?.seq;
    if seq < head {
        return None;
    }
    let idx = (seq.0 - head.0) as usize;
    rob.get_mut(idx)
}

/// The verified per-period effect of one spin iteration window,
/// produced by [`Core::spin_verify`] and replayed `k` periods at a time
/// by [`Core::spin_advance`]. The public stride fields let the machine
/// compute how many whole periods fit before a timed boundary (LQ-ID
/// wraparound, watchdog); the statistic snapshots stay private to the
/// replay machinery.
#[derive(Debug, Clone)]
pub struct SpinDelta {
    /// Verified period length in cycles (a multiple of
    /// [`OCC_SAMPLE_PERIOD`]).
    pub period: u64,
    /// Sequence numbers consumed per period.
    pub dseq: u64,
    /// LQ IDs allocated per period.
    pub dlqid: u64,
    /// Instructions retired per period.
    pub dretired: u64,
    /// L1 recency-clock advances per period.
    pub dl1tick: u64,
    core_ctr_before: Vec<u64>,
    core_ctr_after: Vec<u64>,
    core_hist_before: Vec<(u64, u64)>,
    core_hist_after: Vec<(u64, u64)>,
    gov_ctr_before: Vec<u64>,
    gov_ctr_after: Vec<u64>,
    gov_hist_before: Vec<(u64, u64)>,
    gov_hist_after: Vec<(u64, u64)>,
    loop_deltas: Vec<(usize, u32)>,
}

/// The exec-completion heap as a sorted vector, for order-insensitive
/// comparison. The heap's *contents* are what
/// matter — two heaps with the same elements pop identically.
fn heap_sorted(h: &BinaryHeap<Reverse<(Cycle, SeqNum)>>) -> Vec<(Cycle, SeqNum)> {
    let mut v: Vec<(Cycle, SeqNum)> = h.iter().map(|&Reverse(t)| t).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_isa::{AluOp, BranchCond, ProgramBuilder};

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    /// An endless spin-wait with a short data-dependent body: the shape
    /// the machine's detector targets. Register state must be periodic
    /// for the spin to verify, so the counter is masked (`r1` cycles
    /// through 0..=7) and the "flag test" result is always zero — a
    /// monotonically counting loop is *not* a spin and must be (and is,
    /// see the rejection test) left to run live.
    fn spin_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.addi(r(1), Reg::ZERO, 0);
        b.bind(top).unwrap();
        b.addi(r(1), r(1), 1);
        b.alu(AluOp::And, r(1), r(1), 7i64);
        b.alu(AluOp::Xor, r(3), r(1), r(1));
        b.branch(BranchCond::Eq, r(3), Reg::ZERO, top);
        Arc::new(b.build().unwrap())
    }

    /// Runs the live core through cycles `[from, to)`.
    fn run_cycles(core: &mut Core, image: &mut Memory, from: u64, to: u64) {
        for c in from..to {
            core.tick(Cycle(c), image);
        }
    }

    /// Finds the first OCC-aligned period at which the warmed-up spin
    /// core verifies, returning the delta, the live core, and the cycle
    /// bounds (base snapshot cycle, probe cycle).
    fn verify_spin() -> (Core, Memory, SpinDelta, u64, u64) {
        let cfg = MachineConfig::default_single_core();
        let mut core = Core::new(CoreId(0), &cfg, spin_program());
        let mut image = Memory::new();
        let warm = 8192u64;
        run_cycles(&mut core, &mut image, 0, warm);
        let base = Box::new(core.clone());
        let base_now = Cycle(warm - 1);
        for c in warm..warm + 4096 {
            core.tick(Cycle(c), &mut image);
            let period = c - warm + 1;
            if !period.is_multiple_of(OCC_SAMPLE_PERIOD) {
                continue;
            }
            if let Some(d) = Core::spin_verify(&base, &core, base_now, period) {
                return (core, image, d, warm - 1, c);
            }
        }
        panic!("spin loop failed to verify within 4096 cycles");
    }

    #[test]
    fn spin_loop_verifies_at_an_aligned_period() {
        let (_, _, delta, _, _) = verify_spin();
        assert!(delta.period.is_multiple_of(OCC_SAMPLE_PERIOD));
        assert!(delta.dseq > 0);
        assert!(delta.dretired > 0);
        assert_eq!(delta.dlqid, 0, "a memory-free spin allocates no LQ IDs");
    }

    #[test]
    fn spin_advance_matches_live_execution_exactly() {
        let (mut live, mut image, delta, _, probe_now) = verify_spin();
        let k = 7u64;
        let mut bulk = live.clone();
        bulk.spin_advance(k, &delta, Cycle(probe_now));
        run_cycles(
            &mut live,
            &mut image,
            probe_now + 1,
            probe_now + 1 + k * delta.period,
        );
        assert!(
            Core::spin_state_eq(&bulk, &live),
            "bulk-advanced state diverged from live execution"
        );
        assert_eq!(bulk.retired(), live.retired());
        assert_eq!(
            bulk.stats().counter_values(),
            live.stats().counter_values(),
            "counter replay diverged"
        );
        assert_eq!(
            bulk.stats().hist_values(),
            live.stats().hist_values(),
            "histogram replay diverged"
        );
        assert_eq!(
            bulk.governor().stats().counter_values(),
            live.governor().stats().counter_values()
        );
        assert_eq!(
            bulk.governor().stats().hist_values(),
            live.governor().stats().hist_values()
        );
        // The advanced core keeps running identically to the live one.
        let resume = probe_now + 1 + k * delta.period;
        let mut image2 = Memory::new();
        run_cycles(&mut bulk, &mut image2, resume, resume + 100);
        run_cycles(&mut live, &mut image, resume, resume + 100);
        assert!(Core::spin_state_eq(&bulk, &live));
        assert_eq!(bulk.stats().counter_values(), live.stats().counter_values());
    }

    #[test]
    fn spin_verify_rejects_misaligned_and_zero_periods() {
        let cfg = MachineConfig::default_single_core();
        let core = Core::new(CoreId(0), &cfg, spin_program());
        let base = core.clone();
        assert!(Core::spin_verify(&base, &core, Cycle(0), 0).is_none());
        assert!(Core::spin_verify(&base, &core, Cycle(0), 31).is_none());
    }

    #[test]
    fn spin_verify_rejects_a_counting_loop() {
        // An unbounded counter looks like a spin to a PC-anchor
        // detector but its register file is never periodic; replaying
        // it would freeze the count. It must never verify.
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.addi(r(1), Reg::ZERO, 0);
        b.bind(top).unwrap();
        b.addi(r(1), r(1), 1);
        b.branch(BranchCond::Eq, Reg::ZERO, Reg::ZERO, top);
        let program = Arc::new(b.build().unwrap());
        let cfg = MachineConfig::default_single_core();
        let mut core = Core::new(CoreId(0), &cfg, program);
        let mut image = Memory::new();
        let warm = 8192u64;
        run_cycles(&mut core, &mut image, 0, warm);
        let base = Box::new(core.clone());
        for c in warm..warm + 1024 {
            core.tick(Cycle(c), &mut image);
            let period = c - warm + 1;
            if !period.is_multiple_of(OCC_SAMPLE_PERIOD) {
                continue;
            }
            assert!(
                Core::spin_verify(&base, &core, Cycle(warm - 1), period).is_none(),
                "a counting loop must not verify (period {period})"
            );
        }
    }

    #[test]
    fn spin_verify_rejects_an_unchanged_core() {
        // Identical endpoints mean nothing dispatched or retired: that
        // is a stalled core, not a spinning one.
        let (live, _, delta, _, _) = verify_spin();
        assert!(Core::spin_verify(&live.clone(), &live, Cycle(0), delta.period).is_none());
    }
}
