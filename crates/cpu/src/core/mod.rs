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
//! [`Core::handle_msg`] and drains [`Core::drain_outbox_into`] into the
//! NoC.
//!
//! This module holds the state, the stage order of [`Core::tick`] and the
//! accessors. Each submodule is one `impl Core` block owning one decision:
//! `frontend` (fetch, dispatch, squash), `issue` (non-memory issue and
//! completion), `lsq` (load issue and perform), `vp` (VP status and the
//! pin pass), `coherence` (inbound messages and installs), `write` (the
//! one in-flight `GetX` transaction), `commit`, `scheme` (everything a
//! defense scheme does inside the core) and `spin` (spin parking).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use pl_base::{
    CheckEvent, CheckSink, CoreId, CoreSnapshot, Cycle, HistId, LineAddr, LineMode, MachineConfig,
    Mutation, SeqNum, StatId, Stats,
};
use pl_isa::{Pc, Program, Reg};
use pl_mem::{home_slice, Cache, Memory, Mesi, Msg, MshrFile, NodeId, WriteBuffer};
use pl_predictor::BranchPredictor;
use pl_secure::{IssuePolicy, PinGovernor, VpMask};
use pl_trace::{TraceSource, Tracer};

use crate::dyninst::{DynInst, LqEntry, SqEntry};

mod coherence;
mod commit;
mod frontend;
mod issue;
mod lsq;
mod scheme;
mod spin;
mod vp;
mod write;

use coherence::PendingInstall;
use frontend::{Fetched, FETCH_BUF_CAP};
pub use spin::SpinDelta;
use vp::Aggregates;
use write::WriteTxn;

/// How often the core samples ROB/LQ/write-buffer occupancy. Public so
/// the machine's idle-cycle fast-forward can replay the samples a skipped
/// window would have taken.
pub const OCC_SAMPLE_PERIOD: u64 = 32;

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
    /// The defense scheme's issue rules; read only by `scheme`.
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
    /// The one `GetX` transaction in flight, for the write-buffer head or
    /// the atomic at the ROB head (see `write`).
    write: Option<WriteTxn>,

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
    /// Seq-sorted queue of the candidates the non-memory issue pass
    /// visits, in program order: exactly the ROB entries that are
    /// `Dispatched`, not `issue_done` and not `parked`. Dispatch and
    /// wake insert, the pass drops each entry it leaves otherwise, and
    /// squash back-purges, so the pass never scans the ROB — its cost is
    /// proportional to the handful of entries that can make progress.
    issue_queue: VecDeque<SeqNum>,
}

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
            write: None,
            l1,
            mshrs: MshrFile::new(cfg.mem.l1d.mshr_entries),
            pending_installs: Vec::new(),
            read_retries: Vec::new(),
            governor,
            taint_dirty: false,
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
            issue_queue: VecDeque::with_capacity(cfg.core.rob_entries),
        }
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
            && self.write.is_none()
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
        if let Some(t) = &self.write {
            let _ = write!(s, " write=[{t}]");
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

    fn home(&self, line: LineAddr) -> NodeId {
        NodeId::Slice(home_slice(line, self.cfg.mem.llc_slices))
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        self.outbox.push((dst, msg));
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
        self.sync_trace_now(now);
        let mut active = self.retry_pending_installs(now, image);
        active |= self.retry_reads(now);
        active |= self.commit(now);
        active |= self.step_write(now, image);
        self.aggr = self.aggregates();
        self.check_vp_progress();
        active |= self.propagate_taint();
        active |= self.pin_pass();
        active |= self.trace_vp_conditions();
        active |= self.complete_executing(now);
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
        if let Some(at) = self.write.and_then(|t| t.retry_at()) {
            consider(at);
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

    // ------------------------------------------------------------------
    // ROB lookup
    // ------------------------------------------------------------------

    /// Slot of `seq` in the seq-dense ROB: its offset from the head, or
    /// `None` once it has retired (or while the ROB is empty). The slot
    /// may lie past the tail for a seq not yet dispatched.
    fn rob_slot(&self, seq: SeqNum) -> Option<usize> {
        let head = self.rob.front()?.seq;
        (seq >= head).then(|| (seq.0 - head.0) as usize)
    }

    fn rob_entry(&self, seq: SeqNum) -> Option<&DynInst> {
        let e = self.rob.get(self.rob_slot(seq)?)?;
        debug_assert_eq!(e.seq, seq, "ROB sequence numbers must be dense");
        Some(e)
    }

    fn rob_entry_mut(&mut self, seq: SeqNum) -> Option<&mut DynInst> {
        let idx = self.rob_slot(seq)?;
        self.rob.get_mut(idx)
    }
}
