//! Spin parking: period verification and bulk replay of a spinning
//! core (INTERNALS.md §13).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pl_base::{Cycle, SeqNum};
use pl_predictor::BranchPredictor;

use super::{Core, OCC_SAMPLE_PERIOD};
use crate::dyninst::Stage;

impl Core {
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
            && self.write.is_none()
            && self.pending_installs.is_empty()
            && self.read_retries.is_empty()
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
    ///   (`Core::spin_state_eq`).
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
    fn spin_state_eq(base: &Core, probe: &Core) -> bool {
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
            write,
            l1,
            mshrs,
            pending_installs,
            read_retries,
            governor,
            taint_dirty,
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
            && *write == probe.write
            && l1.spin_state_eq(&probe.l1)
            && mshrs.is_empty()
            && probe.mshrs.is_empty()
            && *pending_installs == probe.pending_installs
            && *read_retries == probe.read_retries
            && governor.spin_state_eq(&probe.governor)
            && *taint_dirty == probe.taint_dirty
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
            && *issue_queue == probe.issue_queue
    }
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
    use pl_base::{CoreId, MachineConfig};
    use pl_isa::{AluOp, BranchCond, Program, ProgramBuilder, Reg};
    use pl_mem::Memory;
    use std::sync::Arc;

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
