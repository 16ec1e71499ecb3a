//! Non-memory issue (with address generation and store data capture),
//! the issue-pass waiter chains, operand reads, execution completion, and
//! branch and store resolution.

use std::cmp::Reverse;

use pl_base::{Addr, Cycle, SeqNum};
use pl_isa::{Inst, Operand, Pc, Reg};
use pl_mem::Memory;
use pl_secure::PinState;
use pl_trace::EventKind;

use super::Core;
use crate::dyninst::{DynInst, Stage};

/// Whether the non-memory issue pass keeps `e` in `issue_queue`: it is
/// still `Dispatched`, its arm is not done, and it is not parked on a
/// producer's waiter chain.
fn stays_queued(e: &DynInst) -> bool {
    e.stage == Stage::Dispatched && !e.issue_done && !e.parked
}

impl Core {
    pub(super) fn issue(&mut self, now: Cycle, image: &mut Memory) -> bool {
        let mut active = false;
        let mut budget = self.cfg.core.issue_width;
        // Non-memory and address-generation issue. Candidates come from
        // `issue_queue`: the program-order sequence numbers of exactly
        // the entries that satisfy `stays_queued`, maintained
        // incrementally at dispatch, wake, squash, and at each visit
        // below — so the pass touches only entries that can possibly
        // make progress, with no per-tick collection scan. Parked
        // entries never appear here — their producer's completion
        // re-queues them via its waiter chain, so a blocked arm is re-run
        // exactly when its operands may have become ready.
        debug_assert!(self.issue_queue_consistent());
        let mut qi = 0usize;
        // Unexamined candidates past the issue width stay queued and
        // are revisited next cycle, exactly as a full scan would
        // revisit them.
        while qi < self.issue_queue.len() && budget > 0 {
            let seq = self.issue_queue[qi];
            // A queued entry cannot have retired — it leaves the queue
            // before it completes — so its ROB slot is stable for the
            // whole pass (no retirement here, and squashes only remove
            // younger entries).
            let idx = self.rob_slot(seq).expect("queued entries are in flight");
            'entry: {
                let e = &self.rob[idx];
                debug_assert_eq!(e.seq, seq);
                if e.stage != Stage::Dispatched || e.issue_done {
                    // Progressed through another path since it was
                    // queued; dropped from future scans below.
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
                    Inst::Nop | Inst::Halt | Inst::Mfence => {
                        // Halt completes only at the head so that everything
                        // older retires first; Mfence also waits for the
                        // write buffer to drain. None of the three has a
                        // result register, so nothing can be parked on it
                        // and completion needs no waiter wake.
                        let ready = match inst {
                            Inst::Nop => true,
                            Inst::Halt => idx == 0,
                            _ => idx == 0 && self.wb.is_empty(),
                        };
                        if ready {
                            debug_assert!(self.rob[idx].first_waiter.is_none());
                            self.rob[idx].stage = Stage::Completed;
                            active = true;
                        }
                    }
                    Inst::AtomicAdd { .. } | Inst::AtomicCas { .. } => {
                        // Driven by the write transaction at the head.
                    }
                    Inst::Alu { op, src1, src2, .. } => {
                        let Some(a) = self.operand_or_park(idx, src1) else {
                            break 'entry;
                        };
                        let b = match src2 {
                            Operand::Reg(r) => match self.operand_or_park(idx, r) {
                                Some(v) => v,
                                None => break 'entry,
                            },
                            Operand::Imm(v) => v as u64,
                        };
                        let lat = if op.is_long_latency() {
                            self.cfg.core.mul_latency
                        } else {
                            self.cfg.core.alu_latency
                        };
                        self.rob[idx].result = Some(op.apply(a, b));
                        self.start_exec(seq, now + lat);
                        budget -= 1;
                        active = true;
                    }
                    Inst::Branch { src1, src2, .. } => {
                        if self.operand_or_park(idx, src1).is_none()
                            || self.operand_or_park(idx, src2).is_none()
                        {
                            break 'entry;
                        }
                        self.start_exec(seq, now + 1);
                        budget -= 1;
                        active = true;
                    }
                    Inst::Jump { .. } | Inst::Call { .. } | Inst::Ret => {
                        self.start_exec(seq, now + 1);
                        budget -= 1;
                        active = true;
                    }
                    Inst::Load { base, offset, .. } => {
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
                            break 'entry;
                        }
                        let Some(b) = self.operand_or_park(idx, base) else {
                            break 'entry;
                        };
                        self.lq[lq_idx].addr = Some(Addr::new(b.wrapping_add(offset as u64)));
                        self.rob[idx].issue_done = true;
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
                        // Data capture below also needs the address, so
                        // the whole arm is blocked on `base` until it
                        // resolves.
                        if self.sq[sq_idx].addr.is_none() {
                            if let Some(b) = self.operand_or_park(idx, base) {
                                self.sq[sq_idx].addr =
                                    Some(Addr::new(b.wrapping_add(offset as u64)));
                                self.resolve_store(seq, now);
                                progressed = true;
                            }
                        }
                        // `resolve_store` squashes only younger instructions,
                        // never this store; re-find it defensively.
                        if let Some(sq_idx) = self.sq_index(seq) {
                            if self.sq[sq_idx].data.is_none() && self.sq[sq_idx].addr.is_some() {
                                if let Some(d) = self.operand_or_park(idx, src) {
                                    self.sq[sq_idx].data = Some(d);
                                    progressed = true;
                                }
                            }
                            if self.sq[sq_idx].resolved()
                                && self
                                    .rob_entry(seq)
                                    .is_some_and(|e| e.stage == Stage::Dispatched)
                            {
                                self.start_exec(seq, now + 1);
                                active = true;
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
            if stays_queued(&self.rob[idx]) {
                qi += 1;
            } else {
                self.issue_queue.remove(qi);
            }
        }
        active |= self.issue_loads(now, image);
        active
    }

    /// Moves `seq` into `Executing`, completing at `done_at`.
    pub(super) fn start_exec(&mut self, seq: SeqNum, done_at: Cycle) {
        if let Some(e) = self.rob_entry_mut(seq) {
            e.stage = Stage::Executing { done_at };
            self.exec_heap.push(Reverse((done_at, seq)));
        }
    }

    /// The operand `reg` of ROB entry `idx`, or `None` once the entry is
    /// parked on the producer that blocks it.
    fn operand_or_park(&mut self, idx: usize, reg: Reg) -> Option<u64> {
        let seq = self.rob[idx].seq;
        self.operand_or_blocker(seq, reg)
            .map_err(|blocker| self.record_issue_block(idx, blocker))
            .ok()
    }

    /// Memoizes an issue-arm operand failure: the entry is parked (and
    /// skipped by the issue pass) until the recorded blocking producer
    /// completes and wakes it.
    fn record_issue_block(&mut self, idx: usize, blocker: Option<SeqNum>) {
        self.rob[idx].issue_blocked_on = blocker;
        if let Some(pidx) = blocker.and_then(|p| self.rob_slot(p)) {
            if !self.rob[pidx].completed() {
                // Park until the producer completes: link this entry
                // into the producer's waiter chain, whose walk at
                // completion re-queues it.
                let seq = self.rob[idx].seq;
                debug_assert!(self.rob[idx].next_waiter.is_none());
                let prev = self.rob[pidx].first_waiter.replace(seq);
                self.rob[idx].next_waiter = prev;
                self.rob[idx].parked = true;
            }
        }
        // Otherwise no identifiable in-flight producer (retired, or
        // completed with no result): the entry stays queued and is
        // re-examined every cycle — the unmemoized behaviour.
    }

    /// Wakes every issue-pass waiter parked on `pseq`, which has just
    /// completed: clears the chain, unparks each waiter and re-queues it
    /// so the next issue pass re-runs its arm.
    pub(super) fn wake_waiters(&mut self, pseq: SeqNum) {
        let Some(pidx) = self.rob_slot(pseq) else {
            debug_assert!(self.rob.is_empty(), "completing a retired entry");
            return;
        };
        let mut w = self.rob[pidx].first_waiter.take();
        while let Some(ws) = w {
            let widx = self
                .rob_slot(ws)
                .expect("waiters are younger than their producer");
            let waiter = &mut self.rob[widx];
            debug_assert_eq!(waiter.seq, ws);
            debug_assert_eq!(waiter.issue_blocked_on, Some(pseq));
            w = waiter.next_waiter.take();
            waiter.parked = false;
            let pos = self.issue_queue.partition_point(|&s| s < ws);
            debug_assert_ne!(self.issue_queue.get(pos).copied(), Some(ws));
            self.issue_queue.insert(pos, ws);
        }
    }

    /// Removes `wseq` (whose chain link is `wnext`) from `pseq`'s waiter
    /// chain; called while squashing `wseq`. The producer is older than
    /// its waiter, so it is still in the ROB when the waiter is popped.
    pub(super) fn unlink_waiter(&mut self, pseq: SeqNum, wseq: SeqNum, wnext: Option<SeqNum>) {
        let pidx = self.rob_slot(pseq).expect("producer outlives waiter");
        if self.rob[pidx].first_waiter == Some(wseq) {
            self.rob[pidx].first_waiter = wnext;
            return;
        }
        let mut c = self.rob[pidx].first_waiter;
        while let Some(cidx) = c.and_then(|cs| self.rob_slot(cs)) {
            if self.rob[cidx].next_waiter == Some(wseq) {
                self.rob[cidx].next_waiter = wnext;
                return;
            }
            c = self.rob[cidx].next_waiter;
        }
        debug_assert!(false, "parked entry missing from its producer's chain");
    }

    /// Debug oracle: `issue_queue` holds exactly the seqs of the ROB
    /// entries that satisfy [`stays_queued`], in program order (the ROB
    /// is seq-sorted, so element-wise equality covers membership and
    /// sortedness at once), and every parked entry is one the pass could
    /// still act on and names a live, incomplete producer (its wake fires
    /// when that producer completes).
    fn issue_queue_consistent(&self) -> bool {
        self.rob.iter().filter(|e| e.parked).all(|e| {
            e.stage == Stage::Dispatched
                && !e.issue_done
                && e.issue_blocked_on
                    .is_some_and(|p| self.rob_entry(p).is_some_and(|d| !d.completed()))
        }) && self.issue_queue.iter().copied().eq(self
            .rob
            .iter()
            .filter(|e| stays_queued(e))
            .map(|e| e.seq))
    }

    // ---- operand reading ----

    /// The current value of `reg` as seen by instruction `seq`. A failure
    /// reports which in-flight producer is blocking (`Err(Some(p))`), so
    /// the issue pass can memoize the entry and skip it until `p`
    /// completes. `Err(None)` means blocked with no identifiable producer
    /// (defensive — should not occur); the caller then re-checks every
    /// cycle, which is exactly the unmemoized behaviour.
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

    /// Returns `true` once every source operand of `seq` is ready.
    pub(super) fn operands_ready(&self, seq: SeqNum) -> bool {
        self.rob_entry(seq).is_some_and(|e| {
            e.srcs
                .iter()
                .all(|&(r, _)| self.operand_or_blocker(seq, r).is_ok())
        })
    }

    /// Like [`Core::operand_or_blocker`] but panics if unready; used at
    /// resolution time when readiness was already established.
    pub(super) fn operand_value(&self, seq: SeqNum, reg: Reg) -> u64 {
        self.operand_or_blocker(seq, reg)
            .expect("operand ready at resolution")
    }

    // ---- execute completion ----

    pub(super) fn complete_executing(&mut self, now: Cycle) -> bool {
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
            let Some(e) = self.rob_entry_mut(seq) else {
                continue;
            };
            if e.stage != (Stage::Executing { done_at: d }) {
                continue;
            }
            e.stage = Stage::Completed;
            if e.inst.is_control() || matches!(e.inst, Inst::Store { .. }) {
                resolutions.push(seq);
            }
            active = true;
            self.tracer.emit(EventKind::Complete { seq });
            self.wake_waiters(seq);
        }
        due.clear();
        self.scratch_due = due;
        for &seq in &resolutions {
            let Some(e) = self.rob_entry(seq) else {
                continue; // squashed by an earlier resolution this cycle
            };
            if e.inst.is_control() {
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
}
