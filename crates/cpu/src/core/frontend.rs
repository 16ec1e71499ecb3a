//! Fetch with branch prediction, rename/dispatch into the ROB and the
//! load/store queues, and squash recovery.

use pl_base::{CheckEvent, Cycle, SeqNum};
use pl_isa::{Inst, Pc};
use pl_secure::PinState;
use pl_trace::EventKind;

use super::Core;
use crate::dyninst::{DynInst, LqEntry, PredInfo, SqEntry, SrcList, Stage};

/// Fetch-buffer capacity in instructions.
pub(super) const FETCH_BUF_CAP: usize = 16;

#[derive(Debug, Clone, PartialEq)]
pub(super) struct Fetched {
    pc: Pc,
    inst: Inst,
    pred: Option<PredInfo>,
}

impl Core {
    pub(super) fn fetch(&mut self, now: Cycle) -> bool {
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

    pub(super) fn dispatch(&mut self, now: Cycle) -> bool {
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
                // Atomics never progress in the issue pass (the write
                // transaction drives them at the head), so skip them from
                // the start.
                issue_done: f.inst.is_atomic(),
                issue_blocked_on: None,
                first_waiter: None,
                next_waiter: None,
                parked: false,
                tainted: false,
            });
            if !f.inst.is_atomic() {
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

    /// Squashes every instruction with `seq >= first_bad` and redirects
    /// fetch to `refetch`. `cause` attributes the squash in the event
    /// trace ("branch", "alias", "validation", "mcv_inv", "mcv_evict").
    pub(super) fn squash_from(
        &mut self,
        first_bad: SeqNum,
        refetch: Pc,
        cause: &'static str,
        now: Cycle,
    ) {
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
            if e.parked {
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
}
