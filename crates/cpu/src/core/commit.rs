//! In-order retirement from the ROB head.

use pl_base::{CheckEvent, Cycle};
use pl_isa::Inst;
use pl_secure::PinState;
use pl_trace::EventKind;

use super::Core;

impl Core {
    pub(super) fn commit(&mut self, now: Cycle) -> bool {
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
}
