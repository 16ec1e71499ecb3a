//! The writer side of coherence: the one `GetX` transaction in flight.
//!
//! Pinned Loads changes it in one way: a `GetX` that a pinned sharer
//! Defers is Aborted and retried as `GetX*` (Sections 5.1.1 and 5.1.5,
//! Figure 5a). Both writers share the transaction: the write-buffer head
//! (a retired store) and the atomic at the ROB head. At most one exists
//! at a time, because an atomic starts only with the write buffer empty
//! and blocks retirement (so the buffer stays empty) until it finishes.

use std::fmt;

use pl_base::{Addr, CheckEvent, Cycle, LineAddr};
use pl_isa::Inst;
use pl_mem::{Memory, Mesi, Msg};
use pl_trace::EventKind;

use super::coherence::{InstallAction, NACK_RETRY_DELAY};
use super::Core;
use crate::dyninst::Stage;

/// Delay before retrying a write that was deferred by a pinned sharer.
const DEFER_RETRY_DELAY: u64 = 12;

/// The core's in-flight write transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct WriteTxn {
    /// `true` for the atomic at the ROB head, `false` for the
    /// write-buffer head.
    atomic: bool,
    line: LineAddr,
    state: TxnState,
    /// `true` once an attempt was deferred: retries use `GetX*`
    /// (Section 5.1.5).
    use_star: bool,
    /// Invalidation responses still outstanding for the current attempt.
    acks_pending: usize,
    /// `true` if any response so far was a defer.
    saw_defer: bool,
    /// `true` once the data/permission response arrived.
    have_data: bool,
    /// The directory waits for an `Unblock` once the write completes.
    needs_unblock: bool,
}

/// Progress of a [`WriteTxn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    /// A `GetX` (or `GetX*`) is in flight; awaiting data/acks.
    Requested,
    /// The attempt was deferred or nacked; it retries at this cycle.
    Retry(Cycle),
    /// A store whose retry came due: the next step re-probes the L1
    /// (a read fill may have made the line writable) before re-sending.
    /// An atomic re-sends at once instead.
    Idle,
}

impl WriteTxn {
    /// The retry timer, while one is pending.
    pub(super) fn retry_at(self) -> Option<Cycle> {
        match self.state {
            TxnState::Retry(at) => Some(at),
            _ => None,
        }
    }
}

/// The deadlock-diagnosis form used by `Core::debug_summary`.
impl fmt::Display for WriteTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} atomic={} {:?} acks={} defer={} star={}",
            self.line, self.atomic, self.state, self.acks_pending, self.saw_defer, self.use_star
        )
    }
}

impl Core {
    /// Advances the write side by one cycle: fires a due retry timer, or
    /// starts the write-buffer head's write, then the ROB head's atomic.
    pub(super) fn step_write(&mut self, now: Cycle, image: &mut Memory) -> bool {
        debug_assert!(
            self.write.is_none_or(|t| !t.atomic || self.wb.is_empty()),
            "an atomic's write transaction overlaps a buffered store"
        );
        let use_star = match self.write {
            Some(t) if t.retry_at().is_some_and(|at| now >= at) => {
                if t.atomic {
                    self.request_write(t.line, true, t.use_star);
                } else {
                    self.write = Some(WriteTxn {
                        state: TxnState::Idle,
                        ..t
                    });
                }
                return true;
            }
            Some(WriteTxn {
                state: TxnState::Idle,
                use_star,
                ..
            }) => use_star,
            Some(_) => return false,
            None => false,
        };
        let mut active = false;
        if let Some(head) = self.wb.head() {
            let line = head.line();
            if self.l1.peek(line).is_some_and(|s| s.writable()) {
                // Silent upgrade/merge: the line is already E/M here.
                if let Some(s) = self.l1.get_mut(line) {
                    *s = Mesi::Modified;
                }
                self.write = None;
                self.merge_store(line, image);
            } else {
                self.request_write(line, false, use_star);
            }
            active = true;
        }
        active | self.start_atomic(image)
    }

    /// Starts the atomic at the ROB head once its operands are ready: at
    /// once on a writable L1 line, otherwise through a `GetX`.
    fn start_atomic(&mut self, image: &mut Memory) -> bool {
        let Some(head) = self.rob.front() else {
            return false;
        };
        // Atomics execute only at the head, with the write buffer drained,
        // to provide their LOCK fence semantics.
        if !head.inst.is_atomic() || head.completed() || !self.wb.is_empty() {
            return false;
        }
        debug_assert!(self.write.is_none());
        if !self.operands_ready(head.seq) {
            return false;
        }
        let line = self.atomic_addr().line();
        if self.l1.peek(line).is_some_and(|s| s.writable()) {
            self.finish_atomic(image);
        } else {
            self.request_write(line, true, false);
        }
        true
    }

    /// Opens a fresh attempt on `line` and sends its `GetX` (`GetX*`
    /// when `use_star`).
    fn request_write(&mut self, line: LineAddr, atomic: bool, use_star: bool) {
        self.write = Some(WriteTxn {
            atomic,
            line,
            state: TxnState::Requested,
            use_star,
            acks_pending: 0,
            saw_defer: false,
            have_data: false,
            needs_unblock: false,
        });
        self.send(
            self.home(line),
            Msg::GetX {
                line,
                requester: self.id,
                star: use_star,
            },
        );
    }

    /// The transaction awaiting a response for `line`, if its `GetX` is in
    /// flight. A response for anything else is stale.
    fn write_txn_mut(&mut self, line: LineAddr) -> Option<&mut WriteTxn> {
        self.write
            .as_mut()
            .filter(|t| t.state == TxnState::Requested && t.line == line)
    }

    /// Handles a write-permission grant for `line`: `Data` carrying the
    /// directory's invalidation count (`Some(acks)`), or an owner's
    /// `OwnerData` (`None`). Returns `false` when no write waits on the
    /// line, leaving the grant to be installed as a read fill.
    pub(super) fn on_write_data(
        &mut self,
        line: LineAddr,
        acks: Option<usize>,
        now: Cycle,
        image: &mut Memory,
    ) -> bool {
        let Some(t) = self.write_txn_mut(line) else {
            return false;
        };
        t.have_data = true;
        match acks {
            Some(n) => {
                t.acks_pending = n;
                t.needs_unblock = n > 0;
            }
            None => t.needs_unblock = true,
        }
        self.try_finish_write(now, image);
        true
    }

    /// Handles an `InvAck`, or an `InvDefer` from a sharer whose load
    /// pins the line.
    pub(super) fn on_inv_ack(
        &mut self,
        line: LineAddr,
        defer: bool,
        now: Cycle,
        image: &mut Memory,
    ) {
        let Some(t) = self.write_txn_mut(line) else {
            // Stale response from an aborted attempt; drop it.
            return;
        };
        t.saw_defer |= defer;
        if t.acks_pending > 0 {
            t.acks_pending -= 1;
        } else if t.have_data {
            self.record_ack_underflow(line);
        }
        self.try_finish_write(now, image);
    }

    /// The directory nacked the `GetX` for `line`: retry after a backoff.
    pub(super) fn on_write_nack(&mut self, line: LineAddr, now: Cycle) {
        if let Some(t) = self.write_txn_mut(line) {
            t.state = TxnState::Retry(now + NACK_RETRY_DELAY);
            t.have_data = false;
        }
    }

    /// An InvAck/InvDefer arrived *after* this transaction's Data had
    /// already set (and the acks drained) the expected count. A
    /// zero-count ack *before* Data is different — it is a stale response
    /// from an aborted earlier attempt on the same line, which
    /// `write_txn_mut` cannot distinguish, and same-round acks can
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

    /// Checks whether the write transaction can finish — all responses
    /// in — and either installs the line in M or aborts and schedules the
    /// starred retry.
    fn try_finish_write(&mut self, now: Cycle, image: &mut Memory) {
        let Some(t) = self.write else { return };
        // For the FwdGetX path a defer arrives without data; treat the
        // defer itself as terminal once no acks remain.
        if t.acks_pending > 0 || (!t.have_data && !t.saw_defer) {
            return;
        }
        let line = t.line;
        if !t.saw_defer {
            self.install_or_queue(line, Mesi::Modified, InstallAction::WriteFinish, now, image);
            return;
        }
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
        self.write = Some(WriteTxn {
            state: TxnState::Retry(now + DEFER_RETRY_DELAY),
            use_star: true,
            saw_defer: false,
            have_data: false,
            ..t
        });
    }

    /// Completes the transaction once its line is installed in M: merges
    /// the store or performs the atomic, then unblocks the directory.
    pub(super) fn finish_write(&mut self, line: LineAddr, image: &mut Memory) {
        let t = self
            .write
            .take()
            .expect("a write install has a transaction");
        if t.atomic {
            self.finish_atomic(image);
        } else {
            self.merge_store(line, image);
        }
        if t.needs_unblock {
            self.send(
                self.home(line),
                Msg::Unblock {
                    line,
                    from: self.id,
                },
            );
        }
    }

    /// Merges the write-buffer head into memory; its line is writable.
    fn merge_store(&mut self, line: LineAddr, image: &mut Memory) {
        let head = self.wb.pop().expect("write merge requires a head entry");
        image.write(head.addr, head.value);
        self.stats.incr_id(self.ids.wb_merges);
        self.check.emit(CheckEvent::WriteFinished {
            core: self.id,
            line,
        });
        self.promote_pending_pins(line);
    }

    /// The address the atomic at the ROB head accesses.
    fn atomic_addr(&self) -> Addr {
        let head = self.rob.front().expect("atomic at the ROB head");
        let (base, offset) = head.inst.mem_operand().expect("atomic is a memory op");
        Addr::new(
            self.operand_value(head.seq, base)
                .wrapping_add(offset as u64),
        )
    }

    /// Performs the atomic at the ROB head on its writable L1 line.
    fn finish_atomic(&mut self, image: &mut Memory) {
        let head = self.rob.front().expect("atomic finish requires a head");
        debug_assert!(head.inst.is_atomic());
        let (seq, inst) = (head.seq, head.inst);
        let addr = self.atomic_addr();
        let line = addr.line();
        // The GetX path installs the line before finishing; the hit path
        // found it writable.
        let state = self.l1.get_mut(line);
        debug_assert!(state.is_some(), "an atomic finishes on a resident line");
        if let Some(s) = state {
            *s = Mesi::Modified;
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
        self.stats.incr_id(self.ids.atomics);
        self.check.emit(CheckEvent::WriteFinished {
            core: self.id,
            line,
        });
    }
}
