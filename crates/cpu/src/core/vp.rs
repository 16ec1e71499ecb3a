//! Visibility-Point status (the per-cycle ROB aggregates and each load's
//! VP conditions) and the pin pass of both Pinned Loads designs.

use pl_base::verify::{VP_ALIAS, VP_CTRL, VP_EXCEPTION};
use pl_base::{CheckEvent, LineAddr, PinMode, SeqNum};
use pl_secure::{PinState, VpStatus};
use pl_trace::EventKind;

use super::Core;

/// Per-cycle aggregates over the ROB used to evaluate VP conditions in
/// O(1) per load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Aggregates {
    pub(super) oldest_unresolved_ctrl: Option<SeqNum>,
    pub(super) oldest_unknown_store_addr: Option<SeqNum>,
    pub(super) oldest_unknown_mem_addr: Option<SeqNum>,
    pub(super) oldest_active_fence: Option<SeqNum>,
}

impl Core {
    pub(super) fn aggregates(&mut self) -> Aggregates {
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
    /// `false` keeps it (a mem instruction with a missing queue entry
    /// counts as address-unknown).
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
            if e.inst.is_mem() && !self.agg_addr_known(e.seq) {
                if a.oldest_unknown_mem_addr.is_none() {
                    a.oldest_unknown_mem_addr = Some(e.seq);
                }
                if e.inst.is_store() && a.oldest_unknown_store_addr.is_none() {
                    a.oldest_unknown_store_addr = Some(e.seq);
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
    pub(super) fn vp_status_for(&self, i: usize, aggr: &Aggregates) -> VpStatus {
        let mut status = self.vp_status_base(i, aggr);
        let e = &self.lq[i];
        let is_oldest = i == 0;
        status.mcv_clear = e.mcv_immune()
            || is_oldest
            || match self.governor.mode() {
                PinMode::Off => false,
                PinMode::Early => false, // must actually be pinned
                PinMode::Late => {
                    e.pin == PinState::Pending || self.late_pin_eligible(i, status, aggr)
                }
            };
        status
    }

    /// Whether the VP of LQ entry `i` is reached this cycle.
    pub(super) fn vp_reached(&self, i: usize) -> bool {
        self.vp_mask.reached(self.vp_status_for(i, &self.aggr))
    }

    /// The VP frontier: the oldest of the aggregates the VP mask checks,
    /// in program order — an unresolved control instruction (ctrl), an
    /// unknown store address (alias) or an unknown memory address
    /// (exception). Every load strictly younger than it is short of its
    /// VP. MCV is per load and takes no part. `None` while no checked
    /// condition is pending.
    pub(super) fn vp_frontier(&self, aggr: &Aggregates) -> Option<SeqNum> {
        let mask = self.vp_mask;
        [
            (mask.ctrl, aggr.oldest_unresolved_ctrl),
            (mask.alias, aggr.oldest_unknown_store_addr),
            (mask.exception, aggr.oldest_unknown_mem_addr),
        ]
        .into_iter()
        .filter_map(|(checked, oldest)| oldest.filter(|_| checked))
        .min()
    }

    /// Trace-only LQ scan: attributes each load's VP progress to the
    /// first still-blocking condition and emits `VpBlocked` on every
    /// blocker transition and `VpClear` once the VP is reached. Runs only
    /// with tracing enabled; the simulated pipeline never reads the
    /// attribution fields.
    pub(super) fn trace_vp_conditions(&mut self) -> bool {
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
    pub(super) fn check_vp_progress(&mut self) {
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

    // ------------------------------------------------------------------
    // Pinning
    // ------------------------------------------------------------------

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

    /// Late Pinning: LQ entry `i`, whose VP conditions other than MCV are
    /// `status`, may pin now — so its MCV condition is clear, and a miss
    /// it issues goes out pin-pending.
    pub(super) fn late_pin_eligible(&self, i: usize, status: VpStatus, aggr: &Aggregates) -> bool {
        status.clear_except_mcv() && self.pin_order_ok(i) && self.pin_eligible_base(i, aggr)
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

    pub(super) fn pin_pass(&mut self) -> bool {
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

    /// Late Pinning: loads that issued pin-pending on `line` become pinned
    /// the moment its data arrives.
    pub(super) fn promote_pending_pins(&mut self, line: LineAddr) {
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
}
