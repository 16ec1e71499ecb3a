//! The load/store queues: load issue, store-to-load forwarding, binding
//! a load's value, read misses, and TSO's load squash.

use pl_base::{Addr, Cycle, LineAddr, PinMode, SeqNum, StatId};
use pl_mem::{Memory, Msg};
use pl_secure::PinState;
use pl_trace::EventKind;

use super::vp::Aggregates;
use super::Core;
use crate::dyninst::LqEntry;

/// The filters a load-issue visit applies before the scheme check: the
/// load has not bound its value, is not waiting on a fill, knows its
/// address, and is not younger than the oldest active fence (loads
/// younger than an active fence must not issue).
fn awaits_issue(e: &LqEntry, aggr: &Aggregates) -> bool {
    !e.performed()
        && !e.waiting_fill
        && e.addr.is_some()
        && aggr.oldest_active_fence.is_none_or(|f| f >= e.seq)
}

impl Core {
    /// The load-issue pass: applies the defense scheme's policy, performs
    /// store-to-load forwarding, and accesses the L1.
    ///
    /// Under a scheme that holds every pre-VP load (Fence), every load
    /// past the VP frontier is held, so the pass visits only the LQ
    /// prefix up to the frontier and charges the rest to `stall.vp` in
    /// one count.
    pub(super) fn issue_loads(&mut self, now: Cycle, image: &mut Memory) -> bool {
        let mut active = false;
        let mut ports = 3usize; // L1-D read ports (Table 1)
        let aggr = self.aggr;
        let held_from = self.held_from(&aggr);
        let mut i = 0usize;
        // Visits can squash an LQ suffix (validation mismatch); the
        // bound is re-read every iteration, so a truncated tail is
        // simply never reached.
        while i < held_from.min(self.lq.len()) && ports > 0 {
            'load: {
                let e = &self.lq[i];
                let seq = e.seq;
                if e.invisible && e.performed() && !e.exposing {
                    // InvisiSpec exposure: once the load reaches its VP, issue
                    // the second, visible access to validate the early value.
                    if self.vp_reached(i) {
                        active |= self.expose_load(i, now, image);
                        ports -= 1;
                    }
                    break 'load;
                }
                if !awaits_issue(e, &aggr) {
                    break 'load;
                }
                let addr = e.addr.expect("a load awaiting issue has an address");
                let line = addr.line();
                let status = self.vp_status_for(i, &aggr);
                let vp_reached = self.vp_mask.reached(status);
                let Some(l1_hit) = self.scheme_admits(i, line, vp_reached) else {
                    break 'load;
                };
                if let Some((from, data)) = self.older_store(seq, addr) {
                    // Store-to-load forwarding; a matching older store
                    // without data makes the load wait.
                    let Some(v) = data else {
                        self.stats.incr_id(self.ids.stall_store_data);
                        break 'load;
                    };
                    self.perform_load(i, v, true, Some(from), now, !vp_reached);
                } else if let Some(v) = self.wb.forward(addr) {
                    // Write-buffer forwarding (retired but unmerged own
                    // stores).
                    self.perform_load(i, v, true, None, now, !vp_reached);
                } else if self.bind_invisibly(i, l1_hit, vp_reached, now, image) {
                    // Bound without touching the cache; validated at the VP.
                } else if l1_hit {
                    self.l1.touch(line);
                    let v = image.read(addr);
                    self.stats.incr_id(self.ids.l1_hits);
                    self.tracer.emit(EventKind::IssueLoad {
                        seq,
                        line,
                        l1_hit: true,
                    });
                    self.perform_load(i, v, false, None, now, !vp_reached);
                } else if self.request_line(line, seq) {
                    self.tracer.emit(EventKind::IssueLoad {
                        seq,
                        line,
                        l1_hit: false,
                    });
                    self.lq[i].waiting_fill = true;
                    // Late Pinning: if this load issued under pin
                    // eligibility (not merely as the oldest load), mark it
                    // pin-pending so arrival pins it.
                    if self.governor.mode() == PinMode::Late
                        && self.late_pin_eligible(i, status, &aggr)
                    {
                        self.lq[i].pin = PinState::Pending;
                        self.tracer.emit(EventKind::PinPending { seq, line });
                    }
                } else {
                    break 'load;
                }
                ports -= 1;
                active = true;
            }
            i += 1;
        }
        // A held load takes no port, so a visit per load would have
        // reached the suffix exactly when the prefix left a port.
        if ports > 0 && held_from < self.lq.len() {
            debug_assert!(
                self.held_past_frontier(held_from, &aggr),
                "a load counted as held past the VP frontier reached its VP or is not held"
            );
            let held = self.lq[held_from..]
                .iter()
                .filter(|e| awaits_issue(e, &aggr))
                .count();
            self.stats.add_id(self.ids.stall_vp, held as u64);
        }
        active
    }

    /// LQ index of the first load strictly younger than the VP frontier
    /// when the scheme holds every pre-VP load; the LQ length otherwise,
    /// or while there is no frontier.
    fn held_from(&self, aggr: &Aggregates) -> usize {
        if !self.holds_every_pre_vp_load() {
            return self.lq.len();
        }
        self.vp_frontier(aggr)
            .map_or(self.lq.len(), |f| self.lq.partition_point(|e| e.seq <= f))
    }

    /// Whether every load that the bulk count charges from LQ index
    /// `from` on is short of its VP and held by the scheme (debug-build
    /// oracle for [`Core::issue_loads`], in the style of
    /// [`Core::aggregates_reference`]).
    fn held_past_frontier(&self, from: usize, aggr: &Aggregates) -> bool {
        (from..self.lq.len())
            .filter(|&i| awaits_issue(&self.lq[i], aggr))
            .all(|i| !self.vp_reached(i) && self.holds_pre_vp_load(i))
    }

    /// The youngest store older than `seq` that writes the word at
    /// `addr`, as its sequence number and its data once known.
    fn older_store(&self, seq: SeqNum, addr: Addr) -> Option<(SeqNum, Option<u64>)> {
        let word = addr.raw() >> 3;
        self.sq
            .iter()
            .rev()
            .filter(|s| s.seq < seq)
            .find(|s| s.addr.is_some_and(|a| a.raw() >> 3 == word))
            .map(|s| (s.seq, s.data))
    }

    /// Sends the read miss of `seq` on `line`: allocates an MSHR and, for
    /// the line's first miss, sends the `GetS` and the next-line
    /// prefetches. Returns `false`, counting the stall, when no MSHR is
    /// free.
    pub(super) fn request_line(&mut self, line: LineAddr, seq: SeqNum) -> bool {
        let Ok(primary) = self.mshrs.allocate(line, seq, false) else {
            self.stats.incr_id(self.ids.stall_mshr_full);
            return false;
        };
        self.stats.incr_id(self.ids.l1_misses);
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

    /// Re-sends the `GetS` of nacked read misses whose backoff expired,
    /// while the miss is still wanted.
    pub(super) fn retry_reads(&mut self, now: Cycle) -> bool {
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

    /// Binds a load's value ("performs" it) and schedules completion.
    /// `forwarded_from` is the in-flight store that supplied the value,
    /// if any (see `LqEntry::forwarded_from`).
    pub(super) fn perform_load(
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
        self.taint_load(seq, pre_vp);
        self.tracer
            .emit(EventKind::LoadPerformed { seq, forwarded });
        if let Some(d) = self.rob_entry_mut(seq) {
            d.result = Some(value);
        }
        self.start_exec(seq, now + hit_latency);
    }

    /// Performs a load that was waiting on a fill that just installed.
    pub(super) fn perform_waiting_load(&mut self, seq: SeqNum, now: Cycle, image: &mut Memory) {
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
        let pre_vp = !self.vp_reached(i);
        // An older store may have resolved while the fill was in flight;
        // re-check forwarding so the load binds the correct value.
        match self.older_store(seq, addr) {
            Some((from, Some(v))) => self.perform_load(i, v, true, Some(from), now, pre_vp),
            Some((_, None)) => {
                // Wait for the store's data; the issue pass will retry
                // forwarding (the line is now resident, so no new miss).
            }
            None => {
                let from_wb = self.wb.forward(addr);
                let v = from_wb.unwrap_or_else(|| image.read(addr));
                self.perform_load(i, v, from_wb.is_some(), None, now, pre_vp);
            }
        }
    }

    /// TSO conservative squash: any performed-but-unretired load on `line`
    /// that is not the oldest load in the ROB is squashed, along with its
    /// successors (Section 2). `counter` attributes the squash in the
    /// statistics and `cause` in the event trace.
    pub(super) fn squash_tso_loads(
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

    /// Index of the LQ entry for `seq`, if any. The LQ is sorted by seq
    /// (dispatch appends in program order; squash and retire preserve
    /// order), so this is a binary search rather than a scan.
    pub(super) fn lq_index(&self, seq: SeqNum) -> Option<usize> {
        let found = self.lq.binary_search_by_key(&seq, |e| e.seq).ok();
        debug_assert_eq!(found, self.lq.iter().position(|e| e.seq == seq));
        found
    }

    /// Index of the SQ entry for `seq`, if any. Sorted like the LQ.
    pub(super) fn sq_index(&self, seq: SeqNum) -> Option<usize> {
        let found = self.sq.binary_search_by_key(&seq, |e| e.seq).ok();
        debug_assert_eq!(found, self.sq.iter().position(|e| e.seq == seq));
        found
    }
}
