//! Everything a defense scheme does inside the core: the
//! [`IssuePolicy`](pl_secure::IssuePolicy) queries of the load-issue
//! pass, STT's taint bits, and InvisiSpec's invisible bind, exposure and
//! validation. The rest of the pipeline reads the `tainted`,
//! `invisible` and `exposing` flags but never sets them.

use pl_base::{Cycle, LineAddr, SeqNum};
use pl_mem::Memory;
use pl_secure::scheme::{IssueBlock, LoadContext};
use pl_trace::EventKind;

use super::Core;
use crate::dyninst::SrcList;

impl Core {
    /// The scheme's issue decision for LQ entry `i`, reading `line`, whose
    /// VP is `vp_reached` or not yet. Returns whether the line is readable
    /// in the L1, or `None`, counting the stall, while the scheme holds
    /// the load back.
    pub(super) fn scheme_admits(
        &mut self,
        i: usize,
        line: LineAddr,
        vp_reached: bool,
    ) -> Option<bool> {
        // Only Delay-On-Miss consults residency to *decide*; for every
        // other scheme the probe is deferred past the issue decision, so a
        // blocked load polling here each cycle never touches the L1 set.
        let l1_hit = |core: &Core| core.l1.peek(line).is_some_and(|s| s.readable());
        let ctx = LoadContext {
            vp_reached,
            l1_hit: self.policy.consults_l1() && l1_hit(self),
            address_tainted: self.address_tainted(i),
        };
        if let Err(block) = self.policy.may_issue(ctx) {
            let key = match block {
                IssueBlock::WaitVp => self.ids.stall_vp,
                IssueBlock::WaitMissVp => self.ids.stall_dom_miss,
                IssueBlock::WaitTaint => self.ids.stall_taint,
            };
            self.stats.incr_id(key);
            return None;
        }
        Some(if self.policy.consults_l1() {
            ctx.l1_hit
        } else {
            l1_hit(self)
        })
    }

    /// Whether the scheme holds every load short of its VP whatever its
    /// L1 residency or taint (Fence), so the load-issue pass may count the
    /// loads past the VP frontier as held instead of visiting them.
    pub(super) fn holds_every_pre_vp_load(&self) -> bool {
        self.policy.holds_every_pre_vp_load()
    }

    /// Whether the scheme would hold LQ entry `i`, were it short of its
    /// VP, with its true L1 residency and taint: the second half of the
    /// debug-build oracle for the load-issue pass's bulk count.
    pub(super) fn holds_pre_vp_load(&self, i: usize) -> bool {
        let line = self.lq[i].line().expect("a held load has an address");
        let ctx = LoadContext {
            vp_reached: false,
            l1_hit: self.l1.peek(line).is_some_and(|s| s.readable()),
            address_tainted: self.address_tainted(i),
        };
        self.policy.may_issue(ctx) == Err(IssueBlock::WaitVp)
    }

    // ------------------------------------------------------------------
    // STT taint
    // ------------------------------------------------------------------

    /// STT: whether a register feeding the address of LQ entry `i` is
    /// tainted. Always `false` under every other scheme.
    fn address_tainted(&self, i: usize) -> bool {
        self.policy.tracks_taint()
            && self
                .rob_entry(self.lq[i].seq)
                .is_some_and(|d| self.srcs_tainted(&d.srcs))
    }

    /// STT: a load that binds its value before its VP taints the
    /// instructions that consume it.
    pub(super) fn taint_load(&mut self, seq: SeqNum, pre_vp: bool) {
        if self.policy.tracks_taint() && pre_vp {
            self.taint_dirty = true;
            if let Some(d) = self.rob_entry_mut(seq) {
                d.tainted = true;
            }
        }
    }

    /// Re-derives the non-load taint bits if an input changed, then
    /// clears the bits of performed loads that reached their VP. The
    /// untaint scan runs every cycle: a VP arrives without any taint
    /// input changing.
    pub(super) fn propagate_taint(&mut self) -> bool {
        if !self.policy.tracks_taint() {
            return false;
        }
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
                let t = self.srcs_tainted(&e.srcs);
                if t != e.tainted {
                    self.rob[i].tainted = t;
                    changed = true;
                }
            }
        }
        // Untaint loads that have reached their VP.
        for i in 0..self.lq.len() {
            let seq = self.lq[i].seq;
            if self.lq[i].performed()
                && self.rob_entry(seq).is_some_and(|d| d.tainted)
                && self.vp_reached(i)
            {
                self.rob_entry_mut(seq).expect("checked above").tainted = false;
                self.taint_dirty = true;
                changed = true;
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
            .all(|e| e.inst.is_load() || e.tainted == self.srcs_tainted(&e.srcs))
    }

    /// Whether any of `srcs` comes from a tainted producer still in the
    /// ROB. A producer older than the head has retired, and its
    /// architectural value is untainted.
    fn srcs_tainted(&self, srcs: &SrcList) -> bool {
        srcs.iter().any(|&(_, p)| {
            p.and_then(|p| self.rob.get(self.rob_slot(p)?))
                .is_some_and(|d| d.tainted)
        })
    }

    // ------------------------------------------------------------------
    // InvisiSpec
    // ------------------------------------------------------------------

    /// Invisible speculation: before its VP, LQ entry `i` binds its value
    /// without changing cache state and is validated at the VP
    /// (exposure). Returns `false`, doing nothing, under every other
    /// scheme and once the VP is reached.
    pub(super) fn bind_invisibly(
        &mut self,
        i: usize,
        l1_hit: bool,
        vp_reached: bool,
        now: Cycle,
        image: &mut Memory,
    ) -> bool {
        if !self.policy.issues_invisibly() || vp_reached {
            return false;
        }
        // The access still pays a realistic latency — the L1 hit time
        // when the line is resident, otherwise a memory round trip.
        // Without consulting the directory we cannot tell LLC from DRAM
        // residency, so the miss case is charged the full DRAM latency:
        // conservative for the invisible scheme (it can only look worse,
        // never unfairly better).
        let seq = self.lq[i].seq;
        let addr = self.lq[i].addr.expect("issuing load has an address");
        let v = image.read(addr);
        let latency = if l1_hit {
            self.cfg.mem.l1d.hit_latency
        } else {
            self.cfg.mem.llc_slice.hit_latency
                + 2 * self.cfg.mem.hop_latency
                + self.cfg.mem.dram_latency
        };
        let line = addr.line();
        self.tracer.emit(EventKind::IssueLoad { seq, line, l1_hit });
        self.perform_load(i, v, false, None, now, false);
        self.lq[i].invisible = true;
        // Override the L1-hit deadline `perform_load` set with the
        // invisible access's latency. The heap entry `perform_load` pushed
        // carries the old deadline and is discarded as stale, so the new
        // deadline needs its own entry.
        self.start_exec(seq, now + latency);
        self.stats.incr_id(self.ids.loads_invisible);
        true
    }

    /// Issues the InvisiSpec exposure access for LQ entry `i`: an L1 hit
    /// validates immediately; a miss fetches the line and validates on
    /// arrival.
    pub(super) fn expose_load(&mut self, i: usize, now: Cycle, image: &mut Memory) -> bool {
        let e = &self.lq[i];
        let line = e.line().expect("performed load has an address");
        let seq = e.seq;
        if self.l1.peek(line).is_some_and(|s| s.readable()) {
            self.l1.touch(line);
            self.stats.incr_id(self.ids.l1_hits);
            self.validate_exposed(i, now, image);
            true
        } else if self.request_line(line, seq) {
            self.lq[i].exposing = true;
            true
        } else {
            false
        }
    }

    /// Compares the invisibly bound value against the now-coherent value;
    /// a mismatch squashes and re-executes the load (InvisiSpec
    /// validation failure).
    pub(super) fn validate_exposed(&mut self, i: usize, now: Cycle, image: &mut Memory) {
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
}
