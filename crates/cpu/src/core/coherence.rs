//! Inbound coherence messages and the L1 install path.

use pl_base::{CheckEvent, CoreId, Cycle, InvalidateCause, LineAddr, Mutation};
use pl_mem::{DataGrant, Memory, Mesi, Msg, NodeId};
use pl_trace::EventKind;

use super::Core;

/// Delay before retrying a nacked coherence request.
pub(super) const NACK_RETRY_DELAY: u64 = 5;
/// Delay before retrying an L1 install whose set was fully pinned.
const INSTALL_RETRY_DELAY: u64 = 6;

/// What to do once a denied L1 install finally succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum InstallAction {
    /// Complete the read miss: wake the MSHR waiters.
    ReadFill,
    /// Finish the write transaction (see `write`).
    WriteFinish,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PendingInstall {
    line: LineAddr,
    state: Mesi,
    action: InstallAction,
    pub(super) retry_at: Cycle,
}

impl Core {
    /// Processes one message delivered by the interconnect.
    pub fn handle_msg(&mut self, msg: Msg, now: Cycle, image: &mut Memory) {
        match msg {
            Msg::Data {
                line,
                grant,
                acks_expected,
            } => self.on_data(line, grant, Some(acks_expected), now, image),
            Msg::OwnerData { line, grant, .. } => self.on_data(line, grant, None, now, image),
            Msg::Inv {
                line,
                requester,
                star,
            } => {
                let to = NodeId::Core(requester);
                self.on_invalidate(line, InvalidateCause::Inv, to, star, now)
            }
            Msg::FwdGetS { line, requester } => self.on_fwd_gets(line, requester),
            Msg::FwdGetX {
                line,
                requester,
                star,
            } => {
                let to = NodeId::Core(requester);
                self.on_invalidate(line, InvalidateCause::FwdGetX, to, star, now)
            }
            Msg::BackInv { line, slice } => {
                let to = NodeId::Slice(slice);
                self.on_invalidate(line, InvalidateCause::BackInv, to, false, now)
            }
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

    /// A data response: the directory's `Data` (`acks` = its invalidation
    /// count) or an owner's `OwnerData` (`acks` = `None`). A grant of M
    /// goes to a waiting write; anything else is a read fill, and an
    /// owner's data is only ever shared.
    fn on_data(
        &mut self,
        line: LineAddr,
        grant: DataGrant,
        acks: Option<usize>,
        now: Cycle,
        image: &mut Memory,
    ) {
        if grant == DataGrant::Modified && self.on_write_data(line, acks, now, image) {
            return;
        }
        let state = match (grant, acks) {
            (DataGrant::Modified, Some(_)) => Mesi::Modified,
            (DataGrant::Exclusive, Some(_)) => Mesi::Exclusive,
            _ => Mesi::Shared,
        };
        self.install_or_queue(line, state, InstallAction::ReadFill, now, image);
    }

    /// An `Inv`, `FwdGetX` or `BackInv` for `line`, answered to
    /// `reply_to`. While a load pins the line, the cache is not
    /// invalidated, the load is not squashed, and a Defer goes back
    /// (Section 5.1.1); otherwise the line is invalidated, TSO squashes
    /// any load that read it early, and the request is acknowledged.
    /// `star` marks an `Inv*`/`FwdGetX*`, which records a CPT entry.
    fn on_invalidate(
        &mut self,
        line: LineAddr,
        cause: InvalidateCause,
        reply_to: NodeId,
        star: bool,
        now: Cycle,
    ) {
        if star && self.governor.on_inv_star(line) {
            self.check.emit(CheckEvent::CptInserted {
                core: self.id,
                line,
                occupancy: self.governor.cpt().occupancy(),
            });
        }
        let from = self.id;
        let back = cause == InvalidateCause::BackInv;
        let pinned = self.governor.is_line_pinned(line);
        let ignore_pin = pinned && cause == InvalidateCause::Inv && self.take_ignore_pin_mutation();
        if pinned && !ignore_pin {
            if back {
                self.stats.incr_id(self.ids.l1_back_invs_deferred);
            } else {
                self.stats.incr_id(self.ids.l1_invs_deferred);
            }
            self.tracer.emit(EventKind::InvDeferred { line });
            let defer = if back {
                Msg::BackInvDefer { line, from }
            } else {
                Msg::InvDefer { line, from }
            };
            self.send(reply_to, defer);
            return;
        }
        // The mutation path deliberately skips the squash too: the pinned
        // load keeps its stale value, which is exactly the bug the checker
        // must flag.
        if !ignore_pin {
            let (counter, source) = if back {
                (self.ids.squash_mcv_evict, "mcv_evict")
            } else {
                (self.ids.squash_mcv_inv, "mcv_inv")
            };
            self.squash_tso_loads(line, counter, source, now);
        }
        let dirty = self.l1.invalidate(line) == Some(Mesi::Modified);
        self.check.emit(CheckEvent::L1Invalidated {
            core: self.id,
            line,
            cause,
        });
        let ack = match cause {
            InvalidateCause::Inv => Msg::InvAck { line, from },
            InvalidateCause::FwdGetX => Msg::OwnerData {
                line,
                grant: DataGrant::Modified,
                from,
            },
            _ => Msg::BackInvAck { line, from, dirty },
        };
        self.send(reply_to, ack);
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

    fn on_nack(&mut self, line: LineAddr, was_write: bool, now: Cycle) {
        self.stats.incr_id(self.ids.l1_nacks);
        if was_write {
            // The rejected request was our GetX; the tag prevents
            // misattributing a nacked *read* on the same line to the
            // write transaction.
            self.on_write_nack(line, now);
        } else if self.mshrs.contains(line) {
            // A read request was nacked: retry the GetS while the miss is
            // still wanted.
            self.read_retries.push((now + NACK_RETRY_DELAY, line));
        }
    }

    // ------------------------------------------------------------------
    // Install path
    // ------------------------------------------------------------------

    pub(super) fn install_or_queue(
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
        if !self.try_install(line, state, now) {
            self.pending_installs.push(PendingInstall {
                line,
                state,
                action,
                retry_at: now + INSTALL_RETRY_DELAY,
            });
            return;
        }
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
            InstallAction::WriteFinish => self.finish_write(line, image),
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

    pub(super) fn retry_pending_installs(&mut self, now: Cycle, image: &mut Memory) -> bool {
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
}
