//! The on-chip interconnect.
//!
//! Models the paper's "ordered, 4x2 mesh, 128 b link, 1 cycle/hop"
//! (Table 1) at message granularity: each message takes a base latency of
//! one cycle plus one hop-latency per Manhattan hop between the source and
//! destination tiles. Cores and LLC slices with the same index share a
//! tile, so a core talking to its local slice pays only the base latency.
//!
//! Delivery is point-to-point ordered: two messages between the same
//! `(src, dst)` pair are delivered in send order, which directory
//! protocols rely on.
//!
//! # Per-pair batching
//!
//! In-flight messages are kept in one FIFO queue per `(src, dst)` pair,
//! stored in a dense table sized by the highest node index seen. Because
//! the pair latency is constant and machine time only moves forward,
//! each pair queue is already sorted by delivery time, so `send` is an
//! O(1) `push_back` and only the *head* of each non-empty pair sits in a
//! small ready-heap. The heap therefore holds at most one entry per
//! active pair (plus transient duplicates after an out-of-order insert)
//! instead of one per message, and global delivery order — ascending
//! `(deliver_at, seq)`, i.e. send order among simultaneous arrivals — is
//! reproduced exactly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pl_base::{Cycle, SimRng};

use crate::msg::{Msg, NodeId};

/// One `(src, dst)` channel: messages in flight, sorted by
/// `(deliver_at, seq)`, plus the latest delivery time ever scheduled on
/// the pair (used by the fault injector's FIFO clamp; persists after the
/// queue drains, replacing the old unbounded `last_slice_delivery` map).
#[derive(Debug, Clone, Default)]
struct PairQueue {
    q: VecDeque<(Cycle, u64, Msg)>,
    last_deliver_at: Cycle,
}

/// The mesh interconnect.
///
/// # Examples
///
/// ```
/// use pl_base::{Addr, CoreId, Cycle};
/// use pl_mem::{Msg, NodeId, Noc};
///
/// let mut noc = Noc::new(4, 2, 1);
/// let line = Addr::new(0x40).line();
/// noc.send(
///     Cycle(0),
///     NodeId::Core(CoreId(0)),
///     NodeId::Slice(0),
///     Msg::GetS { line, requester: CoreId(0) },
/// );
/// // Same tile: base latency of 1 cycle.
/// assert!(noc.deliver(Cycle(0)).is_empty());
/// let arrived = noc.deliver(Cycle(1));
/// assert_eq!(arrived.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Noc {
    cols: usize,
    rows: usize,
    hop_latency: u64,
    /// Dense `nodes x nodes` pair table, flat-indexed `src * nodes + dst`.
    pairs: Vec<PairQueue>,
    /// Side length of the pair table (number of dense node slots).
    nodes: usize,
    /// Heads of non-empty pair queues: `(deliver_at, seq, src, dst)`
    /// dense indices. May contain stale entries (lazily discarded on
    /// pop), but the true earliest head is always present.
    ready: BinaryHeap<Reverse<(Cycle, u64, u32, u32)>>,
    next_seq: u64,
    in_flight: usize,
    messages_sent: u64,
    hops_traversed: u64,
    faults: Option<FaultInjector>,
}

/// Seeded delivery-timing perturbation for `pl-verify` stress runs.
///
/// Only *directory-bound* messages are delayed: from any node's point of
/// view, a late-arriving request at the home slice is indistinguishable
/// from a busy directory, so every perturbed schedule is one the protocol
/// must already handle (the Nack/busy-state machinery absorbs it).
/// Responses and forwarded requests headed to cores are left untouched —
/// the mesh's triangle-inequality timing (data always beats the
/// invalidation that follows it) is an implicit protocol assumption, and
/// violating it would inject *illegal* schedules and false alarms.
///
/// Per-`(src, dst)` FIFO order is preserved by clamping each jittered
/// delivery to the latest delivery already scheduled for that pair; the
/// clamp state lives in the dense pair table, so fault injection adds no
/// per-pair bookkeeping that could grow over a run.
#[derive(Debug, Clone)]
struct FaultInjector {
    rng: SimRng,
    max_extra_delay: u64,
}

/// Dense index of a node: cores on even slots, slices on odd, so any mix
/// of core and slice ids maps into one table without knowing either
/// population in advance.
fn node_idx(node: NodeId) -> usize {
    match node {
        NodeId::Core(c) => 2 * c.index(),
        NodeId::Slice(s) => 2 * s + 1,
    }
}

fn node_of(idx: usize) -> NodeId {
    if idx.is_multiple_of(2) {
        NodeId::Core(pl_base::CoreId(idx / 2))
    } else {
        NodeId::Slice(idx / 2)
    }
}

impl Noc {
    /// Creates a mesh of `cols` x `rows` tiles with the given per-hop
    /// latency. The pair table starts empty and grows to fit the highest
    /// node index that actually communicates; use [`Noc::with_nodes`] to
    /// size it once up front.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has no tiles.
    pub fn new(cols: usize, rows: usize, hop_latency: u64) -> Noc {
        assert!(cols * rows > 0, "mesh must have at least one tile");
        Noc {
            cols,
            rows,
            hop_latency,
            pairs: Vec::new(),
            nodes: 0,
            ready: BinaryHeap::new(),
            next_seq: 0,
            in_flight: 0,
            messages_sent: 0,
            hops_traversed: 0,
            faults: None,
        }
    }

    /// Like [`Noc::new`], but pre-sizes the dense pair table for `cores`
    /// cores and `slices` LLC slices so it never reallocates mid-run.
    pub fn with_nodes(
        cols: usize,
        rows: usize,
        hop_latency: u64,
        cores: usize,
        slices: usize,
    ) -> Noc {
        let mut noc = Noc::new(cols, rows, hop_latency);
        let hi_core = cores
            .checked_sub(1)
            .map(|c| node_idx(NodeId::Core(pl_base::CoreId(c))));
        let hi_slice = slices.checked_sub(1).map(|s| node_idx(NodeId::Slice(s)));
        if let Some(hi) = hi_core.max(hi_slice) {
            noc.grow_to(hi + 1);
        }
        noc
    }

    /// Enables seeded fault injection: every directory-bound message gets
    /// an extra delay in `0..=max_extra_delay` cycles, preserving
    /// per-pair FIFO order. Same seed, same perturbation.
    pub fn enable_faults(&mut self, seed: u64, max_extra_delay: u64) {
        self.faults = Some(FaultInjector {
            rng: SimRng::new(seed),
            max_extra_delay,
        });
    }

    /// Number of allocated `(src, dst)` pair slots. Bounded by the square
    /// of the dense node count — a diagnostic for tests asserting that
    /// long runs keep the interconnect's memory footprint flat.
    pub fn pair_slots(&self) -> usize {
        self.pairs.len()
    }

    /// Entries currently in the ready-heap (at most one per active pair,
    /// plus transient duplicates; drains back to zero with the queues).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn grow_to(&mut self, nodes: usize) {
        debug_assert!(nodes > self.nodes);
        let mut pairs = Vec::new();
        pairs.resize_with(nodes * nodes, PairQueue::default);
        for si in 0..self.nodes {
            for di in 0..self.nodes {
                pairs[si * nodes + di] = std::mem::take(&mut self.pairs[si * self.nodes + di]);
            }
        }
        self.pairs = pairs;
        self.nodes = nodes;
    }

    fn tile(&self, node: NodeId) -> (usize, usize) {
        let t = match node {
            NodeId::Core(c) => c.index(),
            NodeId::Slice(s) => s,
        } % (self.cols * self.rows);
        (t % self.cols, t / self.cols)
    }

    /// Manhattan hop count between two nodes.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u64 {
        let (sx, sy) = self.tile(src);
        let (dx, dy) = self.tile(dst);
        (sx.abs_diff(dx) + sy.abs_diff(dy)) as u64
    }

    /// End-to-end message latency between two nodes.
    pub fn latency(&self, src: NodeId, dst: NodeId) -> u64 {
        1 + self.hops(src, dst) * self.hop_latency
    }

    /// Enqueues a message sent at `now`.
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, msg: Msg) {
        let (si, di) = (node_idx(src), node_idx(dst));
        if si.max(di) >= self.nodes {
            self.grow_to(si.max(di) + 1);
        }
        let mut deliver_at = now + self.latency(src, dst);
        self.messages_sent += 1;
        self.hops_traversed += self.hops(src, dst);
        self.in_flight += 1;
        let pq = &mut self.pairs[si * self.nodes + di];
        if let Some(f) = &mut self.faults {
            if matches!(dst, NodeId::Slice(_)) {
                deliver_at += f.rng.gen_range(0..f.max_extra_delay + 1);
                // Never deliver before an earlier message on the same
                // pair: directory protocols rely on per-pair FIFO.
                deliver_at = deliver_at.max(pq.last_deliver_at);
            }
        }
        pq.last_deliver_at = pq.last_deliver_at.max(deliver_at);
        let seq = self.next_seq;
        self.next_seq += 1;

        let head = (deliver_at, seq, si as u32, di as u32);
        match pq.q.back() {
            None => {
                pq.q.push_back((deliver_at, seq, msg));
                self.ready.push(Reverse(head));
            }
            Some(&(back_at, _, _)) if back_at <= deliver_at => {
                // Machine time is monotone, so this is the steady-state
                // path: the queue stays sorted with a plain append and
                // the heap is untouched.
                pq.q.push_back((deliver_at, seq, msg));
            }
            Some(_) => {
                // A send scheduled earlier than the queue tail (only
                // possible when callers move `now` backwards, e.g. unit
                // tests): insert in global (deliver_at, seq) order.
                let pos = pq.q.partition_point(|&(at, _, _)| at <= deliver_at);
                pq.q.insert(pos, (deliver_at, seq, msg));
                if pos == 0 {
                    // New head: the old head's heap entry goes stale and
                    // is discarded lazily on pop.
                    self.ready.push(Reverse(head));
                }
            }
        }
    }

    /// Returns every message whose delivery time is `<= now`, in delivery
    /// order (ties broken by send order, preserving per-pair FIFO).
    pub fn deliver(&mut self, now: Cycle) -> Vec<(NodeId, NodeId, Msg)> {
        let mut out = Vec::new();
        self.deliver_into(now, &mut out);
        out
    }

    /// Like [`Noc::deliver`], but appends into a caller-owned buffer so the
    /// machine's per-tick delivery allocates nothing in steady state.
    pub fn deliver_into(&mut self, now: Cycle, out: &mut Vec<(NodeId, NodeId, Msg)>) {
        while let Some(&Reverse((at, seq, si, di))) = self.ready.peek() {
            if at > now {
                break;
            }
            self.ready.pop();
            let (si, di) = (si as usize, di as usize);
            let pq = &mut self.pairs[si * self.nodes + di];
            match pq.q.front() {
                Some(&(f_at, f_seq, _)) if f_at == at && f_seq == seq => {
                    let (_, _, msg) = pq.q.pop_front().expect("checked front");
                    self.in_flight -= 1;
                    out.push((node_of(si), node_of(di), msg));
                    if let Some(&(n_at, n_seq, _)) = pq.q.front() {
                        self.ready
                            .push(Reverse((n_at, n_seq, si as u32, di as u32)));
                    }
                }
                // Stale heap entry (superseded by an out-of-order
                // insert); the live head has its own entry.
                _ => {}
            }
        }
    }

    /// Delivery time of the earliest in-flight message, if any — a bound
    /// for the machine's idle-cycle fast-forward. May be conservatively
    /// early (never late) if stale heap entries are pending collection.
    pub fn next_delivery(&self) -> Option<Cycle> {
        if self.in_flight == 0 {
            return None;
        }
        self.ready.peek().map(|&Reverse((at, ..))| at)
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total messages ever sent (for the Section 9.1.3 traffic report).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total hop traversals (a proxy for link traffic).
    pub fn hops_traversed(&self) -> u64 {
        self.hops_traversed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::{Addr, CoreId};

    fn gets(core: usize) -> Msg {
        Msg::GetS {
            line: Addr::new(0x40).line(),
            requester: CoreId(core),
        }
    }

    #[test]
    fn same_tile_is_base_latency() {
        let noc = Noc::new(4, 2, 1);
        assert_eq!(noc.hops(NodeId::Core(CoreId(3)), NodeId::Slice(3)), 0);
        assert_eq!(noc.latency(NodeId::Core(CoreId(3)), NodeId::Slice(3)), 1);
    }

    #[test]
    fn manhattan_distance_on_4x2() {
        let noc = Noc::new(4, 2, 1);
        // Tile 0 is (0,0); tile 7 is (3,1): 4 hops.
        assert_eq!(noc.hops(NodeId::Core(CoreId(0)), NodeId::Slice(7)), 4);
        assert_eq!(noc.latency(NodeId::Core(CoreId(0)), NodeId::Slice(7)), 5);
    }

    #[test]
    fn delivery_respects_latency() {
        let mut noc = Noc::new(4, 2, 1);
        noc.send(
            Cycle(10),
            NodeId::Core(CoreId(0)),
            NodeId::Slice(7),
            gets(0),
        );
        assert!(noc.deliver(Cycle(14)).is_empty());
        let out = noc.deliver(Cycle(15));
        assert_eq!(out.len(), 1);
        assert_eq!(noc.in_flight(), 0);
    }

    #[test]
    fn per_pair_fifo_order() {
        let mut noc = Noc::new(4, 2, 1);
        let src = NodeId::Core(CoreId(0));
        let dst = NodeId::Slice(0);
        noc.send(Cycle(0), src, dst, gets(0));
        noc.send(Cycle(0), src, dst, gets(1));
        let out = noc.deliver(Cycle(100));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].2, gets(0));
        assert_eq!(out[1].2, gets(1));
    }

    #[test]
    fn cross_pair_delivery_is_in_global_send_order() {
        // Two pairs with the same latency sending on the same cycle:
        // simultaneous arrivals are delivered in send (seq) order, even
        // though they live in different pair queues.
        let mut noc = Noc::new(4, 2, 1);
        noc.send(Cycle(0), NodeId::Core(CoreId(1)), NodeId::Slice(1), gets(1));
        noc.send(Cycle(0), NodeId::Core(CoreId(0)), NodeId::Slice(0), gets(0));
        noc.send(Cycle(0), NodeId::Core(CoreId(1)), NodeId::Slice(1), gets(3));
        let out = noc.deliver(Cycle(1));
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].2, gets(1));
        assert_eq!(out[1].2, gets(0));
        assert_eq!(out[2].2, gets(3));
    }

    #[test]
    fn backdated_send_still_delivers_in_time_order() {
        // Callers that move `now` backwards (unit tests) exercise the
        // sorted-insert fallback; delivery must still come out in
        // (deliver_at, seq) order.
        let mut noc = Noc::new(4, 2, 1);
        let src = NodeId::Core(CoreId(0));
        let dst = NodeId::Slice(0);
        noc.send(Cycle(50), src, dst, gets(0)); // arrives at 51
        noc.send(Cycle(10), src, dst, gets(1)); // arrives at 11
        noc.send(Cycle(30), src, dst, gets(2)); // arrives at 31
        assert_eq!(noc.next_delivery(), Some(Cycle(11)));
        let out = noc.deliver(Cycle(100));
        assert_eq!(
            out.iter().map(|(_, _, m)| *m).collect::<Vec<_>>(),
            vec![gets(1), gets(2), gets(0)]
        );
        assert_eq!(noc.in_flight(), 0);
    }

    #[test]
    fn traffic_counters() {
        let mut noc = Noc::new(4, 2, 1);
        noc.send(Cycle(0), NodeId::Core(CoreId(0)), NodeId::Slice(7), gets(0));
        noc.send(Cycle(0), NodeId::Core(CoreId(1)), NodeId::Slice(1), gets(1));
        assert_eq!(noc.messages_sent(), 2);
        assert_eq!(noc.hops_traversed(), 4);
    }

    #[test]
    fn fault_injection_preserves_per_pair_fifo() {
        let mut noc = Noc::new(4, 2, 1);
        noc.enable_faults(0xFA017, 7);
        let src = NodeId::Core(CoreId(0));
        let dst = NodeId::Slice(3);
        for i in 0..32 {
            noc.send(Cycle(i), src, dst, gets(i as usize));
        }
        let out = noc.deliver(Cycle(1000));
        assert_eq!(out.len(), 32);
        for (i, (_, _, msg)) in out.iter().enumerate() {
            assert_eq!(*msg, gets(i), "slice-bound FIFO broken at {i}");
        }
    }

    #[test]
    fn fault_injection_is_deterministic_and_spares_core_bound_messages() {
        let run = || {
            let mut noc = Noc::new(4, 2, 1);
            noc.enable_faults(42, 5);
            noc.send(Cycle(0), NodeId::Core(CoreId(0)), NodeId::Slice(7), gets(0));
            noc.send(
                Cycle(0),
                NodeId::Slice(7),
                NodeId::Core(CoreId(0)),
                Msg::Nack {
                    line: Addr::new(0x40).line(),
                    was_write: false,
                },
            );
            noc.next_delivery().unwrap()
        };
        assert_eq!(run(), run(), "same seed, same schedule");
        // The core-bound Nack is never jittered: it arrives exactly at the
        // mesh latency even with faults on.
        let mut noc = Noc::new(4, 2, 1);
        noc.enable_faults(42, 50);
        noc.send(
            Cycle(0),
            NodeId::Slice(7),
            NodeId::Core(CoreId(0)),
            Msg::Nack {
                line: Addr::new(0x40).line(),
                was_write: false,
            },
        );
        assert_eq!(noc.next_delivery(), Some(Cycle(5)));
    }

    #[test]
    fn out_of_range_nodes_wrap_onto_mesh() {
        let noc = Noc::new(2, 1, 1);
        // Node index 5 wraps to tile 1 on a 2-tile mesh.
        assert_eq!(noc.hops(NodeId::Core(CoreId(5)), NodeId::Slice(1)), 0);
    }

    #[test]
    fn long_runs_keep_memory_flat() {
        // Regression for the old `last_slice_delivery: HashMap` which
        // retained an entry for every (src, dst) pair ever seen: the
        // dense pair table is sized by the node population, and neither
        // it nor the ready-heap grows with traffic volume.
        let mut noc = Noc::with_nodes(4, 2, 1, 8, 8);
        noc.enable_faults(0xFA017, 5);
        let mut footprint_after_first_round = None;
        let mut now = Cycle(0);
        for round in 0..200 {
            for c in 0..8 {
                for s in 0..8 {
                    noc.send(now, NodeId::Core(CoreId(c)), NodeId::Slice(s), gets(c));
                    noc.send(
                        now,
                        NodeId::Slice(s),
                        NodeId::Core(CoreId(c)),
                        Msg::Clear {
                            line: Addr::new(0x40).line(),
                        },
                    );
                }
            }
            // Drain fully (faults add at most 5 extra cycles).
            now += 64;
            let delivered = noc.deliver(now).len();
            assert_eq!(delivered, 128, "round {round} did not drain");
            assert_eq!(noc.in_flight(), 0);
            assert_eq!(noc.ready_len(), 0, "ready-heap leak at round {round}");
            let footprint = noc.pair_slots();
            match footprint_after_first_round {
                None => footprint_after_first_round = Some(footprint),
                Some(first) => {
                    assert_eq!(footprint, first, "pair table grew at round {round}")
                }
            }
        }
        assert_eq!(noc.pair_slots(), 16 * 16);
    }

    #[test]
    fn with_nodes_presizes_the_pair_table() {
        let noc = Noc::with_nodes(4, 2, 1, 8, 8);
        // Highest dense index: slice 7 -> 2*7+1 = 15, so a 16x16 table.
        assert_eq!(noc.pair_slots(), 256);
        let noc = Noc::new(4, 2, 1);
        assert_eq!(noc.pair_slots(), 0);
    }
}
