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
//! # Delivery order
//!
//! Every in-flight message sits in one min-heap keyed by
//! `(deliver_at, seq)`, where `seq` is a global send counter: messages
//! come out in arrival order, and simultaneous arrivals in send order. A
//! pair's latency is a constant and machine time only moves forward, so
//! the messages of one pair carry non-decreasing arrival times and
//! per-pair FIFO holds by construction.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

use pl_base::{Cycle, SimRng};

use crate::msg::{Msg, NodeId};

/// One message in flight, ordered by `(deliver_at, seq)` alone: `seq` is
/// unique, so the order is total.
#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: Cycle,
    seq: u64,
    src: NodeId,
    dst: NodeId,
    msg: Msg,
}

impl InFlight {
    fn key(&self) -> (Cycle, u64) {
        (self.deliver_at, self.seq)
    }
}

impl PartialEq for InFlight {
    fn eq(&self, other: &InFlight) -> bool {
        self.key() == other.key()
    }
}

impl Eq for InFlight {}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &InFlight) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &InFlight) -> Ordering {
        self.key().cmp(&other.key())
    }
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
    /// Every message in flight, earliest `(deliver_at, seq)` on top.
    in_flight: BinaryHeap<Reverse<InFlight>>,
    next_seq: u64,
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
/// delivery to the latest delivery already scheduled for that pair.
#[derive(Debug, Clone)]
struct FaultInjector {
    rng: SimRng,
    max_extra_delay: u64,
    /// Latest delivery scheduled on each directory-bound pair: at most
    /// one entry per `(src, slice)` pair of the machine.
    last_deliver_at: HashMap<(NodeId, NodeId), Cycle>,
}

impl Noc {
    /// Creates a mesh of `cols` x `rows` tiles with the given per-hop
    /// latency.
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
            in_flight: BinaryHeap::new(),
            next_seq: 0,
            messages_sent: 0,
            hops_traversed: 0,
            faults: None,
        }
    }

    /// Like [`Noc::new`], but reserves the delivery heap for one message
    /// each way between every core and every LLC slice, so a run rarely
    /// grows it.
    pub fn with_nodes(
        cols: usize,
        rows: usize,
        hop_latency: u64,
        cores: usize,
        slices: usize,
    ) -> Noc {
        let mut noc = Noc::new(cols, rows, hop_latency);
        noc.in_flight.reserve(2 * cores * slices);
        noc
    }

    /// Enables seeded fault injection: every directory-bound message gets
    /// an extra delay in `0..=max_extra_delay` cycles, preserving
    /// per-pair FIFO order. Same seed, same perturbation. Call it before
    /// the first send: the FIFO clamp only knows the messages sent after
    /// it.
    pub fn enable_faults(&mut self, seed: u64, max_extra_delay: u64) {
        self.faults = Some(FaultInjector {
            rng: SimRng::new(seed),
            max_extra_delay,
            last_deliver_at: HashMap::new(),
        });
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
        let mut deliver_at = now + self.latency(src, dst);
        self.messages_sent += 1;
        self.hops_traversed += self.hops(src, dst);
        if let Some(f) = &mut self.faults {
            if matches!(dst, NodeId::Slice(_)) {
                deliver_at += f.rng.gen_range(0..f.max_extra_delay + 1);
                // Never deliver before an earlier message on the same
                // pair: directory protocols rely on per-pair FIFO.
                let last = f.last_deliver_at.entry((src, dst)).or_default();
                deliver_at = deliver_at.max(*last);
                *last = deliver_at;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.push(Reverse(InFlight {
            deliver_at,
            seq,
            src,
            dst,
            msg,
        }));
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
        while self.next_delivery().is_some_and(|at| at <= now) {
            let Reverse(m) = self.in_flight.pop().expect("peeked message exists");
            out.push((m.src, m.dst, m.msg));
        }
    }

    /// Delivery time of the earliest in-flight message, if any — a bound
    /// for the machine's whole-machine time jump.
    pub fn next_delivery(&self) -> Option<Cycle> {
        self.in_flight.peek().map(|Reverse(m)| m.deliver_at)
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
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
        // simultaneous arrivals are delivered in send (seq) order.
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
        // A caller that moves `now` backwards still gets delivery in
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
}
