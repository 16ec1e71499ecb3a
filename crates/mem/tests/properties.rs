//! Property-based tests for the memory-hierarchy structures, on the
//! in-tree `pl-test` harness.

use pl_base::{Addr, CacheConfig, CoreId, Cycle, SimRng};
use pl_mem::{Cache, Memory, Msg, Noc, NodeId, WriteBuffer};
use pl_test::{
    any_bool, any_u32, any_u64, check, check_with, prop_assert, prop_assert_eq, u64_in, usize_in,
    vec_of, Config,
};
use std::collections::HashMap;

/// The functional memory behaves like a word-indexed map.
#[test]
fn memory_matches_hashmap_model() {
    // Quadratic model re-check per op; keep the sweep modest.
    let cfg = Config::with_cases(48);
    check_with(
        &cfg,
        "memory_matches_hashmap_model",
        &vec_of((any_u32(), any_u64()), 0..200),
        |ops| {
            let mut mem = Memory::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for &(addr_raw, value) in ops {
                let addr = Addr::new(addr_raw as u64);
                mem.write(addr, value);
                model.insert(addr.raw() >> 3, value);
                for (&w, &v) in &model {
                    prop_assert_eq!(mem.read(Addr::new(w << 3)), v);
                }
            }
            Ok(())
        },
    );
}

/// A cache never holds more lines per set than its associativity, and a
/// line just inserted (with everything evictable) is always present.
#[test]
fn cache_respects_associativity() {
    check(
        "cache_respects_associativity",
        &(any_u64(), usize_in(1..8), usize_in(1..200)),
        |&(seed, ways, inserts)| {
            let sets = 4usize;
            let cfg = CacheConfig {
                size_bytes: (ways * sets * 64) as u64,
                ways,
                hit_latency: 1,
                mshr_entries: 4,
            };
            let mut cache: Cache<u32> = Cache::new(&cfg);
            let mut rng = SimRng::new(seed);
            for i in 0..inserts {
                let line = Addr::new(rng.gen_range(0..64) * 64).line();
                cache.insert(line, i as u32, |_, _| true).unwrap();
                prop_assert!(cache.peek(line).is_some());
                for s in 0..sets {
                    let probe = Addr::new((s * 64) as u64).line();
                    prop_assert!(cache.set_occupancy(probe) <= ways);
                }
                prop_assert!(cache.occupancy() <= ways * sets);
            }
            Ok(())
        },
    );
}

/// LRU: after touching a resident line, it survives the next eviction in
/// its set (the other resident line is chosen instead), for any pair of
/// distinct lines in a 1-set cache.
#[test]
fn cache_touch_protects_from_next_eviction() {
    check(
        "cache_touch_protects_from_next_eviction",
        &(u64_in(0..100), u64_in(1..100)),
        |&(n0, delta)| {
            let cfg = CacheConfig {
                size_bytes: 2 * 64,
                ways: 2,
                hit_latency: 1,
                mshr_entries: 1,
            };
            let mut cache: Cache<u32> = Cache::new(&cfg);
            // One set, two ways: every line collides.
            let s0 = Addr::new(n0 * 64).line();
            let s1 = Addr::new((n0 + delta) * 64).line();
            let incoming = Addr::new((n0 + delta + 1) * 64).line();
            cache.insert(s0, 0, |_, _| true).unwrap();
            cache.insert(s1, 1, |_, _| true).unwrap();
            cache.touch(s0);
            let evicted = cache.insert(incoming, 2, |_, _| true).unwrap();
            prop_assert_eq!(evicted.map(|(l, _)| l), Some(s1));
            prop_assert!(cache.peek(s0).is_some());
            Ok(())
        },
    );
}

/// The write buffer forwards the youngest matching store and respects
/// capacity.
#[test]
fn write_buffer_forwarding_model() {
    check(
        "write_buffer_forwarding_model",
        &(usize_in(1..8), vec_of((u64_in(0..16), any_u64()), 0..20)),
        |(cap, stores)| {
            let mut wb = WriteBuffer::new(*cap);
            let mut model: Vec<(u64, u64)> = Vec::new();
            for &(word, value) in stores {
                let addr = Addr::new(word * 8);
                if wb.push(addr, value).is_ok() {
                    model.push((word, value));
                }
                prop_assert!(wb.len() <= *cap);
                for probe in 0..16u64 {
                    let expect = model
                        .iter()
                        .rev()
                        .find(|&&(w, _)| w == probe)
                        .map(|&(_, v)| v);
                    prop_assert_eq!(wb.forward(Addr::new(probe * 8)), expect);
                }
            }
            Ok(())
        },
    );
}

/// The NoC's delivery contract. Unperturbed, the whole delivered
/// sequence is ascending in (send cycle + [`Noc::latency`], send index),
/// which delivers every message exactly once and keeps each `(src, dst)`
/// pair FIFO. The same sends through a faulted `Noc` still arrive
/// exactly once, each pair in send order, none before its unjittered
/// latency, and core-bound messages exactly at it.
#[test]
fn noc_delivers_everything_in_pair_order() {
    check(
        "noc_delivers_everything_in_pair_order",
        &(
            any_u64(),
            vec_of(
                (
                    (u64_in(0..50), any_bool()),
                    usize_in(0..8),
                    usize_in(0..8),
                    u64_in(0..1000),
                ),
                0..60,
            ),
        ),
        |(seed, sends)| {
            let mut sends: Vec<(Cycle, NodeId, NodeId, Msg)> = sends
                .iter()
                .map(|&((t, to_slice), core, slice, lraw)| {
                    let (c, s) = (NodeId::Core(CoreId(core)), NodeId::Slice(slice));
                    let (src, dst) = if to_slice { (c, s) } else { (s, c) };
                    let msg = Msg::GetS {
                        line: Addr::new(lraw * 64).line(),
                        requester: CoreId(core),
                    };
                    (Cycle(t), src, dst, msg)
                })
                .collect();
            // Machine time only moves forward.
            sends.sort_by_key(|&(t, ..)| t);

            let mut noc = Noc::new(4, 2, 1);
            for &(t, src, dst, msg) in &sends {
                noc.send(t, src, dst, msg);
            }
            let mut want: Vec<_> = sends
                .iter()
                .enumerate()
                .map(|(i, &(t, src, dst, msg))| ((t + noc.latency(src, dst), i), (src, dst, msg)))
                .collect();
            want.sort_by_key(|&(key, _)| key);
            let want: Vec<_> = want.into_iter().map(|(_, m)| m).collect();
            prop_assert_eq!(noc.deliver(Cycle(10_000)), want);
            prop_assert_eq!(noc.in_flight(), 0);

            let mut noc = Noc::new(4, 2, 1);
            noc.enable_faults(*seed, 9);
            let mut sent: HashMap<(NodeId, NodeId), Vec<(Cycle, Msg)>> = HashMap::new();
            for &(t, src, dst, msg) in &sends {
                noc.send(t, src, dst, msg);
                sent.entry((src, dst)).or_default().push((t, msg));
            }
            // Step every cycle, so a message's arrival is the cycle it
            // comes out; the clamp never delays past the last jitter.
            let mut got: HashMap<(NodeId, NodeId), Vec<(Cycle, Msg)>> = HashMap::new();
            for now in (0..100).map(Cycle) {
                for (src, dst, msg) in noc.deliver(now) {
                    got.entry((src, dst)).or_default().push((now, msg));
                }
            }
            prop_assert_eq!(noc.in_flight(), 0);
            prop_assert_eq!(got.len(), sent.len());
            for (&(src, dst), sent) in &sent {
                let got = &got[&(src, dst)];
                let msgs = |v: &[(Cycle, Msg)]| v.iter().map(|&(_, m)| m).collect::<Vec<_>>();
                prop_assert_eq!(msgs(got), msgs(sent));
                let earliest = |t: Cycle| t + noc.latency(src, dst);
                for (&(t, _), &(at, _)) in sent.iter().zip(got) {
                    prop_assert!(at >= earliest(t));
                    if matches!(dst, NodeId::Core(_)) {
                        prop_assert_eq!(at, earliest(t));
                    }
                }
            }
            Ok(())
        },
    );
}
