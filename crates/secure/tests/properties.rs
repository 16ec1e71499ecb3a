//! Property-based tests for the security structures, on the in-tree
//! `pl-test` harness.

use pl_base::{Addr, LineAddr};
use pl_secure::{Cpt, Cst};
use pl_test::{any_bool, check, prop_assert, prop_assert_eq, u64_in, usize_in, vec_of};
use std::collections::{HashMap, HashSet};

fn line(n: u64) -> LineAddr {
    Addr::new(n * 64).line()
}

/// The CST never accounts more than `records_per_entry` *distinct* lines
/// to any key, under arbitrary pin/retire interleavings — the invariant
/// behind the W_d guarantee of Section 5.1.4.
#[test]
fn cst_never_exceeds_capacity_per_key() {
    check(
        "cst_never_exceeds_capacity_per_key",
        &(
            usize_in(1..4),
            vec_of((u64_in(0..4), u64_in(0..30), any_bool()), 0..150),
        ),
        |(records, ops)| {
            let records = *records;
            let mut lq: HashMap<u64, LineAddr> = HashMap::new();
            let mut cst = Cst::ideal(records);
            // Ground truth: per key, the set of lines with a live pinned load.
            let mut truth: HashMap<u64, HashSet<LineAddr>> = HashMap::new();
            let mut next_id = 0u64;
            let mut live_pins: Vec<(u64, u64, LineAddr)> = Vec::new(); // (key, id, line)
            for &(key, line_no, retire_one) in ops {
                if retire_one && !live_pins.is_empty() {
                    let (k, id, l) = live_pins.remove(0);
                    lq.remove(&id);
                    // The line stays charged until no live pin references it.
                    if !live_pins.iter().any(|&(k2, _, l2)| k2 == k && l2 == l) {
                        truth.entry(k).or_default().remove(&l);
                    }
                    continue;
                }
                let l = line(line_no);
                let id = next_id;
                next_id += 1;
                lq.insert(id, l);
                let outcome = {
                    let live = |i: u64| lq.get(&i).copied();
                    cst.try_pin(key, l, id, &live)
                };
                if outcome.allowed() {
                    truth.entry(key).or_default().insert(l);
                    live_pins.push((key, id, l));
                    prop_assert!(
                        truth[&key].len() <= records,
                        "key {key} exceeded capacity: {:?}",
                        truth[&key]
                    );
                } else {
                    lq.remove(&id);
                }
            }
            Ok(())
        },
    );
}

/// The CPT is conservative: after any operation sequence, `contains`
/// agrees with the set of inserted-but-not-removed lines that were
/// accepted, and pinning is blocked exactly between an overflow and the
/// half-drain point.
#[test]
fn cpt_tracks_model() {
    check(
        "cpt_tracks_model",
        &(usize_in(1..8), vec_of((u64_in(0..12), any_bool()), 0..100)),
        |(cap, ops)| {
            let cap = *cap;
            let mut cpt = Cpt::new(cap);
            let mut model: Vec<u64> = Vec::new();
            let mut blocked = false;
            for &(n, is_insert) in ops {
                let l = line(n);
                if is_insert {
                    let accepted = cpt.insert(l);
                    if accepted {
                        if !model.contains(&n) {
                            model.push(n);
                        }
                    } else {
                        blocked = true;
                    }
                } else {
                    cpt.remove(l);
                    model.retain(|&x| x != n);
                    if blocked && model.len() <= cap / 2 {
                        blocked = false;
                    }
                }
                prop_assert_eq!(cpt.occupancy(), model.len());
                prop_assert_eq!(cpt.pinning_allowed(), !blocked);
                for probe in 0..12u64 {
                    prop_assert_eq!(cpt.contains(line(probe)), model.contains(&probe));
                }
            }
            Ok(())
        },
    );
}
