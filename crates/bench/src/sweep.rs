//! Deterministic parallel fan-out for the figure/table sweeps.
//!
//! Every simulation in a sweep is independent — a `(configuration,
//! workload)` pair run on its own freshly constructed [`pl_machine::Machine`]
//! — so the config×workload matrix can be fanned out across OS threads
//! with plain work stealing. Simulated results are bit-identical across
//! thread counts because each job's machine is seeded only by its
//! configuration, and [`par_map`] returns results in input order.
//!
//! The thread count comes from the `PL_SWEEP_THREADS` environment
//! variable, or else [`std::thread::available_parallelism`] (see
//! [`default_threads`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The sweep thread count: `PL_SWEEP_THREADS` if set (minimum 1), else
/// the machine's available parallelism.
pub fn default_threads() -> usize {
    match std::env::var("PL_SWEEP_THREADS") {
        Ok(raw) => raw
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("PL_SWEEP_THREADS={raw} is not a thread count"))
            .max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Applies `f` to every item on up to `threads` worker threads, returning
/// the results in input order.
///
/// `f` receives `(index, &item)`. Work is distributed dynamically (an
/// atomic cursor), so long jobs don't straggle behind a static split; the
/// output is nonetheless deterministic because results are written to
/// their input slot. With `threads <= 1` the loop runs inline, which is
/// the reference serial path the determinism tests compare against.
///
/// # Panics
///
/// Propagates a panic from any job after the scope joins.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let value = f(i, item);
                slots.lock().expect("no panic while holding results lock")[i] = Some(value);
            });
        }
    });
    slots
        .into_inner()
        .expect("worker threads joined")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(1, &items, |_, &x| x.wrapping_mul(0x9e37).rotate_left(7));
        for threads in [2, 3, 8, 64] {
            let parallel = par_map(threads, &items, |_, &x| {
                x.wrapping_mul(0x9e37).rotate_left(7)
            });
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn handles_empty_and_oversubscribed_input() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        let one = [42u8];
        assert_eq!(par_map(16, &one, |_, &x| x as u32 + 1), vec![43]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn job_panics_propagate() {
        let items: Vec<usize> = (0..20).collect();
        par_map(4, &items, |i, _| {
            if i == 13 {
                panic!("job 13 exploded");
            }
            i
        });
    }

    #[test]
    fn env_override_feeds_default_threads() {
        // Only asserts the fallback shape; the env var itself is covered
        // by the sweep smoke test to avoid process-global races here.
        assert!(default_threads() >= 1);
    }
}
