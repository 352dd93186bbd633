//! Deterministic parallelism: the one worker pool, and spatially sharded
//! worlds advancing in time-lockstep epochs on it.
//!
//! [`crate::engine`] keeps each world single-threaded. [`map_with_threads`]
//! is the workspace's only worker pool: `wgtt_bench::par` fans independent
//! *runs* across it, and [`drive`] runs one world partitioned into
//! independent shards that advance **in parallel between synchronization
//! points** — the coordinator/lockstep radio-emulation design (each radio
//! neighborhood owns its own event clock; a coordinator only lets a shard
//! run ahead while nothing outside it could affect it).
//!
//! ## Determinism contract
//!
//! Results must be byte-identical at any worker count, including 1:
//!
//! 1. Within an epoch every shard advances *only its own* event queue to
//!    the shared horizon; shards share no mutable state, so the order in
//!    which workers pick shards is invisible.
//! 2. All cross-shard effects are staged and applied by `at_barrier`,
//!    which runs on exactly one thread, between epochs, over shard state
//!    that is already worker-count-independent (point 1). Callers apply
//!    staged messages in a fixed total order — sender shard id, then the
//!    sender's deterministic sequence number.
//! 3. The epoch length must not exceed the minimum cross-shard latency
//!    (the caller derives it; see `wgtt_core::shard`), so deferring a
//!    cross-shard effect to the barrier never delivers it later than the
//!    modeled latency would.
//!
//! The pool's workers pull the next unclaimed job index from a shared
//! atomic counter inside a `std::thread::scope` — no external
//! dependencies. Each result lands in the slot of its input index, so
//! output order never depends on thread count or scheduling.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the lockstep worker count.
/// Absent (or `1`) selects the serial reference path.
pub const WORKERS_ENV: &str = "WGTT_WORLD_WORKERS";

/// Worker count for a sharded run: `WGTT_WORLD_WORKERS` if set (and ≥ 1),
/// otherwise 1 — the serial reference engine. Never more than the number
/// of shards. Unlike the experiment fan-out, the default is *serial*:
/// parallelism inside a run is opt-in, so unconfigured runs stay on the
/// exact code path the fingerprint suites pin.
pub fn worker_count(shards: usize) -> usize {
    std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
        .min(shards.max(1))
}

/// One spatial partition of a sharded world: everything it needs to
/// advance its own event queue to a horizon, independently of its peers.
pub trait LockstepShard: Send {
    /// Runs this shard's event loop up to and including `horizon`.
    /// Afterwards the shard's clock reads exactly `horizon`.
    fn advance_to(&mut self, horizon: SimTime);
}

/// Drives `shards` from `start` to `end` in lockstep epochs of length
/// `epoch` on `workers` threads. After every epoch, `at_barrier(shards,
/// horizon)` runs serially to exchange cross-shard state (mailbox
/// application, boundary migration); it also runs once at `end`.
///
/// `workers <= 1` takes the pool's serial path: a plain loop over shards
/// in index order with no threads, locks, or atomics — byte-identical
/// output is the contract, identical machine code is the proof that the
/// 1-worker configuration can never diverge from it.
pub fn drive<S, F>(
    shards: &mut [S],
    workers: usize,
    start: SimTime,
    end: SimTime,
    epoch: SimDuration,
    mut at_barrier: F,
) where
    S: LockstepShard,
    F: FnMut(&mut [S], SimTime),
{
    assert!(
        epoch > SimDuration::from_micros(0),
        "lockstep epoch must be positive"
    );
    let mut now = start;
    while now < end {
        let horizon = (now + epoch).min(end);
        // The scope join inside the pool is the epoch barrier: no shard of
        // epoch k+1 can start before every shard finished epoch k.
        map_with_threads(workers, shards.iter_mut().collect(), |shard, _| {
            shard.advance_to(horizon)
        });
        at_barrier(shards, horizon);
        now = horizon;
    }
}

/// Fans `items` out across `threads` workers, collecting `f(item, index)`
/// results in input order.
///
/// Workers pull the next unclaimed input index from a shared atomic
/// counter; each result lands in the output slot of its input index, so the
/// returned `Vec` is ordered by input regardless of which worker finished
/// first. A panicking job propagates out of the scope join and fails the
/// caller, like the serial loop would.
pub fn map_with_threads<I, O, F>(threads: usize, items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I, usize) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n == 1 {
        // Inline serial path: identical code to a plain loop, so a
        // 1-worker fan-out is trivially bit-identical to the serial engine.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(x, i))
            .collect();
    }
    let jobs: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let f = &f;
        let jobs = &jobs;
        let slots = &slots;
        let next = &next;
        for _ in 0..threads.min(n) {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = jobs[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                let out = f(item, i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard: records every horizon it was advanced to, plus an
    /// inbox of barrier-applied values.
    struct Toy {
        horizons: Vec<SimTime>,
        inbox: Vec<u64>,
    }

    impl LockstepShard for Toy {
        fn advance_to(&mut self, horizon: SimTime) {
            self.horizons.push(horizon);
        }
    }

    fn toys(n: usize) -> Vec<Toy> {
        (0..n)
            .map(|_| Toy {
                horizons: Vec::new(),
                inbox: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn horizons_are_identical_at_any_worker_count() {
        let mut reference: Option<Vec<Vec<SimTime>>> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut shards = toys(5);
            drive(
                &mut shards,
                workers,
                SimTime::ZERO,
                SimTime::from_millis(95),
                SimDuration::from_millis(10),
                |_, _| {},
            );
            let got: Vec<Vec<SimTime>> = shards.into_iter().map(|s| s.horizons).collect();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(want, &got, "workers={workers} diverged"),
            }
        }
        // Final short epoch is clamped to `end`.
        let r = reference.unwrap();
        assert_eq!(r[0].len(), 10);
        assert_eq!(*r[0].last().unwrap(), SimTime::from_millis(95));
    }

    #[test]
    fn barrier_runs_after_every_epoch_and_sees_all_shards() {
        let mut shards = toys(3);
        let mut barrier_times = Vec::new();
        drive(
            &mut shards,
            4,
            SimTime::ZERO,
            SimTime::from_millis(30),
            SimDuration::from_millis(10),
            |shards, h| {
                // Every shard has already reached the horizon.
                for s in shards.iter() {
                    assert_eq!(*s.horizons.last().unwrap(), h);
                }
                barrier_times.push(h);
                // The barrier can mutate shard state (mailbox delivery).
                for s in shards.iter_mut() {
                    s.inbox.push(h.as_micros());
                }
            },
        );
        assert_eq!(
            barrier_times,
            vec![
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30),
            ]
        );
        assert_eq!(shards[0].inbox.len(), 3);
    }

    #[test]
    fn zero_length_window_runs_no_epochs() {
        let mut shards = toys(2);
        let mut calls = 0;
        drive(
            &mut shards,
            2,
            SimTime::from_millis(5),
            SimTime::from_millis(5),
            SimDuration::from_millis(1),
            |_, _| calls += 1,
        );
        assert_eq!(calls, 0);
        assert!(shards[0].horizons.is_empty());
    }

    #[test]
    fn worker_count_env_and_caps() {
        // No env: serial. (Tests elsewhere never set the var globally.)
        std::env::remove_var(WORKERS_ENV);
        assert_eq!(worker_count(8), 1);
        std::env::set_var(WORKERS_ENV, "4");
        assert_eq!(worker_count(8), 4);
        assert_eq!(worker_count(2), 2, "never more workers than shards");
        std::env::set_var(WORKERS_ENV, "0");
        assert_eq!(worker_count(8), 1, "invalid values fall back to serial");
        std::env::remove_var(WORKERS_ENV);
    }

    #[test]
    fn results_are_input_ordered_at_any_width() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = map_with_threads(threads, items.clone(), |x, _| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_input_position() {
        let items = vec!["a", "b", "c", "d"];
        let got = map_with_threads(4, items, |s, i| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            map_with_threads(2, vec![0u32, 1, 2, 3], |x, _| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    #[should_panic]
    fn zero_epoch_panics() {
        let mut shards = toys(1);
        drive(
            &mut shards,
            1,
            SimTime::ZERO,
            SimTime::from_millis(1),
            SimDuration::from_micros(0),
            |_, _| {},
        );
    }
}
