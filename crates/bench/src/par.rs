//! Parallel experiment fan-out.
//!
//! The simulation engine is deliberately single-threaded (see
//! `wgtt_sim::engine`); independent `(Scenario, seed)` runs fan out across
//! the workspace's one worker pool, `wgtt_sim::lockstep::map_with_threads`
//! (re-exported here), which the sharded lockstep driver also runs on.
//! This module only picks the pool size and adds the scenario fan-out.
//!
//! Determinism contract: each job is a pure function of its input and
//! results come back in input order, so output never depends on thread
//! count or scheduling — the same job list produces byte-identical
//! aggregate JSON with 1, 2, or 64 workers (locked by
//! `crates/bench/tests/fanout_determinism.rs`).
//!
//! The pool size defaults to the host's available parallelism and can be
//! overridden with `WGTT_BENCH_THREADS` (useful for the determinism tests
//! and for pinning CI measurements).

use wgtt_core::runner::{run, RunResult, Scenario};
pub use wgtt_sim::lockstep::map_with_threads;

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "WGTT_BENCH_THREADS";

/// Worker-pool size for `jobs` independent jobs: `WGTT_BENCH_THREADS` if
/// set (and ≥ 1), otherwise the host's available parallelism, never more
/// than the number of jobs.
pub fn thread_count(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(hw);
    n.min(jobs.max(1))
}

/// Fans `items` out across the default worker pool, collecting `f(item,
/// index)` results in input order.
pub fn map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I, usize) -> O + Sync,
{
    let threads = thread_count(items.len());
    map_with_threads(threads, items, f)
}

/// Runs independent scenarios across the worker pool, results in input
/// order — the common fan-out for seed sweeps and experiment grids.
pub fn run_scenarios(scenarios: Vec<Scenario>) -> Vec<RunResult> {
    map(scenarios, |s, _| run(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(empty, |x, _| x).is_empty());
        assert_eq!(map(vec![7u32], |x, _| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_respects_env_and_job_cap() {
        // Never more workers than jobs, never zero.
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(1000) >= 1);
    }
}
