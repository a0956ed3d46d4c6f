//! Bounded worker pool for the DSE sweeps.
//!
//! A rayon-style fan-out without the dependency: workers self-schedule
//! off a shared queue (the degenerate-but-equivalent form of work
//! stealing for a single shared deque), results land in per-item slots
//! so the output order is the **input order regardless of thread count
//! or scheduling**, and each worker carries its own
//! [`SweepCounters`] block so the telemetry layer can account for
//! every candidate without cross-thread contention.
//!
//! The machinery itself lives in [`cgra_fabric::par::run_sharded`],
//! generic over the per-worker counter type, and this module pins the
//! counter type to [`SweepCounters`] for the sweep engine. The sweep's
//! candidates are the unit of parallelism: each one's event-driven
//! simulation runs on its worker's thread.
//!
//! ```
//! use cgra_explore::pool::run_sharded;
//!
//! let out = run_sharded(4, (0..10).collect(), |ctx, i: u64| {
//!     ctx.counters.candidates += 1;
//!     i * i
//! });
//! // Deterministic input-order results, however many threads ran.
//! assert_eq!(out.results, (0..10).map(|i| i * i).collect::<Vec<_>>());
//! assert_eq!(out.workers.iter().map(|w| w.candidates).sum::<u64>(), 10);
//! ```

use cgra_telemetry::SweepCounters;

/// Per-worker context handed to the work function: the worker's index
/// (stable for the lifetime of the pool) and its private counter
/// block.
pub type WorkerCtx = cgra_fabric::par::WorkerCtx<SweepCounters>;

/// What a pool run returns: results in input order plus the per-worker
/// counter blocks in worker-index order.
pub type PoolOutput<R> = cgra_fabric::par::PoolOutput<R, SweepCounters>;

pub use cgra_fabric::par::effective_jobs;

/// Applies `f` to every item across up to `jobs` worker threads
/// (`jobs == 0` takes every available core) and returns the results in
/// input order. Workers pull items off a shared queue as they free up,
/// so an expensive item never blocks the rest of the batch behind it.
/// Panics in `f` propagate to the caller.
pub fn run_sharded<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> PoolOutput<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut WorkerCtx, T) -> R + Sync,
{
    cgra_fabric::par::run_sharded(jobs, items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_width() {
        for jobs in [0, 1, 2, 4, 16] {
            let out = run_sharded(jobs, (0..64).collect(), |_, i: i64| i * 3);
            assert_eq!(
                out.results,
                (0..64).map(|i| i * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn counters_cover_every_item() {
        let out = run_sharded(4, (0..57).collect(), |ctx, _i: usize| {
            ctx.counters.candidates += 1;
        });
        assert_eq!(out.workers.len(), 4);
        let total: u64 = out.workers.iter().map(|w| w.candidates).sum();
        assert_eq!(total, 57);
    }

    #[test]
    fn worker_indices_are_stable() {
        let out = run_sharded(3, (0..30).collect(), |ctx, _i: usize| ctx.worker);
        for &w in &out.results {
            assert!(w < 3);
        }
    }

    #[test]
    fn empty_and_oversized_pools() {
        let out = run_sharded(8, Vec::<u8>::new(), |_, b| b);
        assert!(out.results.is_empty());
        assert_eq!(out.workers.len(), 1);
        // More workers than items degrades gracefully.
        let out = run_sharded(16, vec![1u8, 2], |_, b| b + 1);
        assert_eq!(out.results, vec![2, 3]);
        assert_eq!(out.workers.len(), 2);
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(7), 7);
    }
}
