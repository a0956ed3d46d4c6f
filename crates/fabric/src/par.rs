//! Minimal parallel fan-out on `std::thread::scope`.
//!
//! The workspace avoids external crates, so the embarrassingly-parallel
//! spots (annealing restarts, DSE sweeps) use this helper instead of
//! `rayon`. Results come back in input order regardless of which thread
//! finished first.

/// Applies `f` to every item, fanning out across up to
/// `available_parallelism` threads, and returns the results in input
/// order.
///
/// `f` must be `Sync` because multiple worker threads call it
/// concurrently. Panics in `f` propagate to the caller.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Feed a shared work queue of (index, item); collect (index, result).
    let queue = std::sync::Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let results = std::sync::Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop();
                match next {
                    Some((i, item)) => {
                        let r = f(item);
                        results.lock().expect("results poisoned").push((i, r));
                    }
                    None => break,
                }
            });
        }
    });
    for (i, r) in results.into_inner().expect("results poisoned") {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

/// Per-worker context handed to a [`run_sharded`] work function: the
/// worker's index (stable for the lifetime of the pool) and a private
/// counter block of caller-chosen type `C` (merged after the pool
/// drains, so workers never contend on shared counters).
#[derive(Debug)]
pub struct WorkerCtx<C> {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// This worker's private counters; collected after the pool drains.
    pub counters: C,
}

/// What a [`run_sharded`] run returns: results in input order plus the
/// per-worker counter blocks in worker-index order.
#[derive(Debug)]
pub struct PoolOutput<R, C> {
    /// One result per input item, in input order.
    pub results: Vec<R>,
    /// Counter blocks, indexed by worker.
    pub workers: Vec<C>,
}

/// Resolves a `--jobs` request: `0` means "one per available core".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    }
}

/// Applies `f` to every item across up to `jobs` worker threads
/// (`jobs == 0` takes every available core) and returns the results in
/// input order. Workers self-schedule off a shared queue, so an
/// expensive item never blocks the rest of the batch behind it; each
/// carries a private `C` counter block threaded through `f`. Panics in
/// `f` propagate to the caller.
///
/// This is the engine under `cgra_explore::pool::run_sharded`, which
/// fixes `C` to its sweep counters.
pub fn run_sharded<T, R, C, F>(jobs: usize, items: Vec<T>, f: F) -> PoolOutput<R, C>
where
    T: Send,
    R: Send,
    C: Default + Send,
    F: Fn(&mut WorkerCtx<C>, T) -> R + Sync,
{
    let n = items.len();
    let workers_n = effective_jobs(jobs).min(n.max(1));
    if workers_n <= 1 {
        let mut ctx = WorkerCtx {
            worker: 0,
            counters: C::default(),
        };
        let results = items.into_iter().map(|it| f(&mut ctx, it)).collect();
        return PoolOutput {
            results,
            workers: vec![ctx.counters],
        };
    }

    let queue = std::sync::Mutex::new(items.into_iter().enumerate());
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let mut workers: Vec<C> = (0..workers_n).map(|_| C::default()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers_n)
            .map(|w| {
                let queue = &queue;
                let slots = &slots;
                let f = &f;
                s.spawn(move || {
                    let mut ctx = WorkerCtx {
                        worker: w,
                        counters: C::default(),
                    };
                    loop {
                        // Take the lock only to pull the next item; the
                        // work itself runs unlocked.
                        let next = queue.lock().expect("work queue poisoned").next();
                        let Some((i, item)) = next else { break };
                        let r = f(&mut ctx, item);
                        *slots[i].lock().expect("result slot poisoned") = Some(r);
                    }
                    ctx.counters
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            workers[w] = h.join().expect("pool worker panicked");
        }
    });
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every item produces a result")
        })
        .collect();
    PoolOutput { results, workers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_preserves_order_and_counters() {
        for jobs in [0, 1, 2, 4, 16] {
            let out: PoolOutput<i64, u64> = run_sharded(jobs, (0..64).collect(), |ctx, i: i64| {
                ctx.counters += 1;
                i * 3
            });
            assert_eq!(
                out.results,
                (0..64).map(|i| i * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
            assert_eq!(out.workers.iter().sum::<u64>(), 64, "jobs={jobs}");
        }
    }

    #[test]
    fn sharded_empty_and_oversized() {
        let out: PoolOutput<u8, ()> = run_sharded(8, Vec::<u8>::new(), |_, b| b);
        assert!(out.results.is_empty());
        assert_eq!(out.workers.len(), 1);
        let out: PoolOutput<u8, ()> = run_sharded(16, vec![1u8, 2], |_, b| b + 1);
        assert_eq!(out.results, vec![2, 3]);
        assert_eq!(out.workers.len(), 2);
    }

    #[test]
    fn jobs_beyond_item_count_clamp_to_items() {
        // 3 items under 64 requested workers (the simulator's
        // independence-class case): the pool spins up exactly 3
        // workers, each item runs exactly once, order is preserved.
        let out: PoolOutput<usize, u64> = run_sharded(64, vec![10, 20, 30], |ctx, i: usize| {
            ctx.counters += 1;
            i + 1
        });
        assert_eq!(out.results, vec![11, 21, 31]);
        assert_eq!(out.workers.len(), 3);
        assert_eq!(out.workers.iter().sum::<u64>(), 3);
    }

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map(Vec::<i32>::new(), |i| i), Vec::<i32>::new());
        assert_eq!(parallel_map(vec![7], |i: i32| i + 1), vec![8]);
    }

    #[test]
    fn actually_runs_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let out = parallel_map((0..57).collect(), |i: usize| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 57);
        assert_eq!(out.len(), 57);
    }
}
