//! Shared worker-pool helpers for the flow's parallel stages.
//!
//! The channel router (`aqfp-route`), the detailed placer
//! ([`crate::detailed`]), the batch driver (`superflow`) and the sharded
//! global placer ([`crate::global`]) split their work into independent jobs
//! (channels, rows, designs, shard blocks) and merge the results in job
//! order, so serial and parallel runs are byte-identical. This module hosts
//! the three decisions they share: how a configured thread knob resolves to
//! an actual worker count ([`effective_threads`]), how one machine's cores
//! are divided among several flow instances running at once
//! ([`ThreadBudget`]), and how an ordered job queue runs on a worker pool
//! ([`run_in_order`]). The global placer keeps a pool of its own: its
//! workers advance in lockstep behind a barrier, so each must own a fixed
//! block of shards, and a queue that let one worker take two blocks would
//! deadlock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A pool of cores to divide among concurrent flow instances.
///
/// The batch driver runs `W` designs at once, and each design's stages can
/// themselves run multi-threaded; without coordination, `W` workers × an
/// all-cores stage pool oversubscribes every core. A `ThreadBudget` makes
/// the division explicit: [`share`](Self::share) hands each instance an
/// equal slice of the total, never less than one thread.
///
/// ```
/// use aqfp_place::parallel::ThreadBudget;
/// let budget = ThreadBudget::new(8);
/// assert_eq!(budget.share(4), 2); // 4 designs in flight → 2 threads each
/// assert_eq!(budget.share(16), 1); // more instances than cores → serial
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    total: usize,
}

impl ThreadBudget {
    /// A budget of exactly `total` threads; `0` resolves to the machine's
    /// available parallelism (like a thread knob on auto).
    pub fn new(total: usize) -> Self {
        if total == 0 {
            Self::machine()
        } else {
            Self { total }
        }
    }

    /// The whole machine: one thread per available core.
    pub fn machine() -> Self {
        Self { total: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }
    }

    /// The total number of threads in the budget.
    pub fn total(self) -> usize {
        self.total
    }

    /// The per-instance slice when `instances` run concurrently: an equal
    /// split of the total, at least one thread each.
    pub fn share(self, instances: usize) -> usize {
        (self.total / instances.max(1)).max(1)
    }
}

/// Resolves a configured worker count against a job count: `0` means every
/// available core, and there is never a reason to spawn more workers than
/// jobs (nor fewer than one).
pub fn effective_threads(configured: usize, jobs: usize) -> usize {
    ThreadBudget::new(configured).total().min(jobs).max(1)
}

/// Runs jobs `0..count` on one worker per scratch and returns their results
/// in index order.
///
/// Workers take the next index off a shared counter, so a slow job never
/// holds up the others, and each worker passes its own scratch to every job
/// it runs: `job(scratch, index)`. Which worker runs a job is up to the
/// schedule, so a job's result must not depend on its scratch's history.
/// With one scratch every job runs on the calling thread: a spawned worker
/// gives its allocator arena back only as its thread exits, which can be
/// after this call returns, and a call started right after would then open
/// a second arena and keep both resident.
///
/// # Panics
///
/// Panics when a job panics, and when `count > 0` with no scratch.
pub fn run_in_order<S: Send, R: Send>(
    count: usize,
    scratches: &mut [S],
    job: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    if let [scratch] = scratches {
        return (0..count).map(|index| job(scratch, index)).collect();
    }
    // The counter only hands out indices; results reach this thread through
    // the slots' locks and the scope's join.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for scratch in scratches {
            let (cursor, slots, job) = (&cursor, &slots, &job);
            scope.spawn(move || loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(index) else { break };
                let result = job(scratch, index);
                *slot.lock().expect("no job panics while holding its slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no job panics while holding its slot")
                .expect("a worker ran every job")
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    use super::*;

    #[test]
    fn explicit_thread_counts_cap_at_the_job_count() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(2, 8), 2);
        assert_eq!(effective_threads(1, 8), 1);
    }

    #[test]
    fn zero_resolves_to_available_cores() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(effective_threads(0, usize::MAX), cores);
        assert_eq!(ThreadBudget::new(0), ThreadBudget::machine());
        assert_eq!(ThreadBudget::machine().total(), cores);
    }

    #[test]
    fn worker_count_is_at_least_one() {
        assert_eq!(effective_threads(0, 0), 1);
        assert_eq!(effective_threads(5, 0), 1);
    }

    #[test]
    fn budget_shares_divide_evenly_and_never_starve() {
        let budget = ThreadBudget::new(8);
        assert_eq!(budget.share(1), 8);
        assert_eq!(budget.share(2), 4);
        assert_eq!(budget.share(3), 2); // floor division
        assert_eq!(budget.share(8), 1);
        assert_eq!(budget.share(100), 1);
        assert_eq!(budget.share(0), 8); // zero instances is treated as one
    }

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 8] {
            for count in [0, 1, 100] {
                let results = run_in_order(count, &mut vec![(); workers], |_, index| index * 3);
                let expected: Vec<usize> = (0..count).map(|index| index * 3).collect();
                assert_eq!(results, expected, "{count} jobs on {workers} workers");
            }
        }
    }

    #[test]
    fn each_scratch_stays_with_one_thread() {
        // Two jobs that wait for each other can only finish on two workers
        // running at once, one scratch each.
        let barrier = Barrier::new(2);
        let threads = run_in_order(2, &mut [(), ()], |_, _| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(threads[0], threads[1]);

        let mut scratches: Vec<Vec<(ThreadId, usize)>> = vec![Vec::new(); 8];
        run_in_order(100, &mut scratches, |seen, index| seen.push((thread::current().id(), index)));
        let mut owners = Vec::new();
        let mut indices = Vec::new();
        for seen in &scratches {
            let Some(&(owner, _)) = seen.first() else { continue };
            assert!(seen.iter().all(|&(thread, _)| thread == owner), "a scratch changed threads");
            assert!(!owners.contains(&owner), "two scratches on one thread");
            owners.push(owner);
            indices.extend(seen.iter().map(|&(_, index)| index));
        }
        indices.sort_unstable();
        assert_eq!(indices, (0..100).collect::<Vec<_>>(), "every job runs exactly once");
    }

    #[test]
    fn one_scratch_runs_every_job_on_the_calling_thread() {
        let caller = thread::current().id();
        let threads = run_in_order(10, &mut [()], |_, _| thread::current().id());
        assert!(threads.iter().all(|&thread| thread == caller));
    }

    #[test]
    fn a_panicking_job_panics_the_call() {
        for workers in [1, 2] {
            let result = std::panic::catch_unwind(|| {
                run_in_order(4, &mut vec![(); workers], |_, index| {
                    assert_ne!(index, 2, "job 2 fails");
                })
            });
            assert!(result.is_err(), "{workers} workers");
        }
    }
}
