//! Poison-tolerant locking and the scoped exchange pool.
//!
//! The paper's mediator fans one client navigation out into LXP exchanges
//! against *independent* sources (join/cross/union inputs touch disjoint
//! wrappers), so those exchanges can run concurrently: the cascade costs
//! the max of the source latencies instead of their sum. This module
//! holds the machinery every concurrent component shares:
//!
//! * [`OverlapGauge`] — an in-flight exchange counter whose high-water
//!   mark *proves* exchanges overlapped (the acceptance instrument for
//!   "issues its exchanges concurrently");
//! * [`run_parallel`] — a scoped fork-join pool used for per-source
//!   exchange fan-out (no detached threads, results in input order).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Lock `m`, recovering the guard when a previous holder panicked.
///
/// Every lock in this workspace protects state that stays consistent
/// across a panic: the critical sections either perform single in-place
/// writes or are explicitly cleaned up by the panicking path
/// (`catch_unwind` un-claims before re-raising). Treating poison as fatal
/// would turn one panicking session/worker into a whole-process outage —
/// the cascade `mix-serve` exists to prevent — so shared components
/// recover the inner value instead of propagating the poison.
#[inline]
pub fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison-recovery policy as
/// [`lock_unpoisoned`].
#[inline]
pub fn wait_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct OverlapCells {
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
    entered: AtomicU64,
}

/// Counts exchanges currently in flight and remembers the high-water
/// mark. A max above 1 is positive proof that two exchanges overlapped in
/// time; a sequential engine can never exceed 1.
#[derive(Clone, Debug, Default)]
pub struct OverlapGauge {
    inner: Arc<OverlapCells>,
}

/// RAII guard for one in-flight exchange (see [`OverlapGauge::enter`]).
pub struct OverlapGuard {
    inner: Arc<OverlapCells>,
}

impl OverlapGauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        OverlapGauge::default()
    }

    /// Mark one exchange in flight until the guard drops.
    pub fn enter(&self) -> OverlapGuard {
        let now = self.inner.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.inner.entered.fetch_add(1, Ordering::Relaxed);
        self.inner.max_in_flight.fetch_max(now, Ordering::AcqRel);
        OverlapGuard { inner: Arc::clone(&self.inner) }
    }

    /// Exchanges in flight right now.
    pub fn in_flight(&self) -> u64 {
        self.inner.in_flight.load(Ordering::Acquire)
    }

    /// The most exchanges ever simultaneously in flight.
    pub fn max_overlap(&self) -> u64 {
        self.inner.max_in_flight.load(Ordering::Acquire)
    }

    /// Total exchanges that passed through the gauge.
    pub fn entered(&self) -> u64 {
        self.inner.entered.load(Ordering::Relaxed)
    }
}

impl Drop for OverlapGuard {
    fn drop(&mut self) {
        self.inner.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Run `tasks` on up to `threads` scoped worker threads and return their
/// results in input order. `threads <= 1` (or a single task) runs inline
/// on the caller — the sequential engine pays no thread tax. A panic in a
/// task propagates to the caller when the scope joins.
pub fn run_parallel<T, F>(tasks: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if threads <= 1 || n <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Work-stealing by index: each slot is claimed exactly once.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = lock_unpoisoned(&tasks[i]).take().expect("task claimed once");
                let out = task();
                *lock_unpoisoned(&results[i]) = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Condvar;

    #[test]
    fn results_come_back_in_input_order() {
        let tasks: Vec<_> = (0..17).map(|i| move || i * 10).collect();
        assert_eq!(run_parallel(tasks, 4), (0..17).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_runs_inline() {
        let tasks: Vec<_> = (0..3).map(|i| move || i).collect();
        assert_eq!(run_parallel(tasks, 1), vec![0, 1, 2]);
    }

    #[test]
    fn overlap_gauge_proves_concurrency() {
        // Two tasks rendezvous: each waits until the other is in flight,
        // so the gauge must observe 2 simultaneously in-flight exchanges.
        let gauge = OverlapGauge::new();
        let sync = Arc::new((Mutex::new(0usize), Condvar::new()));
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                let gauge = gauge.clone();
                let sync = Arc::clone(&sync);
                move || {
                    let _guard = gauge.enter();
                    let (lock, cv) = &*sync;
                    let mut here = lock.lock().unwrap();
                    *here += 1;
                    cv.notify_all();
                    while *here < 2 {
                        here = cv.wait(here).unwrap();
                    }
                }
            })
            .collect();
        run_parallel(tasks, 2);
        assert_eq!(gauge.max_overlap(), 2);
        assert_eq!(gauge.in_flight(), 0);
        assert_eq!(gauge.entered(), 2);
    }

    #[test]
    fn gauge_never_exceeds_one_when_sequential() {
        let gauge = OverlapGauge::new();
        for _ in 0..5 {
            let _g = gauge.enter();
        }
        assert_eq!(gauge.max_overlap(), 1);
    }

    #[test]
    fn panics_propagate_from_workers() {
        let hit = Arc::new(AtomicBool::new(false));
        let hit2 = Arc::clone(&hit);
        let result = std::panic::catch_unwind(move || {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(|| panic!("worker boom")),
                Box::new(move || hit2.store(true, Ordering::Relaxed)),
            ];
            run_parallel(tasks, 2)
        });
        assert!(result.is_err(), "worker panic reaches the caller");
    }
}
