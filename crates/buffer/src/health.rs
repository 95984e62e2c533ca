//! Queryable health of one buffer–wrapper conversation.
//!
//! The paper's setting is live web sources (§1: "one cannot obtain the
//! complete dataset of the booksellers") — sources that time out, drop
//! connections, and come back. [`SourceHealth`] is the buffer's account of
//! that weather: transient faults absorbed by retries, simulated backoff
//! cost paid for them, and operations that had to *degrade* (navigation
//! answered `None` because the source stayed down or broke the protocol).
//!
//! The handle is cheap to clone and shared — the same `Arc`-of-atomics
//! idiom as [`BufferStats`](crate::BufferStats) — so the engine, profiler,
//! and client library can all observe the conversation the buffer is
//! having without owning the buffer.

use crate::pool::lock_unpoisoned;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Coarse classification of a source's current condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// No faults observed, or every fault was retried away.
    Healthy,
    /// At least one operation gave up and degraded (partial answers are
    /// possible), but the circuit is still closed: the buffer keeps
    /// trying.
    Degraded,
    /// The circuit breaker is open: the source failed persistently and
    /// the buffer no longer sends it traffic.
    Unavailable,
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthStatus::Healthy => write!(f, "healthy"),
            HealthStatus::Degraded => write!(f, "degraded"),
            HealthStatus::Unavailable => write!(f, "unavailable"),
        }
    }
}

/// A point-in-time copy of [`SourceHealth`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Current condition.
    pub status: HealthStatus,
    /// Transient wrapper errors observed (each preceded a retry or a
    /// give-up).
    pub transient_faults: u64,
    /// Retry attempts issued after a transient fault.
    pub retries: u64,
    /// Simulated cost units spent backing off between attempts (same
    /// currency as the web wrapper's `simulated_cost`).
    pub backoff_cost: u64,
    /// Operations that exhausted retries or hit a permanent error and
    /// degraded to a partial answer.
    pub degraded_ops: u64,
    /// Speculative readahead fills that failed (best-effort, off the
    /// critical path — the client's own fill faces the error itself, so
    /// these do not degrade the answer, but they are weather worth
    /// seeing).
    pub prefetch_failures: u64,
    /// The most recent error, rendered.
    pub last_error: Option<String>,
}

impl HealthSnapshot {
    /// True when nothing ever went wrong *and* nothing was even retried.
    pub fn is_pristine(&self) -> bool {
        self.status == HealthStatus::Healthy && self.transient_faults == 0
    }
}

#[derive(Default, Debug)]
struct HealthCells {
    transient_faults: AtomicU64,
    retries: AtomicU64,
    backoff_cost: AtomicU64,
    degraded_ops: AtomicU64,
    prefetch_failures: AtomicU64,
    breaker_open: AtomicBool,
    last_error: Mutex<Option<String>>,
}

/// Shared, cloneable handle to one source's fault/retry counters.
#[derive(Clone, Default, Debug)]
pub struct SourceHealth {
    inner: Arc<HealthCells>,
}

impl SourceHealth {
    /// Fresh, healthy state.
    pub fn new() -> Self {
        SourceHealth::default()
    }

    /// Read the current state.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            status: self.status(),
            transient_faults: self.inner.transient_faults.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            backoff_cost: self.inner.backoff_cost.load(Ordering::Relaxed),
            degraded_ops: self.degraded_ops(),
            prefetch_failures: self.inner.prefetch_failures.load(Ordering::Relaxed),
            last_error: lock_unpoisoned(&self.inner.last_error).clone(),
        }
    }

    /// Operations degraded so far — one atomic load, for callers that
    /// compare before and after every navigation.
    pub fn degraded_ops(&self) -> u64 {
        self.inner.degraded_ops.load(Ordering::Relaxed)
    }

    /// Current condition.
    pub fn status(&self) -> HealthStatus {
        if self.inner.breaker_open.load(Ordering::Relaxed) {
            HealthStatus::Unavailable
        } else if self.degraded_ops() > 0 {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        }
    }

    /// Record one transient fault plus the retry that answers it.
    pub fn record_retry(&self, error: &dyn fmt::Display, backoff_cost: u64) {
        self.inner.transient_faults.fetch_add(1, Ordering::Relaxed);
        self.inner.retries.fetch_add(1, Ordering::Relaxed);
        self.inner.backoff_cost.fetch_add(backoff_cost, Ordering::Relaxed);
        *lock_unpoisoned(&self.inner.last_error) = Some(error.to_string());
    }

    /// Record a fault nothing could absorb: the operation degrades.
    pub fn record_degraded(&self, error: &dyn fmt::Display) {
        self.inner.degraded_ops.fetch_add(1, Ordering::Relaxed);
        *lock_unpoisoned(&self.inner.last_error) = Some(error.to_string());
    }

    /// Record a failed speculative readahead fill. Does not change the
    /// status or `last_error`: readahead is best-effort, and the client's
    /// own fill will face the error on the critical path.
    pub fn record_prefetch_failure(&self) {
        self.inner.prefetch_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Open or close the circuit breaker.
    pub fn set_breaker(&self, open: bool) {
        self.inner.breaker_open.store(open, Ordering::Relaxed);
    }

    /// Is the circuit breaker currently open?
    pub fn breaker_open(&self) -> bool {
        self.inner.breaker_open.load(Ordering::Relaxed)
    }

    /// Zero every counter and close the breaker (experiment harnesses).
    pub fn reset(&self) {
        self.inner.transient_faults.store(0, Ordering::Relaxed);
        self.inner.retries.store(0, Ordering::Relaxed);
        self.inner.backoff_cost.store(0, Ordering::Relaxed);
        self.inner.degraded_ops.store(0, Ordering::Relaxed);
        self.inner.prefetch_failures.store(0, Ordering::Relaxed);
        self.inner.breaker_open.store(false, Ordering::Relaxed);
        *lock_unpoisoned(&self.inner.last_error) = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_pristine() {
        let h = SourceHealth::new();
        let s = h.snapshot();
        assert!(s.is_pristine());
        assert_eq!(s.status, HealthStatus::Healthy);
        assert_eq!(s.last_error, None);
    }

    #[test]
    fn retries_keep_status_healthy() {
        let h = SourceHealth::new();
        h.record_retry(&"timeout", 10);
        h.record_retry(&"timeout", 20);
        let s = h.snapshot();
        assert_eq!(s.status, HealthStatus::Healthy);
        assert!(!s.is_pristine());
        assert_eq!(s.transient_faults, 2);
        assert_eq!(s.retries, 2);
        assert_eq!(s.backoff_cost, 30);
        assert_eq!(s.last_error.as_deref(), Some("timeout"));
    }

    #[test]
    fn degradation_and_breaker_escalate_status() {
        let h = SourceHealth::new();
        h.record_degraded(&"gave up");
        assert_eq!(h.status(), HealthStatus::Degraded);
        h.set_breaker(true);
        assert_eq!(h.status(), HealthStatus::Unavailable);
        h.reset();
        assert!(h.snapshot().is_pristine());
    }

    #[test]
    fn clones_share_state() {
        let h = SourceHealth::new();
        let view = h.clone();
        h.record_degraded(&"x");
        assert_eq!(view.snapshot().degraded_ops, 1);
    }
}
