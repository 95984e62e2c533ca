//! Retry with exponential backoff and a circuit breaker for the LXP path.
//!
//! The buffer is the single choke point between a lazy mediator and a
//! flaky source, so it is the right place to absorb transient faults: a
//! failed `fill` retried here is invisible to every operator above. The
//! backoff between attempts is *simulated* — a deterministic cost in the
//! same currency as the web wrapper's `simulated_cost` (no real sleeping),
//! so experiments stay reproducible and fast while still exposing what
//! fault-recovery would cost on the wire.
//!
//! A per-source circuit breaker turns a persistently failing source into
//! fast, traffic-free failures: after `breaker_threshold` consecutive
//! give-ups the buffer stops calling the wrapper entirely, and navigation
//! degrades immediately instead of timing out again and again.

use crate::lxp::LxpError;
use crate::metrics::RetryMetrics;
use crate::trace::{TraceKind, TraceSink};

/// Retry/backoff/breaker knobs for one buffer–wrapper conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per LXP request (1 = no retries).
    pub max_attempts: u32,
    /// Simulated cost of the first backoff; doubles each further attempt.
    pub base_backoff_cost: u64,
    /// Ceiling on a single backoff's simulated cost.
    pub max_backoff_cost: u64,
    /// Consecutive exhausted requests before the circuit opens (0 =
    /// breaker disabled).
    pub breaker_threshold: u32,
    /// Rejected calls while open before one *half-open probe* is let
    /// through to the wrapper; a successful probe closes the circuit
    /// again without any manual reset (0 = the breaker only ever closes
    /// via [`RetryState::reset`]).
    pub half_open_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_cost: 16,
            max_backoff_cost: 1 << 10,
            breaker_threshold: 3,
            half_open_after: 4,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never trips the breaker —
    /// pre-fault-tolerance behaviour, minus the panics.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_cost: 0,
            max_backoff_cost: 0,
            breaker_threshold: 0,
            half_open_after: 0,
        }
    }

    /// Simulated backoff cost charged after failed attempt number
    /// `attempt` (1-based): `base · 2^(attempt-1)`, capped.
    pub fn backoff_cost(&self, attempt: u32) -> u64 {
        let doublings = attempt.saturating_sub(1).min(63);
        self.base_backoff_cost
            .saturating_mul(1u64 << doublings)
            .min(self.max_backoff_cost)
    }
}

/// Mutable breaker state for one conversation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryState {
    consecutive_failures: u32,
    open: bool,
    /// Calls rejected since the circuit opened (or since the last
    /// half-open probe) — the half-open pacing counter.
    rejected_while_open: u32,
}

/// Outcome of [`RetryState::run`].
pub type RetryResult<T> = Result<T, RetryError>;

/// Why a retried request ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryError {
    /// The circuit is open; the wrapper was not called at all.
    CircuitOpen,
    /// A permanent (non-transient) error; retrying would not help.
    Permanent(LxpError),
    /// Every attempt failed with a transient error.
    Exhausted {
        /// Attempts made (= the policy's `max_attempts`).
        attempts: u32,
        /// The error of the final attempt.
        last: LxpError,
    },
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::CircuitOpen => write!(f, "circuit breaker open: source quarantined"),
            RetryError::Permanent(e) => write!(f, "permanent error: {e}"),
            RetryError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for RetryError {}

impl RetryState {
    /// Fresh state with the breaker closed.
    pub fn new() -> Self {
        RetryState::default()
    }

    /// Is the breaker currently open?
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Run `op` under `policy`, reporting retries/backoff to `health`.
    ///
    /// Transient errors are retried up to `policy.max_attempts` total
    /// attempts, charging simulated backoff cost between attempts. A
    /// success closes the failure streak; an exhausted or permanent
    /// failure lengthens it, and when the streak reaches
    /// `breaker_threshold` the circuit opens: further calls fail
    /// immediately with [`RetryError::CircuitOpen`] without touching the
    /// wrapper.
    pub fn run<T>(
        &mut self,
        policy: &RetryPolicy,
        health: &crate::health::SourceHealth,
        op: impl FnMut() -> Result<T, LxpError>,
    ) -> RetryResult<T> {
        self.run_traced(policy, health, &TraceSink::default(), None, "", op)
    }

    /// [`RetryState::run`], additionally recording each retry and any
    /// breaker opening as flight-recorder events attributed to `source`
    /// and `request`. Event construction (including `request`'s clone) is
    /// guarded behind the sink's enabled flag, so an off sink costs one
    /// branch per retry.
    pub fn run_traced<T>(
        &mut self,
        policy: &RetryPolicy,
        health: &crate::health::SourceHealth,
        trace: &TraceSink,
        source: Option<&str>,
        request: &str,
        op: impl FnMut() -> Result<T, LxpError>,
    ) -> RetryResult<T> {
        self.run_observed(policy, health, trace, None, source, request, op)
    }

    /// [`RetryState::run_traced`], additionally bumping the
    /// retry/breaker-open counters of a live-metrics registry. Metric
    /// recording is guarded inside [`RetryMetrics`] behind the registry's
    /// enabled flag, so a disabled registry costs one relaxed load per
    /// retry.
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed<T>(
        &mut self,
        policy: &RetryPolicy,
        health: &crate::health::SourceHealth,
        trace: &TraceSink,
        metrics: Option<&RetryMetrics>,
        source: Option<&str>,
        request: &str,
        mut op: impl FnMut() -> Result<T, LxpError>,
    ) -> RetryResult<T> {
        if self.open {
            self.rejected_while_open += 1;
            if policy.half_open_after == 0 || self.rejected_while_open < policy.half_open_after {
                return Err(RetryError::CircuitOpen);
            }
            // Half-open: let exactly one probe through. Success closes
            // the circuit (and flips the health handle back, so /healthz
            // recovers without a restart); failure re-arms the pacing
            // counter and keeps the circuit open.
            self.rejected_while_open = 0;
            match op() {
                Ok(v) => {
                    self.open = false;
                    self.consecutive_failures = 0;
                    health.set_breaker(false);
                    if let Some(m) = metrics {
                        m.record_breaker_close();
                    }
                    if trace.is_enabled() {
                        trace.emit(source, TraceKind::BreakerClose);
                    }
                    return Ok(v);
                }
                Err(_) => return Err(RetryError::CircuitOpen),
            }
        }
        let attempts = policy.max_attempts.max(1);
        for attempt in 1..=attempts {
            match op() {
                Ok(v) => {
                    self.consecutive_failures = 0;
                    return Ok(v);
                }
                Err(e) if e.is_transient() && attempt < attempts => {
                    health.record_retry(&e, policy.backoff_cost(attempt));
                    if let Some(m) = metrics {
                        m.record_retry();
                    }
                    if trace.is_enabled() {
                        trace.emit(
                            source,
                            TraceKind::Retry {
                                request: request.to_string(),
                                attempt,
                                backoff_cost: policy.backoff_cost(attempt),
                                error: e.to_string(),
                            },
                        );
                    }
                }
                Err(e) if e.is_transient() => {
                    self.note_failure(policy, health, trace, metrics, source, request);
                    return Err(RetryError::Exhausted { attempts, last: e });
                }
                Err(e) => {
                    self.note_failure(policy, health, trace, metrics, source, request);
                    return Err(RetryError::Permanent(e));
                }
            }
        }
        unreachable!("loop returns on success or final attempt")
    }

    /// Close the breaker and forget the failure streak (the health handle
    /// is reset separately by the owner).
    pub fn reset(&mut self) {
        self.consecutive_failures = 0;
        self.open = false;
        self.rejected_while_open = 0;
    }

    fn note_failure(
        &mut self,
        policy: &RetryPolicy,
        health: &crate::health::SourceHealth,
        trace: &TraceSink,
        metrics: Option<&RetryMetrics>,
        source: Option<&str>,
        request: &str,
    ) {
        self.consecutive_failures += 1;
        if policy.breaker_threshold > 0 && self.consecutive_failures >= policy.breaker_threshold {
            self.open = true;
            health.set_breaker(true);
            if let Some(m) = metrics {
                m.record_breaker_open();
            }
            if trace.is_enabled() {
                trace.emit(source, TraceKind::BreakerOpen { request: request.to_string() });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{HealthStatus, SourceHealth};

    fn flaky(failures_before_success: u32) -> impl FnMut() -> Result<u32, LxpError> {
        let mut remaining = failures_before_success;
        move || {
            if remaining > 0 {
                remaining -= 1;
                Err(LxpError::SourceError("connection reset".into()))
            } else {
                Ok(42)
            }
        }
    }

    #[test]
    fn transient_errors_are_retried_away() {
        let policy = RetryPolicy::default();
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let got = state.run(&policy, &health, flaky(2)).unwrap();
        assert_eq!(got, 42);
        let s = health.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.status, HealthStatus::Healthy);
        // Backoff doubled: 16 then 32.
        assert_eq!(s.backoff_cost, 16 + 32);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let policy = RetryPolicy::default();
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let mut calls = 0;
        let err = state
            .run(&policy, &health, || -> Result<(), _> {
                calls += 1;
                Err(LxpError::UnknownHole("h".into()))
            })
            .unwrap_err();
        assert!(matches!(err, RetryError::Permanent(LxpError::UnknownHole(_))));
        assert_eq!(calls, 1, "no retry of an integration bug");
    }

    #[test]
    fn exhaustion_reports_attempts_and_opens_the_breaker() {
        let policy = RetryPolicy { max_attempts: 3, breaker_threshold: 2, ..RetryPolicy::default() };
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let always_down = || Err::<(), _>(LxpError::SourceError("down".into()));

        let err = state.run(&policy, &health, always_down).unwrap_err();
        assert!(matches!(err, RetryError::Exhausted { attempts: 3, .. }));
        assert!(!state.is_open(), "one streak is below the threshold");

        let _ = state.run(&policy, &health, always_down).unwrap_err();
        assert!(state.is_open());
        assert_eq!(health.status(), HealthStatus::Unavailable);

        // Open circuit: the wrapper is no longer called.
        let mut called = false;
        let err = state
            .run(&policy, &health, || -> Result<(), _> {
                called = true;
                Err(LxpError::SourceError("down".into()))
            })
            .unwrap_err();
        assert_eq!(err, RetryError::CircuitOpen);
        assert!(!called);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let policy = RetryPolicy { max_attempts: 1, breaker_threshold: 3, ..RetryPolicy::default() };
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        for _ in 0..2 {
            let _ = state
                .run(&policy, &health, || Err::<(), _>(LxpError::SourceError("x".into())))
                .unwrap_err();
        }
        state.run(&policy, &health, || Ok::<_, LxpError>(1)).unwrap();
        for _ in 0..2 {
            let _ = state
                .run(&policy, &health, || Err::<(), _>(LxpError::SourceError("x".into())))
                .unwrap_err();
        }
        assert!(!state.is_open(), "streak was broken by the success");
    }

    #[test]
    fn backoff_cost_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff_cost: 10,
            max_backoff_cost: 55,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_cost(1), 10);
        assert_eq!(p.backoff_cost(2), 20);
        assert_eq!(p.backoff_cost(3), 40);
        assert_eq!(p.backoff_cost(4), 55, "capped");
        assert_eq!(p.backoff_cost(200), 55, "huge attempt numbers do not overflow");
    }

    #[test]
    fn traced_runs_record_retries_and_breaker_opening() {
        let policy =
            RetryPolicy { max_attempts: 3, breaker_threshold: 1, ..RetryPolicy::default() };
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let sink = TraceSink::enabled(32);
        let err = state
            .run_traced(&policy, &health, &sink, Some("db"), "fill(h1)", || {
                Err::<(), _>(LxpError::SourceError("down".into()))
            })
            .unwrap_err();
        assert!(matches!(err, RetryError::Exhausted { attempts: 3, .. }));
        let events = sink.events();
        let retries: Vec<_> =
            events.iter().filter(|e| matches!(e.kind, TraceKind::Retry { .. })).collect();
        assert_eq!(retries.len(), 2, "attempts 1 and 2 were retried: {events:?}");
        assert!(retries.iter().all(|e| e.source.as_deref() == Some("db")));
        assert!(
            events.iter().any(|e| matches!(
                &e.kind,
                TraceKind::BreakerOpen { request } if request == "fill(h1)"
            )),
            "breaker opening recorded: {events:?}"
        );
        assert!(state.is_open());
        state.reset();
        assert!(!state.is_open(), "reset closes the breaker");
    }

    #[test]
    fn untraced_run_retries_through_an_off_sink() {
        // `run` is `run_traced` over a default (off) sink: same retries,
        // nothing recorded.
        let policy = RetryPolicy::default();
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let got = state.run(&policy, &health, flaky(2)).unwrap();
        assert_eq!(got, 42);
    }

    #[test]
    fn half_open_probe_closes_the_breaker_on_success() {
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 1,
            half_open_after: 2,
            ..RetryPolicy::default()
        };
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let sink = TraceSink::enabled(32);
        // Trip the breaker.
        let _ = state
            .run_traced(&policy, &health, &sink, Some("db"), "fill(h)", || {
                Err::<(), _>(LxpError::SourceError("down".into()))
            })
            .unwrap_err();
        assert!(state.is_open());
        assert_eq!(health.status(), HealthStatus::Unavailable);
        // First rejected call: no wrapper touch yet.
        let mut called = false;
        let err = state
            .run(&policy, &health, || {
                called = true;
                Ok::<_, LxpError>(1)
            })
            .unwrap_err();
        assert_eq!(err, RetryError::CircuitOpen);
        assert!(!called, "still pacing before the probe");
        // Second call is the half-open probe; it succeeds and the circuit
        // closes, health recovers, and the closure is traced.
        let got = state
            .run_traced(&policy, &health, &sink, Some("db"), "fill(h)", || {
                Ok::<_, LxpError>(7)
            })
            .unwrap();
        assert_eq!(got, 7);
        assert!(!state.is_open());
        assert_eq!(health.status(), HealthStatus::Healthy);
        assert!(sink.events().iter().any(|e| matches!(e.kind, TraceKind::BreakerClose)));
    }

    #[test]
    fn failed_probe_keeps_the_circuit_open_and_re_paces() {
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 1,
            half_open_after: 1,
            ..RetryPolicy::default()
        };
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let down = || Err::<(), _>(LxpError::SourceError("down".into()));
        let _ = state.run(&policy, &health, down).unwrap_err();
        assert!(state.is_open());
        // With half_open_after == 1 every open call is a probe; a failing
        // probe reports CircuitOpen and the breaker stays open.
        let err = state.run(&policy, &health, down).unwrap_err();
        assert_eq!(err, RetryError::CircuitOpen);
        assert!(state.is_open());
        assert_eq!(health.status(), HealthStatus::Unavailable);
        // Recovery on the next probe.
        state.run(&policy, &health, || Ok::<_, LxpError>(1)).unwrap();
        assert!(!state.is_open());
    }

    #[test]
    fn half_open_disabled_keeps_rejecting_forever() {
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 1,
            half_open_after: 0,
            ..RetryPolicy::default()
        };
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let _ = state
            .run(&policy, &health, || Err::<(), _>(LxpError::SourceError("x".into())))
            .unwrap_err();
        for _ in 0..16 {
            let mut called = false;
            let err = state
                .run(&policy, &health, || {
                    called = true;
                    Ok::<_, LxpError>(1)
                })
                .unwrap_err();
            assert_eq!(err, RetryError::CircuitOpen);
            assert!(!called);
        }
    }

    #[test]
    fn policy_none_is_single_shot() {
        let policy = RetryPolicy::none();
        let health = SourceHealth::new();
        let mut state = RetryState::new();
        let err = state.run(&policy, &health, flaky(1)).unwrap_err();
        assert!(matches!(err, RetryError::Exhausted { attempts: 1, .. }));
        assert!(!state.is_open(), "breaker disabled at threshold 0");
    }
}
