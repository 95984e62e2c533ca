//! # mix-buffer — open trees, LXP, and the generic buffer component
//!
//! The fine-grained DOM-VXD navigation model is "often prohibitively
//! expensive for navigating on the sources" (paper §4): every `d`/`r`/`f`
//! would become a wrapper round-trip. MIX's refined architecture inserts a
//! *generic buffer component* between each lazy mediator and its wrapper
//! (Figure 7):
//!
//! ```text
//!   Lazy Mediator
//!     │  DOM-VXD navigations (d, r, f) — node-at-a-time
//!   Buffer Component          ← this crate
//!     │  LXP requests: fill(hole[id]) — wrapper-chosen granularity
//!   Wrapper → Source
//! ```
//!
//! The buffer stores **open XML trees**: partial versions of the wrapper's
//! view containing *holes* for unexplored parts (Defs. 3–4). When a
//! navigation "hits a hole", the buffer issues a `fill` request through the
//! **Lean XML fragment Protocol** (LXP, two commands: `get_root` and
//! `fill`); the wrapper replies with a fragment list that may itself
//! contain further holes, at whatever granularity it prefers — n relational
//! tuples, a whole page, or single nodes.
//!
//! * [`fragment`] — open trees / fragments, the hole-representation
//!   semantics of Defs. 3–4 and Example 6;
//! * [`lxp`] — the protocol trait (`get_root`, `fill`, and the batched
//!   `fill_many` extension) and its progress invariants;
//! * [`adaptive`] — the AIMD chunk-size controller wrappers use to adapt
//!   fill granularity to the observed access pattern;
//! * [`buffer`] — the buffer component: a [`Navigator`] that maintains the
//!   open tree and chases holes (the `d(p)`/`chase_first` algorithm of
//!   Figure 8, generalized to the most liberal protocol);
//! * [`cache`] — the shared cross-query [`FragmentCache`]: a byte-budgeted
//!   LRU of verified fill replies keyed by `(source, hole id)` with
//!   per-source epoch invalidation, so repeated navigations across
//!   independent queries/sessions cost zero wire exchanges;
//! * [`worker`] — [`ConcurrentPrefetcher`], §4's "asynchronous
//!   prefetching strategy": background workers chase hole continuations
//!   so fills answered from their cache leave the critical path (zero
//!   workers is a plain pass-through);
//! * [`treewrap`] — an LXP wrapper over in-memory documents with pluggable
//!   [`FillPolicy`]s, used by tests, the web-source simulator, and the
//!   granularity experiments;
//! * [`slow`] — [`SlowWrapper`], injected per-exchange wire latency for
//!   the concurrency experiments (sequential pays the sum of source
//!   latencies, parallel the max);
//! * [`retry`] — retry with exponential simulated backoff and a
//!   per-source circuit breaker, applied to every LXP request the buffer
//!   issues;
//! * [`health`] — the queryable [`SourceHealth`] surface recording
//!   absorbed faults, recovery cost, and degraded operations;
//! * [`fault`] — [`FaultyWrapper`], a seeded fault injector for testing
//!   and measuring the above;
//! * [`trace`] — the flight recorder: ring-buffered [`TraceEvent`]s
//!   (fills, retries, breaker transitions, degradations, prefetch
//!   hits/misses) shared between buffers and the engine via span ids;
//! * [`metrics`] — the aggregation complement to the recorder: a
//!   lock-light [`MetricsRegistry`] of atomic counters, gauges, and
//!   log₂-bucket histograms, zero-cost when off, exportable as JSON or
//!   Prometheus text.
//!
//! The buffer never panics on wrapper failure: transient source errors
//! are retried away; anything worse degrades navigation gracefully
//! (`None` / empty label) and is recorded in the buffer's health handle.
//!
//! [`Navigator`]: mix_nav::Navigator
//! [`FillPolicy`]: treewrap::FillPolicy
//! [`SourceHealth`]: health::SourceHealth
//! [`FaultyWrapper`]: fault::FaultyWrapper
//! [`TraceEvent`]: trace::TraceEvent
//! [`MetricsRegistry`]: metrics::MetricsRegistry

pub mod adaptive;
pub mod buffer;
pub mod cache;
pub mod fault;
pub mod fragment;
pub mod health;
pub mod lxp;
pub mod metrics;
pub mod pool;
pub mod retry;
pub mod slow;
pub mod trace;
pub mod treewrap;
pub mod worker;

pub use adaptive::AimdChunk;
pub use buffer::{BufNodeId, BufferError, BufferNavigator, BufferStats, BufferStatsSnapshot};
pub use cache::{FragmentCache, FragmentCacheStats, SourceCacheStats, DEFAULT_CACHE_BUDGET};
pub use fault::{FaultConfig, FaultStats, FaultyWrapper};
pub use fragment::Fragment;
pub use health::{HealthSnapshot, HealthStatus, SourceHealth};
pub use lxp::{chase_continuation, BatchItem, HoleId, LxpError, LxpWrapper, SharedWrapper};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricsRegistry, MetricsSnapshot,
    RetryMetrics, Sample, SampleValue, WrapperMetrics,
};
pub use pool::{lock_unpoisoned, run_parallel, wait_unpoisoned, OverlapGauge};
pub use retry::{RetryError, RetryPolicy, RetryState};
pub use slow::SlowWrapper;
pub use trace::{TraceEvent, TraceKind, TraceSink, DEFAULT_TRACE_CAPACITY};
pub use treewrap::{FillPolicy, TreeWrapper};
pub use worker::{ConcurrentPrefetcher, DEFAULT_PREFETCH_CAP};
