//! The flight recorder: structured, ring-buffered trace events.
//!
//! The paper's evaluation method is *counting navigations* (Def. 2, §5),
//! but aggregate counters cannot answer "which client command caused this
//! wire exchange?" or — worse — "was this empty label a real PCDATA node
//! or a degraded fetch?". A [`TraceSink`] records every interesting step
//! of a run as a [`TraceEvent`]: client commands, operator in/out
//! navigation, attribute jumps, LXP `get_root`/`fill`/`fill_many`
//! exchanges, retries, breaker transitions, prefetch hits/misses, and —
//! crucially — every *degradation* (a navigation answered from the
//! fallback path after retries were exhausted).
//!
//! # Span model
//!
//! Events carry a **span id**. The engine bumps the span at every client
//! command (`d`/`r`/`f`/`select`) and every event emitted until the next
//! command — operator cascades, buffer fills, retries, degradations —
//! inherits it. Sharing one sink between the engine and its buffers is
//! what links a client command to the cascade it triggered down the
//! mediator tree.
//!
//! # Zero-cost when disabled
//!
//! The sink is an `Arc`-of-atomics handle (the [`BufferStats`] idiom);
//! instrumented call sites guard event *construction* behind
//! [`TraceSink::is_enabled`] — a single relaxed atomic read — so a disabled
//! sink costs one predictable branch and never allocates.
//!
//! # Exact accounting
//!
//! Wire-level events carry the same quantities the [`BufferStats`]
//! counters accumulate, so a rollup over a complete trace reproduces the
//! `requests`/`batched_holes`/`wasted_bytes` totals *exactly* (see
//! `mix-core`'s `TraceLog::rollup`): a [`TraceKind::Fill`] with
//! `from_cache: false` is one wire request answering one hole; a
//! [`TraceKind::FillMany`] is one wire request answering `items` holes
//! and parking `wasted` bytes; a [`TraceKind::Fill`] with
//! `from_cache: true` consumes a parked reply and credits `waste_credit`
//! bytes back.
//!
//! [`BufferStats`]: crate::BufferStats

use crate::metrics::{Counter, MetricsRegistry};
use crate::pool::lock_unpoisoned;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring capacity of an enabled sink.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// What happened (one step of a run). Quantities mirror the
/// [`BufferStats`](crate::BufferStats) counters they accompany.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A client command arrived at the engine; starts a new span.
    ClientCommand {
        /// The DOM-VXD command: `d`, `r`, `f`, or `s`.
        cmd: &'static str,
    },
    /// A navigation entered a lazy mediator (operator).
    OperatorIn {
        /// The operator kind, e.g. `join` or `select`.
        op: &'static str,
        /// Which entry point: `first_binding`, `next_binding`.
        call: &'static str,
    },
    /// The navigation left the operator again.
    OperatorOut {
        /// The operator kind.
        op: &'static str,
        /// Did it produce a binding (vs ⊥)?
        produced: bool,
    },
    /// An operator jumped to a variable's attribute (`attr`).
    AttrJump {
        /// The operator kind.
        op: &'static str,
        /// The variable jumped to.
        var: String,
    },
    /// The engine navigated an underlying source on behalf of operators.
    SourceNav {
        /// The command issued on the source: `d`, `r`, `f`, or `s`.
        cmd: &'static str,
    },
    /// The buffer issued `get_root` for its document.
    GetRoot {
        /// The document URI.
        uri: String,
    },
    /// One per-hole fill reply was consumed by the buffer.
    Fill {
        /// The hole that was filled.
        hole: String,
        /// Non-hole nodes in the reply.
        nodes: u64,
        /// Wire bytes of the reply.
        bytes: u64,
        /// Served from the pending batch cache (no wire exchange)?
        from_cache: bool,
        /// Bytes credited back out of `wasted_bytes` on cache consumption.
        waste_credit: u64,
    },
    /// One batched `fill_many` wire exchange.
    FillMany {
        /// The critical hole that triggered the exchange.
        critical: String,
        /// Holes requested in the batch.
        holes: u64,
        /// Per-hole replies received (requested + continuation items).
        items: u64,
        /// Non-hole nodes received across all items.
        nodes: u64,
        /// Wire bytes received across all items.
        bytes: u64,
        /// Bytes parked or dropped as speculative waste.
        wasted: u64,
    },
    /// A transient LXP error was retried.
    Retry {
        /// The request being retried (hole id or URI).
        request: String,
        /// The failed attempt number (1-based).
        attempt: u32,
        /// Simulated backoff cost charged before the next attempt.
        backoff_cost: u64,
        /// The transient error.
        error: String,
    },
    /// The circuit breaker opened: the source is quarantined.
    BreakerOpen {
        /// The request whose failure tripped the breaker.
        request: String,
    },
    /// The circuit breaker was closed again (`reset_faults`).
    BreakerClose,
    /// A navigation could not complete and degraded to its fallback
    /// (`None` / empty label). **This is the event that makes a silently
    /// wrong answer visible.**
    Degradation {
        /// The degraded navigation: `down`, `right`, or `fetch`.
        op: &'static str,
        /// Why it degraded.
        error: String,
    },
    /// A fill was answered from the prefetcher's readahead cache.
    PrefetchHit {
        /// The hole served.
        hole: String,
    },
    /// A fill missed the readahead cache (critical-path round trip).
    PrefetchMiss {
        /// The hole that missed.
        hole: String,
    },
    /// A speculative readahead fill failed (best-effort; the client's own
    /// fill will face the error on the critical path).
    PrefetchFail {
        /// The hole whose readahead failed.
        hole: String,
        /// The error.
        error: String,
    },
    /// A wrapper answered a fill/fill_many (wrapper-side view).
    WrapperFill {
        /// Which wrapper: `relational`, `web`, `oodb`.
        wrapper: &'static str,
        /// Holes asked for.
        holes: u64,
        /// Reply items produced (≥ holes when continuations ride along).
        items: u64,
    },
    /// A fill was answered from the shared cross-query fragment cache —
    /// zero wire exchanges, zero wrapper involvement.
    CacheHit {
        /// The hole served.
        hole: String,
        /// Non-hole nodes in the cached reply.
        nodes: u64,
        /// Wire bytes the cache saved.
        bytes: u64,
    },
    /// A verified fill reply was admitted into the shared fragment cache.
    CacheStore {
        /// The hole whose reply was admitted.
        hole: String,
        /// Wire bytes admitted.
        bytes: u64,
    },
    /// A cache entry was evicted: LRU byte pressure in the shared cache
    /// (`scope: "shared"`) or capacity pressure in the pending batch
    /// cache (`scope: "pending"`).
    CacheEvict {
        /// Which cache evicted: `shared` or `pending`.
        scope: &'static str,
        /// The hole whose entry was evicted.
        hole: String,
        /// Wire bytes evicted.
        bytes: u64,
    },
    /// A source's cached entries were dropped wholesale: a degradation /
    /// breaker-open purge or an explicit `invalidate(source)`. Scope
    /// `shared` is the cross-query cache (epoch bumped); `pending` is
    /// the navigator's own parked batch replies.
    CacheInvalidate {
        /// Which cache was purged: `shared` or `pending`.
        scope: &'static str,
        /// Entries dropped.
        entries: u64,
        /// Wire bytes dropped.
        bytes: u64,
    },
    /// (Client side) one DOM-VXD request frame left for the server within
    /// the current span. The wire twin of [`TraceKind::ClientCommand`]:
    /// counting these reconciles a client-side trace with the frames the
    /// transport actually carried.
    WireRequest {
        /// The wire verb: `open`, `d`, `r`, `f`, `s`, or `close`.
        verb: &'static str,
    },
    /// (Server side) the current span serves a remote client span — the
    /// request frame carried a trace context and the serving layer linked
    /// the session engine's span to it. The merge API stitches traces on
    /// these events: every server-side cascade re-parents onto the client
    /// navigation named here.
    WireSpan {
        /// The client-side span id from the request's trace context.
        client_span: u64,
        /// The wire verb: `open`, `d`, `r`, `f`, `s`, or `close`.
        verb: &'static str,
    },
    /// A wire exchange (`fill_many`, or a plain `fill` at batch limit 1)
    /// transferred a reply that was then rejected (batch-shape or
    /// progress violation): the wire cost is real even though nothing was
    /// consumed, so it is attributed rather than silently lost.
    FillManyFailed {
        /// The critical hole that triggered the exchange.
        critical: String,
        /// Holes requested in the batch.
        holes: u64,
        /// Per-hole reply items transferred before rejection.
        items: u64,
        /// Non-hole nodes transferred.
        nodes: u64,
        /// Wire bytes transferred (all counted as waste).
        bytes: u64,
        /// Bytes recorded as waste (equals `bytes`).
        wasted: u64,
    },
    /// The semantic answer cache classified a query at engine build time:
    /// `covered` of `total` source branches were rewritten onto recorded
    /// views (wire-free in-memory navigation). Emitted once per engine,
    /// before any navigation, and deliberately neutral in the traffic
    /// rollup — rewritten plans simply issue no wire events to reconcile.
    SemanticRewrite {
        /// The outcome label: `covered`, `partial`, or `miss`.
        outcome: &'static str,
        /// Branches rewritten onto views.
        covered: u32,
        /// Total source branches in the plan.
        total: u32,
    },
}

impl TraceKind {
    /// A stable kebab-case name for querying and JSON export.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::ClientCommand { .. } => "client-command",
            TraceKind::OperatorIn { .. } => "operator-in",
            TraceKind::OperatorOut { .. } => "operator-out",
            TraceKind::AttrJump { .. } => "attr-jump",
            TraceKind::SourceNav { .. } => "source-nav",
            TraceKind::GetRoot { .. } => "get-root",
            TraceKind::Fill { .. } => "fill",
            TraceKind::FillMany { .. } => "fill-many",
            TraceKind::Retry { .. } => "retry",
            TraceKind::BreakerOpen { .. } => "breaker-open",
            TraceKind::BreakerClose => "breaker-close",
            TraceKind::Degradation { .. } => "degradation",
            TraceKind::PrefetchHit { .. } => "prefetch-hit",
            TraceKind::PrefetchMiss { .. } => "prefetch-miss",
            TraceKind::PrefetchFail { .. } => "prefetch-fail",
            TraceKind::WrapperFill { .. } => "wrapper-fill",
            TraceKind::CacheHit { .. } => "cache-hit",
            TraceKind::CacheStore { .. } => "cache-store",
            TraceKind::CacheEvict { .. } => "cache-evict",
            TraceKind::CacheInvalidate { .. } => "cache-invalidate",
            TraceKind::WireRequest { .. } => "wire-request",
            TraceKind::WireSpan { .. } => "wire-span",
            TraceKind::FillManyFailed { .. } => "fill-many-failed",
            TraceKind::SemanticRewrite { .. } => "semantic-rewrite",
        }
    }
}

/// One recorded step: where in the run (`seq`), which client command
/// caused it (`span`), which source it concerns, and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (total order of the run).
    pub seq: u64,
    /// Span id of the client command this event belongs to (0 = before
    /// any command).
    pub span: u64,
    /// The source/buffer/wrapper concerned, if any (engine-level events
    /// carry `None`).
    pub source: Option<String>,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<5} span {:<4} ", self.seq, self.span)?;
        if let Some(src) = &self.source {
            write!(f, "[{src}] ")?;
        }
        match &self.kind {
            TraceKind::ClientCommand { cmd } => write!(f, "client `{cmd}`"),
            TraceKind::OperatorIn { op, call } => write!(f, "→ {op}.{call}"),
            TraceKind::OperatorOut { op, produced } => {
                write!(f, "← {op} {}", if *produced { "produced" } else { "⊥" })
            }
            TraceKind::AttrJump { op, var } => write!(f, "{op} attr(${var})"),
            TraceKind::SourceNav { cmd } => write!(f, "source `{cmd}`"),
            TraceKind::GetRoot { uri } => write!(f, "get_root({uri})"),
            TraceKind::Fill { hole, nodes, bytes, from_cache, .. } => {
                let via = if *from_cache { " (batch cache)" } else { "" };
                write!(f, "fill({hole}) = {nodes} nodes / {bytes} B{via}")
            }
            TraceKind::FillMany { critical, holes, items, nodes, bytes, wasted } => write!(
                f,
                "fill_many({critical} +{} holes) = {items} items, {nodes} nodes / {bytes} B ({wasted} B parked)",
                holes.saturating_sub(1)
            ),
            TraceKind::Retry { request, attempt, backoff_cost, error } => {
                write!(f, "retry #{attempt} of {request} (backoff {backoff_cost}): {error}")
            }
            TraceKind::BreakerOpen { request } => write!(f, "breaker OPEN after {request}"),
            TraceKind::BreakerClose => write!(f, "breaker closed"),
            TraceKind::Degradation { op, error } => {
                write!(f, "DEGRADED `{op}`: {error}")
            }
            TraceKind::PrefetchHit { hole } => write!(f, "prefetch hit {hole}"),
            TraceKind::PrefetchMiss { hole } => write!(f, "prefetch miss {hole}"),
            TraceKind::PrefetchFail { hole, error } => {
                write!(f, "prefetch readahead of {hole} failed: {error}")
            }
            TraceKind::WrapperFill { wrapper, holes, items } => {
                write!(f, "{wrapper} wrapper answered {holes} holes with {items} items")
            }
            TraceKind::CacheHit { hole, nodes, bytes } => {
                write!(f, "fill({hole}) = {nodes} nodes / {bytes} B (shared cache, no wire)")
            }
            TraceKind::CacheStore { hole, bytes } => {
                write!(f, "cached reply for {hole} ({bytes} B)")
            }
            TraceKind::CacheEvict { scope, hole, bytes } => {
                write!(f, "{scope} cache evicted {hole} ({bytes} B)")
            }
            TraceKind::CacheInvalidate { scope, entries, bytes } => {
                write!(f, "{scope} cache invalidated: {entries} entries / {bytes} B dropped")
            }
            TraceKind::WireRequest { verb } => write!(f, "wire → `{verb}` frame sent"),
            TraceKind::WireSpan { client_span, verb } => {
                write!(f, "wire ← serving client span {client_span} (`{verb}`)")
            }
            TraceKind::FillManyFailed { critical, holes, items, nodes, bytes, .. } => write!(
                f,
                "fill_many({critical} +{} holes) REJECTED after transfer: {items} items, {nodes} nodes / {bytes} B wasted",
                holes.saturating_sub(1)
            ),
            TraceKind::SemanticRewrite { outcome, covered, total } => {
                write!(f, "semantic cache {outcome}: {covered}/{total} branches from views")
            }
        }
    }
}

#[derive(Debug)]
struct SinkCells {
    enabled: AtomicBool,
    seq: AtomicU64,
    span: AtomicU64,
    capacity: AtomicUsize,
    /// Overflow count as a bindable [`Counter`] so registries can export
    /// it (`mix_trace_dropped_total`) instead of overflow staying silent.
    dropped: Counter,
    ring: Mutex<VecDeque<TraceEvent>>,
}

impl Default for SinkCells {
    fn default() -> Self {
        SinkCells {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            span: AtomicU64::new(0),
            capacity: AtomicUsize::new(DEFAULT_TRACE_CAPACITY),
            dropped: Counter::new(),
            ring: Mutex::new(VecDeque::new()),
        }
    }
}

/// Shared, cloneable handle to one flight recorder.
///
/// Clones share the same ring, sequence counter, and span counter; hand
/// the *same* sink to the engine and every buffer so spans link up.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    inner: Arc<SinkCells>,
}

impl TraceSink {
    /// An enabled sink with an explicit ring capacity.
    pub fn enabled(capacity: usize) -> Self {
        let sink = TraceSink::default();
        sink.inner.capacity.store(capacity.max(1), Ordering::Relaxed);
        sink.inner.enabled.store(true, Ordering::Relaxed);
        sink
    }

    /// Is the recorder currently on? Call sites guard event construction
    /// behind this single atomic read.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off (the ring is kept either way).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Change the ring capacity (existing overflow is trimmed and counted
    /// as dropped).
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.inner.capacity.store(capacity, Ordering::Relaxed);
        let mut ring = lock_unpoisoned(&self.inner.ring);
        while ring.len() > capacity {
            ring.pop_front();
            self.inner.dropped.inc();
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity.load(Ordering::Relaxed)
    }

    /// Start a new span for a client command and record the command.
    /// Returns the new span id.
    pub fn begin_span(&self, cmd: &'static str) -> u64 {
        let span = self.inner.span.fetch_add(1, Ordering::Relaxed) + 1;
        self.emit(None, TraceKind::ClientCommand { cmd });
        span
    }

    /// The span id events are currently attributed to.
    pub fn current_span(&self) -> u64 {
        self.inner.span.load(Ordering::Relaxed)
    }

    /// Record one event (no-op when disabled — but prefer guarding the
    /// *construction* of `kind` behind [`TraceSink::is_enabled`] too).
    pub fn emit(&self, source: Option<&str>, kind: TraceKind) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        // Sequence allocation happens under the ring lock so that `seq`
        // order and ring order agree even when worker threads emit
        // concurrently with the client thread.
        let mut ring = lock_unpoisoned(&self.inner.ring);
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            seq,
            span: self.inner.span.load(Ordering::Relaxed),
            source: source.map(str::to_string),
            kind,
        };
        if ring.len() >= self.inner.capacity.load(Ordering::Relaxed) {
            ring.pop_front();
            self.inner.dropped.inc();
        }
        ring.push_back(event);
    }

    /// Copy out the recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.inner.ring).iter().cloned().collect()
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner.ring).len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.inner.ring).is_empty()
    }

    /// Events evicted because the ring was full. Exact-accounting checks
    /// require this to be 0.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// The overflow counter itself, sharing cells with this sink — bind
    /// it into a [`MetricsRegistry`] (conventionally as
    /// `mix_trace_dropped_total`) so ring overflow is scrapable.
    pub fn dropped_counter(&self) -> Counter {
        self.inner.dropped.clone()
    }

    /// Bind this sink's overflow counter into `registry` as
    /// `mix_trace_dropped_total` with the given labels.
    pub fn bind_into(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        registry.bind_counter(
            "mix_trace_dropped_total",
            "Trace events evicted because the flight-recorder ring was full",
            labels,
            &self.inner.dropped,
        );
    }

    /// Forget all recorded events (counters for seq/span keep running).
    pub fn clear(&self) {
        lock_unpoisoned(&self.inner.ring).clear();
        self.inner.dropped.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::default();
        assert!(!sink.is_enabled());
        sink.emit(None, TraceKind::BreakerClose);
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn events_inherit_the_current_span() {
        let sink = TraceSink::enabled(64);
        let s1 = sink.begin_span("d");
        sink.emit(Some("doc"), TraceKind::GetRoot { uri: "doc".into() });
        let s2 = sink.begin_span("r");
        sink.emit(
            Some("doc"),
            TraceKind::Fill { hole: "h1".into(), nodes: 1, bytes: 8, from_cache: false, waste_credit: 0 },
        );
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].span, s1);
        assert_eq!(events[1].span, s1);
        assert_eq!(events[2].span, s2);
        assert_eq!(events[3].span, s2);
        assert_eq!(events[1].source.as_deref(), Some("doc"));
        // Sequence numbers are a total order.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let sink = TraceSink::enabled(3);
        for _ in 0..5 {
            sink.emit(None, TraceKind::BreakerClose);
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let events = sink.events();
        assert_eq!(events[0].seq, 2, "oldest two were evicted");
    }

    #[test]
    fn clones_share_one_ring() {
        let sink = TraceSink::enabled(16);
        let view = sink.clone();
        sink.begin_span("f");
        assert_eq!(view.len(), 1);
        assert_eq!(view.current_span(), 1);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceKind::ClientCommand { cmd: "d" }.name(), "client-command");
        assert_eq!(
            TraceKind::Degradation { op: "fetch", error: "x".into() }.name(),
            "degradation"
        );
        assert_eq!(TraceKind::BreakerClose.name(), "breaker-close");
    }

    #[test]
    fn display_renders_one_line_per_event() {
        let sink = TraceSink::enabled(8);
        sink.begin_span("d");
        sink.emit(
            Some("db"),
            TraceKind::Degradation { op: "fetch", error: "gave up".into() },
        );
        let lines: Vec<String> = sink.events().iter().map(|e| e.to_string()).collect();
        assert!(lines[0].contains("client `d`"), "{lines:?}");
        assert!(lines[1].contains("[db] DEGRADED `fetch`: gave up"), "{lines:?}");
    }
}
