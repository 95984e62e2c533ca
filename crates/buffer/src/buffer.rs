//! The generic buffer component (paper §4, Figures 7–8).
//!
//! A [`BufferNavigator`] exposes the wrapper's view through plain DOM-VXD
//! navigation while maintaining an *open tree* internally. Navigation that
//! stays within explored territory is answered from the buffer; navigation
//! that hits a hole triggers `fill` requests until the requested node
//! materializes (the recursive `d(p)`/`chase_first` algorithm of Figure 8,
//! generalized to the most liberal LXP protocol where replies may contain
//! holes at arbitrary positions).
//!
//! Termination relies on the protocol's progress invariant: every fill
//! either removes a hole (empty reply) or contributes at least one real
//! node, and the open tree only refines towards the finite source tree.
//!
//! # Fault tolerance
//!
//! Every LXP request runs under a [`RetryPolicy`]: transient wrapper
//! errors (`LxpError::SourceError`) are retried with exponential simulated
//! backoff, and a per-source circuit breaker quarantines a persistently
//! failing source. Faults the retry layer cannot absorb do **not** panic:
//! the DOM-VXD navigation degrades gracefully (`down`/`right` answer
//! `None`, `fetch` answers the empty label) and the failure is recorded in
//! the buffer's [`SourceHealth`] handle, which clients, the engine, and
//! the profiler can query.

use crate::cache::FragmentCache;
use crate::fragment::{Fragment, HoleSlot, OpenTree, TreeEntry};
use crate::health::SourceHealth;
use crate::lxp::{check_batch_shape, check_progress, BatchItem, HoleId, LxpWrapper};
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, RetryMetrics};
use crate::pool::lock_unpoisoned;
use crate::retry::{RetryError, RetryPolicy, RetryState};
use crate::trace::{TraceKind, TraceSink};
use mix_nav::Navigator;
use mix_xml::Label;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub use crate::fragment::BufNodeId;

/// Shared counters describing buffer/wrapper traffic.
///
/// These are *always on* — they are the single source of truth behind
/// `Engine::traffic()` and the profiler — and since this PR they are
/// metric cells ([`Counter`]/[`Gauge`]), so [`BufferStats::bind_into`]
/// can register the very same storage in a [`MetricsRegistry`]: a
/// metrics snapshot, the engine's traffic surface, and the trace rollup
/// all read identical memory, by construction.
#[derive(Clone, Default, Debug)]
pub struct BufferStats {
    fills: Counter,
    get_roots: Counter,
    nodes_received: Counter,
    bytes_received: Counter,
    requests: Counter,
    batched_holes: Counter,
    /// A gauge, not a counter: consuming a parked batch reply *credits*
    /// its bytes back.
    wasted_bytes: Gauge,
}

/// A point-in-time copy of [`BufferStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStatsSnapshot {
    /// Per-hole fill replies consumed by the buffer: one per successful
    /// wire exchange, plus replies served from the pending batch cache or
    /// the shared fragment cache.
    pub fills: u64,
    /// `get_root` requests (0 or 1 per source).
    pub get_roots: u64,
    /// Non-hole fragment nodes received.
    pub nodes_received: u64,
    /// Approximate bytes received (see `Fragment::wire_bytes`).
    pub bytes_received: u64,
    /// Wire exchanges for fills (`fill` or `fill_many` calls), including
    /// ones whose reply the protocol checks rejected. The whole point of
    /// batching is pushing this far below `fills`.
    pub requests: u64,
    /// Per-hole replies received across wire exchanges (requested plus
    /// wrapper-pushed continuation items; one per exchange at batch
    /// limit 1).
    pub batched_holes: u64,
    /// Bytes received speculatively and not (or not yet) consumed:
    /// dropped protocol-violating continuation items plus batch-cache
    /// entries still waiting for a navigation to need them.
    pub wasted_bytes: u64,
}

impl BufferStatsSnapshot {
    /// Average holes answered per wire exchange (1.0 at batch limit 1).
    pub fn holes_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.batched_holes as f64 / self.requests as f64
        }
    }
}

impl BufferStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        BufferStats::default()
    }

    /// Read the current totals.
    pub fn snapshot(&self) -> BufferStatsSnapshot {
        BufferStatsSnapshot {
            fills: self.fills.get(),
            get_roots: self.get_roots.get(),
            nodes_received: self.nodes_received.get(),
            bytes_received: self.bytes_received.get(),
            requests: self.requests.get(),
            batched_holes: self.batched_holes.get(),
            wasted_bytes: self.wasted_bytes.get(),
        }
    }

    /// Register these counters' *cells* in `registry` under the canonical
    /// `mix_*` wire-traffic series, labelled with `source` — the
    /// deduplication point: after this, `snapshot()` and the registry
    /// read the same storage.
    pub fn bind_into(&self, registry: &MetricsRegistry, source: &str) {
        let l = &[("source", source)][..];
        for (name, help, cell) in [
            ("mix_fills_total", "Per-hole fill replies consumed by the buffer", &self.fills),
            ("mix_get_roots_total", "LXP get_root requests", &self.get_roots),
            ("mix_nodes_received_total", "Non-hole fragment nodes received", &self.nodes_received),
            ("mix_bytes_received_total", "Approximate wire bytes received", &self.bytes_received),
            (
                "mix_requests_total",
                "Wire exchanges for fills (fill or fill_many calls)",
                &self.requests,
            ),
            (
                "mix_batched_holes_total",
                "Per-hole replies received across wire exchanges",
                &self.batched_holes,
            ),
        ] {
            registry.bind_counter(name, help, l, cell);
        }
        registry.bind_gauge(
            "mix_wasted_bytes",
            "Speculative bytes not (or not yet) consumed by navigation",
            l,
            &self.wasted_bytes,
        );
    }
}

/// Gated (enabled-guarded) buffer metrics beyond the always-on traffic
/// counters: latency/size distributions, batch-cache effectiveness,
/// retries, and degradations. Recording costs one relaxed flag read when
/// the registry is off.
#[derive(Clone, Debug)]
pub(crate) struct BufMetrics {
    registry: MetricsRegistry,
    fill_latency_ns: Histogram,
    fill_bytes: Histogram,
    batch_cache_hits: Counter,
    batch_cache_misses: Counter,
    batch_cache_evictions: Counter,
    degradations: Counter,
    pub(crate) retry: RetryMetrics,
}

impl BufMetrics {
    fn new(registry: &MetricsRegistry, source: &str) -> Self {
        let l = &[("source", source)][..];
        BufMetrics {
            registry: registry.clone(),
            fill_latency_ns: registry.histogram(
                "mix_fill_latency_ns",
                "Wall-clock nanoseconds per wire fill exchange",
                l,
            ),
            fill_bytes: registry.histogram(
                "mix_fill_bytes",
                "Wire bytes per fill exchange",
                l,
            ),
            batch_cache_hits: registry.counter(
                "mix_batch_cache_hits_total",
                "Fills answered from the pending batch cache (no wire)",
                l,
            ),
            batch_cache_misses: registry.counter(
                "mix_batch_cache_misses_total",
                "Batched fills that had to go to the wire",
                l,
            ),
            batch_cache_evictions: registry.counter(
                "mix_batch_cache_evictions_total",
                "Pending batch replies evicted by the cap before any navigation needed them",
                l,
            ),
            degradations: registry.counter(
                "mix_degradations_total",
                "Navigations answered from the degradation fallback",
                l,
            ),
            retry: RetryMetrics::new(registry, source),
        }
    }

    #[inline]
    fn on(&self) -> bool {
        self.registry.is_enabled()
    }
}

/// Why a buffer operation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferError {
    /// An LXP request failed beyond what retries could absorb (permanent
    /// error, retries exhausted, or circuit open).
    Lxp {
        /// The request that failed, e.g. `fill(db.homes.3)`.
        request: String,
        /// What the retry layer concluded.
        error: RetryError,
    },
    /// The wrapper never produced the document's root element.
    RootUnavailable {
        /// The document URI.
        uri: String,
        /// What went wrong.
        reason: String,
    },
    /// A fill loop stopped making progress (fuel exhausted).
    Stalled {
        /// The navigation being answered.
        context: String,
    },
    /// The buffer arena outgrew its 32-bit id space.
    CapacityExceeded {
        /// Materialized nodes at the time of the failure.
        nodes: usize,
    },
    /// A navigation handle that cannot exist in the current buffer —
    /// usually a handle used after the connection failed.
    InvalidHandle {
        /// The offending handle's index.
        index: usize,
    },
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::Lxp { request, error } => write!(f, "{request}: {error}"),
            BufferError::RootUnavailable { uri, reason } => {
                write!(f, "no root element for `{uri}`: {reason}")
            }
            BufferError::Stalled { context } => {
                write!(f, "wrapper made no progress while {context}")
            }
            BufferError::CapacityExceeded { nodes } => {
                write!(f, "buffer capacity exceeded at {nodes} nodes")
            }
            BufferError::InvalidHandle { index } => {
                write!(f, "navigation handle #{index} is not materialized")
            }
        }
    }
}

impl std::error::Error for BufferError {}

/// The buffer component: a [`Navigator`] over the open tree fed by an LXP
/// wrapper.
///
/// # Errors
/// Navigation never panics on wrapper failure. Transient source errors
/// are retried per the buffer's [`RetryPolicy`]; anything beyond that
/// degrades the navigation (`None` / empty label) and is recorded in the
/// [`SourceHealth`] handle returned by [`BufferNavigator::health`].
pub struct BufferNavigator<W> {
    wrapper: W,
    uri: String,
    /// The open tree: arena-allocated nodes, pooled child lists, and a
    /// hole slab whose live records double as the document-order hole
    /// index (so batched fills enumerate holes without walking the tree).
    tree: OpenTree,
    /// Scratch buffers reused across splices so the steady-state fill
    /// path performs no per-splice vector allocations.
    entry_scratch: Vec<TreeEntry>,
    hole_scratch: Vec<HoleSlot>,
    /// The critical hole's id, copied out while the open tree it lives in
    /// is being changed. One string for the navigator's lifetime,
    /// overwritten in place: asking for a fill allocates nothing.
    critical_scratch: HoleId,
    connected: bool,
    stats: BufferStats,
    policy: RetryPolicy,
    retry: RetryState,
    health: SourceHealth,
    /// Holes per wire exchange. At 1 every exchange is a plain `fill`:
    /// the classic one-hole-per-round-trip protocol, byte for byte.
    batch_limit: usize,
    /// Replies received in a batch before any navigation needed them,
    /// keyed by hole id. Consumed instead of going back to the wire.
    /// `Arc`-backed: the same allocation is shared with the cross-query
    /// cache, so parking and consuming a reply never copies fragments.
    /// Bounded by `pending_cap`; see `pending_order`.
    pending: std::collections::HashMap<HoleId, Arc<Vec<Fragment>>>,
    /// Insertion order of `pending` entries, for capped FIFO eviction.
    /// May contain stale ids of entries already consumed; eviction skips
    /// them lazily.
    pending_order: VecDeque<HoleId>,
    /// Upper bound on parked `pending` entries. Fragments parked for
    /// holes the client never navigates to would otherwise accumulate
    /// for the life of the navigator.
    pending_cap: usize,
    /// Always-on count of pending entries evicted by the cap.
    pending_evictions: Counter,
    /// The shared cross-query fragment cache, if one was attached
    /// ([`BufferNavigator::with_fragment_cache`]). Checked before the
    /// wire on every fill; populated with every verified reply.
    cache: Option<FragmentCache>,
    /// Flight recorder for this conversation (off by default).
    trace: TraceSink,
    /// Live metrics for this conversation. Backed by a default-constructed
    /// (off) registry until [`BufferNavigator::with_metrics`] hands in a
    /// shared one.
    metrics: BufMetrics,
    /// Monotone count of degraded navigations — the epoch a caller
    /// compares around a navigation to tell a degraded fallback from a
    /// legitimate answer.
    degraded_epoch: AtomicU64,
    /// The error behind the most recent degradation.
    last_degraded: Mutex<Option<String>>,
    /// Upper bound on fills per single navigation command (`FILL_FUEL`
    /// unless overridden for tests).
    fill_fuel: u32,
}

impl<W: LxpWrapper> BufferNavigator<W> {
    /// Create a buffer over `wrapper`, exporting the document at `uri`,
    /// with the default retry policy. No wrapper traffic happens until
    /// the first navigation.
    pub fn new(wrapper: W, uri: impl Into<String>) -> Self {
        BufferNavigator::with_retry(wrapper, uri, RetryPolicy::default())
    }

    /// Create a buffer with an explicit retry/backoff/breaker policy.
    pub fn with_retry(wrapper: W, uri: impl Into<String>, policy: RetryPolicy) -> Self {
        let uri: String = uri.into();
        let registry = MetricsRegistry::default();
        let stats = BufferStats::new();
        stats.bind_into(&registry, &uri);
        BufferNavigator {
            wrapper,
            metrics: BufMetrics::new(&registry, &uri),
            uri,
            tree: OpenTree::new(),
            entry_scratch: Vec::new(),
            hole_scratch: Vec::new(),
            critical_scratch: HoleId::new(),
            connected: false,
            stats,
            policy,
            retry: RetryState::new(),
            health: SourceHealth::new(),
            batch_limit: 1,
            pending: std::collections::HashMap::new(),
            pending_order: VecDeque::new(),
            pending_cap: DEFAULT_PENDING_CAP,
            pending_evictions: Counter::new(),
            cache: None,
            trace: TraceSink::default(),
            degraded_epoch: AtomicU64::new(0),
            last_degraded: Mutex::new(None),
            fill_fuel: FILL_FUEL,
        }
    }

    /// Attach a flight recorder. An engine this buffer is registered
    /// with adopts the sink, so buffer events inherit the span of the
    /// client command that caused them.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Attach a shared metrics registry. The buffer's always-on traffic
    /// counters are (re)bound into it under `mix_*` series labelled with
    /// this buffer's uri, and the gated series (fill latency/size
    /// histograms, batch-cache hits/misses, retries, degradations) start
    /// recording whenever the registry is enabled. An engine this buffer
    /// is registered with adopts the registry, so one snapshot covers the
    /// whole mediator stack.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.stats.bind_into(&registry, &self.uri);
        self.metrics = BufMetrics::new(&registry, &self.uri);
        if let Some(cache) = &self.cache {
            cache.bind_into(&registry);
        }
        self
    }

    /// A handle to the metrics registry this buffer records into.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.metrics.registry.clone()
    }

    /// Record fault/retry health into `handle` instead of a private cell.
    /// Hand the same handle to every session navigator over one physical
    /// source and the pool-level health aggregates across sessions — how
    /// the serve layer's `/healthz` sees one row per source, not one per
    /// session.
    pub fn with_health(mut self, handle: SourceHealth) -> Self {
        self.health = handle;
        self
    }

    /// Override the per-navigation fill budget (default [`FILL_FUEL`]).
    /// Tests use a tiny budget to assert that a wrapper which keeps the
    /// buffer busy without progress fails loudly instead of hanging.
    pub fn with_fill_fuel(mut self, fuel: u32) -> Self {
        self.fill_fuel = fuel.max(1);
        self
    }

    /// Switch on batched fills: each wire exchange carries the critical
    /// hole plus up to `batch_limit - 1` other currently-known holes of
    /// the open tree, answered in one `fill_many`. Replies for holes the
    /// navigation has not reached yet wait in a pending cache; the open
    /// tree itself evolves exactly as under one-hole fills. A limit of 0
    /// or 1 disables batching.
    pub fn batched(mut self, batch_limit: usize) -> Self {
        self.batch_limit = batch_limit.max(1);
        self
    }

    /// Attach a shared cross-query [`FragmentCache`]. Every fill checks
    /// it before going to the wire (after the navigator's own pending
    /// batch cache) and every verified reply — single fills, `get_root`,
    /// and all `fill_many` items — populates it, so a second navigator
    /// over the same source replays the exploration with zero wire
    /// exchanges. Opt-in, like [`BufferNavigator::batched`]; hand the
    /// same cache to every buffer that should share fragments.
    pub fn with_fragment_cache(mut self, cache: FragmentCache) -> Self {
        cache.bind_into(&self.metrics.registry);
        self.cache = Some(cache);
        self
    }

    /// The shared fragment cache, if one is attached.
    pub fn fragment_cache(&self) -> Option<FragmentCache> {
        self.cache.clone()
    }

    /// Cap the pending batch cache at `cap` parked replies (default
    /// [`DEFAULT_PENDING_CAP`]); the oldest parked reply is evicted
    /// first. Their bytes were already counted as waste when parked, so
    /// eviction changes no traffic arithmetic.
    pub fn pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap.max(1);
        self
    }

    /// Batch-cache entries received but not yet consumed by navigation.
    pub fn pending_replies(&self) -> usize {
        self.pending.len()
    }

    /// Parked batch replies evicted by the pending cap so far.
    pub fn pending_evictions(&self) -> u64 {
        self.pending_evictions.get()
    }

    /// A shared handle to this buffer's traffic counters.
    pub fn stats(&self) -> BufferStats {
        self.stats.clone()
    }

    /// A shared handle to this buffer's fault/retry health.
    pub fn health(&self) -> SourceHealth {
        self.health.clone()
    }

    /// A shared handle to this buffer's flight recorder.
    pub fn trace_sink(&self) -> TraceSink {
        self.trace.clone()
    }

    /// Monotone count of navigations answered from the degradation
    /// fallback (`None` / empty label). Compare around a navigation: an
    /// unchanged epoch proves the answer was real; a bumped epoch means
    /// it (or an interleaved navigation) degraded.
    pub fn degraded_epoch(&self) -> u64 {
        self.degraded_epoch.load(Ordering::Relaxed)
    }

    /// The error behind the most recent degraded navigation, if any.
    pub fn last_degraded(&self) -> Option<String> {
        lock_unpoisoned(&self.last_degraded).clone()
    }

    /// Forgive the source: zero the health counters, forget the failure
    /// streak, and close the circuit breaker so the next navigation talks
    /// to the wrapper again. Records a [`TraceKind::BreakerClose`] event
    /// when the breaker was actually open.
    pub fn reset_faults(&mut self) {
        let was_open = self.retry.is_open();
        self.retry.reset();
        self.health.reset();
        *lock_unpoisoned(&self.last_degraded) = None;
        if was_open && self.trace.is_enabled() {
            self.trace.emit(Some(self.uri.as_str()), TraceKind::BreakerClose);
        }
    }

    /// Tear down the buffer and recover the wrapper (for reading
    /// wrapper-side statistics after an experiment).
    pub fn into_wrapper(self) -> W {
        self.wrapper
    }

    /// The number of materialized nodes currently buffered.
    pub fn buffered_nodes(&self) -> usize {
        self.tree.node_count()
    }

    /// Render the current open tree in the paper's `r[a,◦2]` notation
    /// (diagnostics and tests).
    pub fn open_tree(&self) -> Option<Fragment> {
        if !self.connected {
            return None;
        }
        Some(self.tree.fragment_of(BufNodeId::ROOT))
    }

    /// Serve `hole` from the shared cross-query cache, if one is
    /// attached and holds a fresh entry. A hit costs zero wire
    /// exchanges — and zero fragment copies: the returned `Arc` shares
    /// the cached allocation. Only `fills` advances (no requests, nodes,
    /// or bytes).
    fn cache_lookup(&mut self, hole: &HoleId) -> Option<Arc<Vec<Fragment>>> {
        let cache = self.cache.as_ref()?;
        let reply = cache.lookup(&self.uri, hole)?;
        self.stats.fills.inc();
        if self.trace.is_enabled() {
            let (nodes, bytes) = volume(&reply);
            self.trace.emit(
                Some(self.uri.as_str()),
                TraceKind::CacheHit { hole: hole.clone(), nodes, bytes },
            );
        }
        Some(reply)
    }

    /// Admit a verified reply into the shared cache (if attached),
    /// tracing the admission and any LRU evictions it caused. The cache
    /// stores a clone of the `Arc`, not of the fragments. Only replies
    /// that already passed the progress checks reach this point, so
    /// faults can never be cached.
    fn cache_store(&self, hole: &HoleId, reply: &Arc<Vec<Fragment>>) {
        let Some(cache) = &self.cache else { return };
        let evicted = cache.insert(&self.uri, hole, reply);
        if self.trace.is_enabled() {
            self.trace.emit(
                Some(self.uri.as_str()),
                TraceKind::CacheStore { hole: hole.clone(), bytes: wire_bytes(reply) },
            );
            for (src, h, b) in evicted {
                self.trace.emit(
                    Some(src.as_str()),
                    TraceKind::CacheEvict { scope: "shared", hole: h, bytes: b },
                );
            }
        }
    }

    /// Resolve one hole: from the pending batch cache if a prior exchange
    /// already answered it, else from the shared cross-query cache, else
    /// through one wire exchange under the retry policy. The exchange is a
    /// `fill_many` carrying `hole` plus other currently-known holes of the
    /// open tree — or, at batch limit 1, a plain `fill` (a wrapper's
    /// native `fill_many` chases continuations, so a one-hole batch is not
    /// the same exchange). Only `hole`'s reply is returned for splicing;
    /// the rest is parked. Progress is checked inside the retried
    /// operation, so a protocol-violating reply surfaces as a permanent
    /// error (and counts against the breaker) instead of being buffered.
    fn try_fill(&mut self, hole: &HoleId) -> Result<Arc<Vec<Fragment>>, BufferError> {
        if let Some(reply) = self.pending.remove(hole) {
            self.stats.fills.inc();
            if self.metrics.on() {
                self.metrics.batch_cache_hits.inc();
            }
            // The bytes are no longer speculative waste: a navigation
            // actually needed them.
            let bytes = wire_bytes(&reply);
            let credited = self.stats.wasted_bytes.sub_saturating(bytes);
            if self.trace.is_enabled() {
                self.trace.emit(
                    Some(self.uri.as_str()),
                    TraceKind::Fill {
                        hole: hole.clone(),
                        nodes: node_count(&reply),
                        bytes,
                        from_cache: true,
                        // The delta actually applied, so trace rollups
                        // reproduce `wasted_bytes` exactly even at the
                        // saturation floor.
                        waste_credit: credited,
                    },
                );
            }
            return Ok(reply);
        }
        if let Some(reply) = self.cache_lookup(hole) {
            return Ok(reply);
        }
        let timer = self.metrics.on().then(Instant::now);
        let batch = self.known_holes(hole);
        let wrapper = &mut self.wrapper;
        // A reply the wrapper transferred but the protocol checks then
        // rejected, as `(items, nodes, bytes)`: the wire cost is real and
        // must not vanish from the books just because nothing was
        // consumed.
        let mut rejected = None;
        let result = self.retry.run_observed(
            &self.policy,
            &self.health,
            &self.trace,
            Some(&self.metrics.retry),
            Some(self.uri.as_str()),
            hole,
            || {
                let (critical, rest) = if batch.is_empty() {
                    (wrapper.fill(hole)?, Vec::new())
                } else {
                    let mut items = wrapper.fill_many(&batch)?;
                    if let Err(e) = check_batch_shape(&batch, &items) {
                        rejected = Some(exchange_volume(None, &items));
                        return Err(e);
                    }
                    (items.remove(0).fragments, items)
                };
                // The critical hole's reply is held to the progress
                // invariant strictly; continuation items are vetted (and
                // merely dropped) below.
                if let Err(e) = check_progress(&critical) {
                    rejected = Some(exchange_volume(Some(&critical), &rest));
                    return Err(e);
                }
                Ok((critical, rest))
            },
        );
        let (critical, rest) = match result {
            Ok(reply) => reply,
            Err(error) => {
                if let Some((items, nodes, bytes)) = rejected {
                    // Attribute the request and its volume, all of it
                    // wasted for good.
                    self.stats.requests.inc();
                    self.stats.batched_holes.add(items);
                    self.stats.nodes_received.add(nodes);
                    self.stats.bytes_received.add(bytes);
                    self.stats.wasted_bytes.add(bytes);
                    if self.trace.is_enabled() {
                        self.trace.emit(
                            Some(self.uri.as_str()),
                            TraceKind::FillManyFailed {
                                critical: hole.clone(),
                                holes: batch.len().max(1) as u64,
                                items,
                                nodes,
                                bytes,
                                wasted: bytes,
                            },
                        );
                    }
                }
                let request = if batch.is_empty() {
                    format!("fill({hole})")
                } else {
                    format!("fill_many({hole} +{} holes)", batch.len() - 1)
                };
                return Err(BufferError::Lxp { request, error });
            }
        };
        let items = 1 + rest.len() as u64;
        let (mut nodes, mut bytes) = volume(&critical);
        let critical = Arc::new(critical);
        self.cache_store(hole, &critical);
        // Continuation items count as waste until a navigation consumes
        // them (consumption credits the bytes back).
        let mut wasted = 0u64;
        for item in rest {
            let (item_nodes, item_bytes) = volume(&item.fragments);
            nodes += item_nodes;
            bytes += item_bytes;
            wasted += item_bytes;
            // A violating or duplicate speculative reply is dropped — the
            // client's own fill will face it on the critical path — and
            // its bytes stay waste for good. Verified ones are parked,
            // and shared cross-query too: one allocation, two `Arc`
            // handles.
            if check_progress(&item.fragments).is_ok()
                && item.hole != *hole
                && !self.pending.contains_key(&item.hole)
            {
                let fragments = Arc::new(item.fragments);
                self.cache_store(&item.hole, &fragments);
                self.pending_order.push_back(item.hole.clone());
                self.pending.insert(item.hole, fragments);
            }
        }
        self.stats.requests.inc();
        self.stats.fills.inc();
        self.stats.batched_holes.add(items);
        self.stats.nodes_received.add(nodes);
        self.stats.bytes_received.add(bytes);
        self.stats.wasted_bytes.add(wasted);
        self.enforce_pending_cap();
        if let Some(t) = timer {
            self.metrics.batch_cache_misses.inc();
            self.metrics.fill_latency_ns.observe(t.elapsed().as_nanos() as u64);
            self.metrics.fill_bytes.observe(bytes);
        }
        if self.trace.is_enabled() {
            let kind = if batch.is_empty() {
                TraceKind::Fill {
                    hole: hole.clone(),
                    nodes,
                    bytes,
                    from_cache: false,
                    waste_credit: 0,
                }
            } else {
                TraceKind::FillMany {
                    critical: hole.clone(),
                    holes: batch.len() as u64,
                    items,
                    nodes,
                    bytes,
                    wasted,
                }
            };
            self.trace.emit(Some(self.uri.as_str()), kind);
        }
        Ok(critical)
    }

    /// Evict the oldest parked replies until the pending batch cache
    /// respects its cap. Evicted bytes were counted as waste when parked
    /// and stay waste — no traffic arithmetic changes, so trace rollups
    /// remain exact.
    fn enforce_pending_cap(&mut self) {
        while self.pending.len() > self.pending_cap {
            let Some(old) = self.pending_order.pop_front() else { break };
            if let Some(frags) = self.pending.remove(&old) {
                self.pending_evictions.inc();
                if self.metrics.on() {
                    self.metrics.batch_cache_evictions.inc();
                }
                if self.trace.is_enabled() {
                    self.trace.emit(
                        Some(self.uri.as_str()),
                        TraceKind::CacheEvict {
                            scope: "pending",
                            hole: old,
                            bytes: wire_bytes(&frags),
                        },
                    );
                }
            }
        }
        // Compact stale order ids (entries already consumed by cache
        // hits) once they dominate, so the order index stays bounded too.
        if self.pending_order.len() > 2 * self.pending.len().max(self.pending_cap) {
            let pending = &self.pending;
            let order = &mut self.pending_order;
            order.retain(|h| pending.contains_key(h));
        }
    }

    /// The `fill_many` batch for a critical hole: the hole itself first,
    /// then other holes of the open tree in document order (the order a
    /// scanning client will want them), capped by the batch limit and
    /// excluding holes already answered in the pending cache. Empty at
    /// batch limit 1, where the exchange is a plain `fill`.
    ///
    /// The arena maintains the holes as a document-order linked list, so
    /// the enumeration is O(batch limit), not a walk of the open tree.
    fn known_holes(&self, critical: &HoleId) -> Vec<HoleId> {
        if self.batch_limit <= 1 {
            return Vec::new();
        }
        // Sized once: the critical hole plus, at most, every other live one.
        let mut batch = Vec::with_capacity(self.batch_limit.min(1 + self.tree.live_holes()));
        batch.push(critical.clone());
        if self.connected {
            for h in self.tree.holes_in_order() {
                if batch.len() >= self.batch_limit {
                    break;
                }
                if h != critical && !self.pending.contains_key(h) {
                    batch.push(h.clone());
                }
            }
        }
        batch
    }

    /// Establish the connection if necessary: `get_root`, then chase
    /// fills until the single root element appears. Holes around it
    /// necessarily represent zero elements (a document has one root) and
    /// are dropped. Failure leaves the buffer unconnected; a later
    /// navigation attempts the connection again (unless the breaker is
    /// open).
    fn try_ensure_connected(&mut self) -> Result<(), BufferError> {
        if self.connected {
            return Ok(());
        }
        let uri = self.uri.clone();
        // A warm session skips the `get_root` exchange too: the root
        // hole id is cached (epoch-guarded) alongside the fragments.
        let cached_root = self.cache.as_ref().and_then(|c| c.lookup_root(&uri));
        let mut hole = if let Some(h) = cached_root {
            h
        } else {
            self.stats.get_roots.inc();
            if self.trace.is_enabled() {
                self.trace.emit(Some(&uri), TraceKind::GetRoot { uri: uri.clone() });
            }
            let wrapper = &mut self.wrapper;
            let h = self
                .retry
                .run_observed(
                    &self.policy,
                    &self.health,
                    &self.trace,
                    Some(&self.metrics.retry),
                    Some(&uri),
                    &uri,
                    || wrapper.get_root(&uri),
                )
                .map_err(|error| BufferError::Lxp { request: format!("get_root({uri})"), error })?;
            if let Some(cache) = &self.cache {
                cache.insert_root(&uri, &h);
            }
            h
        };
        let mut fuel = self.fill_fuel;
        let root_frag = loop {
            let reply = self.try_fill(&hole)?;
            if reply.iter().any(|f| !f.is_hole()) {
                break reply;
            }
            match reply.first() {
                Some(Fragment::Hole(h)) => hole = h.clone(),
                _ => {
                    return Err(BufferError::RootUnavailable {
                        uri,
                        reason: "fill chain reached a dead end".into(),
                    })
                }
            }
            fuel -= 1;
            if fuel == 0 {
                return Err(BufferError::RootUnavailable {
                    uri,
                    reason: format!("no root element after {} fills", self.fill_fuel),
                });
            }
        };
        let node = root_frag.iter().find(|f| !f.is_hole()).expect("loop broke on a node");
        let Fragment::Node { label, children } = node else {
            return Err(BufferError::RootUnavailable {
                uri,
                reason: "wrapper produced a hole where the root was expected".into(),
            });
        };
        let mut new_holes = std::mem::take(&mut self.hole_scratch);
        new_holes.clear();
        let root = self.try_intern(label, children, None, 0, &mut new_holes)?;
        // The first holes of the session seed the document-order list.
        self.tree.relink_holes(None, &new_holes);
        self.hole_scratch = new_holes;
        debug_assert_eq!(root, BufNodeId::ROOT);
        self.connected = true;
        Ok(())
    }

    /// Materialize an element into the arena; returns the node id. Hole
    /// children get live slab slots, appended to `new_holes` in document
    /// order — the caller links them into the hole list in one go.
    fn try_intern(
        &mut self,
        label: &Label,
        children: &[Fragment],
        parent: Option<BufNodeId>,
        idx: usize,
        new_holes: &mut Vec<HoleSlot>,
    ) -> Result<BufNodeId, BufferError> {
        let Some(id) = self.tree.alloc_node(label.clone(), parent, idx) else {
            return Err(BufferError::CapacityExceeded { nodes: self.tree.node_count() });
        };
        if !self.tree.reserve_children(id, children.len()) {
            return Err(BufferError::CapacityExceeded { nodes: self.tree.node_count() });
        }
        for (i, c) in children.iter().enumerate() {
            let e = self.try_entry(c, id, i, new_holes)?;
            self.tree.set_child(id, i, e);
        }
        Ok(id)
    }

    /// The child entry for fragment `f` at position `idx` of `parent`: a
    /// live hole slot, or the interned subtree.
    fn try_entry(
        &mut self,
        f: &Fragment,
        parent: BufNodeId,
        idx: usize,
        new_holes: &mut Vec<HoleSlot>,
    ) -> Result<TreeEntry, BufferError> {
        Ok(match f {
            Fragment::Hole(h) => {
                let slot = self.tree.new_hole(h.clone());
                new_holes.push(slot);
                TreeEntry::Hole(slot)
            }
            Fragment::Node { label, children } => {
                TreeEntry::Node(self.try_intern(label, children, Some(parent), idx, new_holes)?)
            }
        })
    }

    /// Replace the hole at child position `i` of `parent` (slab slot
    /// `slot`) with the interned reply: one in-place child-list splice,
    /// one hole-list relink. Reuses the navigator's scratch buffers, so
    /// the steady-state path allocates only the new node records.
    fn try_splice(
        &mut self,
        parent: BufNodeId,
        i: usize,
        slot: HoleSlot,
        reply: &[Fragment],
    ) -> Result<(), BufferError> {
        let mut entries = std::mem::take(&mut self.entry_scratch);
        let mut new_holes = std::mem::take(&mut self.hole_scratch);
        entries.clear();
        new_holes.clear();
        for (k, f) in reply.iter().enumerate() {
            entries.push(self.try_entry(f, parent, i + k, &mut new_holes)?);
        }
        if !self.tree.splice_children(parent, i, &entries) {
            return Err(BufferError::CapacityExceeded { nodes: self.tree.node_count() });
        }
        // The reply's holes take over exactly the interval the old hole
        // occupied in document order.
        self.tree.relink_holes(Some(slot), &new_holes);
        self.entry_scratch = entries;
        self.hole_scratch = new_holes;
        Ok(())
    }

    /// First materialized node at or after child position `start` of
    /// `parent`, filling holes as they are encountered (Fig. 8's
    /// `chase_first`, generalized).
    fn try_resolve_from(
        &mut self,
        parent: BufNodeId,
        start: usize,
    ) -> Result<Option<BufNodeId>, BufferError> {
        let i = start;
        let mut fuel = self.fill_fuel;
        loop {
            let Some(entry) = self.tree.child(parent, i) else {
                return Ok(None);
            };
            match entry {
                TreeEntry::Node(id) => return Ok(Some(id)),
                TreeEntry::Hole(slot) => {
                    let mut hole = std::mem::take(&mut self.critical_scratch);
                    hole.clone_from(self.tree.hole_id(slot));
                    let reply = self.try_fill(&hole);
                    self.critical_scratch = hole;
                    self.try_splice(parent, i, slot, &reply?)?;
                    // Re-examine position i: it now holds the first reply
                    // fragment, the next original sibling (empty reply), or
                    // nothing (list exhausted).
                }
            }
            fuel -= 1;
            if fuel == 0 {
                return Err(BufferError::Stalled {
                    context: format!("resolving children of node #{}", parent.index()),
                });
            }
        }
    }

    fn check_handle(&self, p: BufNodeId) -> Result<(), BufferError> {
        if self.tree.contains(p) {
            Ok(())
        } else {
            Err(BufferError::InvalidHandle { index: p.index() })
        }
    }

    // ---- fallible navigation (the degradation-free API) ----------------

    /// `down`, reporting failure instead of degrading.
    pub fn try_down(&mut self, p: &BufNodeId) -> Result<Option<BufNodeId>, BufferError> {
        self.try_ensure_connected()?;
        self.check_handle(*p)?;
        self.try_resolve_from(*p, 0)
    }

    /// `right`, reporting failure instead of degrading.
    pub fn try_right(&mut self, p: &BufNodeId) -> Result<Option<BufNodeId>, BufferError> {
        self.try_ensure_connected()?;
        self.check_handle(*p)?;
        let Some(parent) = self.tree.parent(*p) else { return Ok(None) };
        let idx = self.tree.idx(*p);
        self.try_resolve_from(parent, idx + 1)
    }

    /// `fetch`, reporting failure instead of degrading.
    pub fn try_fetch(&mut self, p: &BufNodeId) -> Result<Label, BufferError> {
        self.try_ensure_connected()?;
        self.check_handle(*p)?;
        Ok(self.tree.label(*p).clone())
    }

    /// A navigation over this source failed beyond what retries could
    /// absorb (or the breaker is open): parked batch replies and the
    /// source's shared-cache entries can no longer be trusted and must
    /// not be served. Pending bytes were counted as waste at park time
    /// and stay waste, so traffic arithmetic is unchanged.
    fn purge_on_degrade(&mut self) {
        if !self.pending.is_empty() {
            let entries = self.pending.len() as u64;
            let bytes: u64 = self.pending.values().map(|r| wire_bytes(r)).sum();
            self.pending.clear();
            self.pending_order.clear();
            if self.trace.is_enabled() {
                self.trace.emit(
                    Some(self.uri.as_str()),
                    TraceKind::CacheInvalidate { scope: "pending", entries, bytes },
                );
            }
        }
        if let Some(cache) = self.cache.clone() {
            let (entries, bytes) = cache.invalidate(&self.uri);
            if entries > 0 && self.trace.is_enabled() {
                self.trace.emit(
                    Some(self.uri.as_str()),
                    TraceKind::CacheInvalidate { scope: "shared", entries, bytes },
                );
            }
        }
    }

    /// Collapse a failed navigation to its fallback value, recording the
    /// degradation in health, the degraded epoch/last-error surface, and
    /// the flight recorder — the point where a wrong answer would
    /// otherwise become silent.
    fn degrade<T>(&mut self, op: &'static str, result: Result<T, BufferError>, fallback: T) -> T {
        match result {
            Ok(v) => v,
            Err(e) => {
                self.purge_on_degrade();
                self.health.record_degraded(&e);
                self.degraded_epoch.fetch_add(1, Ordering::Relaxed);
                *lock_unpoisoned(&self.last_degraded) = Some(e.to_string());
                if self.metrics.on() {
                    self.metrics.degradations.inc();
                }
                if self.trace.is_enabled() {
                    self.trace.emit(
                        Some(self.uri.as_str()),
                        TraceKind::Degradation { op, error: e.to_string() },
                    );
                }
                fallback
            }
        }
    }
}

/// Wire bytes of a fragment list.
fn wire_bytes(fragments: &[Fragment]) -> u64 {
    fragments.iter().map(|f| f.wire_bytes() as u64).sum()
}

/// Non-hole nodes of a fragment list.
fn node_count(fragments: &[Fragment]) -> u64 {
    fragments.iter().map(|f| f.node_count() as u64).sum()
}

/// `(non-hole nodes, wire bytes)` of a fragment list.
fn volume(fragments: &[Fragment]) -> (u64, u64) {
    (node_count(fragments), wire_bytes(fragments))
}

/// `(per-hole replies, non-hole nodes, wire bytes)` of a whole exchange:
/// the critical reply, if it was told apart from the rest, plus the
/// remaining items.
fn exchange_volume(critical: Option<&[Fragment]>, rest: &[BatchItem]) -> (u64, u64, u64) {
    let (mut nodes, mut bytes) = critical.map_or((0, 0), volume);
    for item in rest {
        let (n, b) = volume(&item.fragments);
        nodes += n;
        bytes += b;
    }
    (rest.len() as u64 + u64::from(critical.is_some()), nodes, bytes)
}

/// Default upper bound on fills per single navigation command — generous
/// (a fill may legitimately reveal just one node) but finite, so a
/// non-conforming wrapper fails loudly instead of hanging. Override per
/// buffer with [`BufferNavigator::with_fill_fuel`].
pub const FILL_FUEL: u32 = 1_000_000;

/// Default cap on parked pending batch replies — generous for real
/// workloads (a batch parks at most `batch_limit - 1` replies per
/// exchange) but finite, so fragments parked for holes the client never
/// navigates to cannot accumulate for the life of the navigator.
/// Override per buffer with [`BufferNavigator::pending_cap`].
pub const DEFAULT_PENDING_CAP: usize = 1024;

impl<W: LxpWrapper> Navigator for BufferNavigator<W> {
    type Handle = BufNodeId;

    fn root(&mut self) -> BufNodeId {
        // Handing out the root handle costs no wrapper traffic (§1); the
        // connection happens at the first real navigation.
        BufNodeId::ROOT
    }

    fn down(&mut self, p: &BufNodeId) -> Option<BufNodeId> {
        let r = self.try_down(p);
        self.degrade("down", r, None)
    }

    fn right(&mut self, p: &BufNodeId) -> Option<BufNodeId> {
        let r = self.try_right(p);
        self.degrade("right", r, None)
    }

    fn fetch(&mut self, p: &BufNodeId) -> Label {
        let r = self.try_fetch(p);
        self.degrade("fetch", r, Label::new(""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultyWrapper};
    use crate::health::HealthStatus;
    use crate::lxp::LxpError;
    use crate::treewrap::{FillPolicy, TreeWrapper};
    use mix_nav::explore::materialize;
    use mix_xml::term::parse_term;
    use std::collections::VecDeque;

    fn buffered(term: &str, policy: FillPolicy) -> BufferNavigator<TreeWrapper> {
        let tree = parse_term(term).unwrap();
        BufferNavigator::new(TreeWrapper::single(&tree, policy), "doc")
    }

    /// A wire that is down: every request fails.
    struct Dead;
    impl LxpWrapper for Dead {
        fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
            Err(LxpError::SourceError("unplugged".into()))
        }
        fn fill(&mut self, _hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
            Err(LxpError::SourceError("unplugged".into()))
        }
    }

    /// A wrapper whose first `failures_left` `get_root` calls fail.
    struct FlakyRoot {
        failures_left: u32,
        inner: TreeWrapper,
    }
    impl LxpWrapper for FlakyRoot {
        fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
            if self.failures_left > 0 {
                self.failures_left -= 1;
                Err(LxpError::SourceError("warming up".into()))
            } else {
                self.inner.get_root(uri)
            }
        }
        fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
            self.inner.fill(hole)
        }
    }

    /// Wire totals replayed from a trace — the arithmetic `mix-core`'s
    /// `TraceLog::rollup` applies — in [`BufferStatsSnapshot`] terms.
    fn rollup(sink: &TraceSink) -> BufferStatsSnapshot {
        let mut r = BufferStatsSnapshot::default();
        let mut credited = 0;
        for e in sink.events() {
            match e.kind {
                TraceKind::Fill { waste_credit, from_cache: true, .. } => {
                    r.fills += 1;
                    credited += waste_credit;
                }
                TraceKind::Fill { nodes, bytes, .. } => {
                    r.fills += 1;
                    r.requests += 1;
                    r.batched_holes += 1;
                    r.nodes_received += nodes;
                    r.bytes_received += bytes;
                }
                TraceKind::FillMany { items, nodes, bytes, wasted, .. } => {
                    r.fills += 1;
                    r.requests += 1;
                    r.batched_holes += items;
                    r.nodes_received += nodes;
                    r.bytes_received += bytes;
                    r.wasted_bytes += wasted;
                }
                TraceKind::FillManyFailed { items, nodes, bytes, wasted, .. } => {
                    r.requests += 1;
                    r.batched_holes += items;
                    r.nodes_received += nodes;
                    r.bytes_received += bytes;
                    r.wasted_bytes += wasted;
                }
                TraceKind::GetRoot { .. } => r.get_roots += 1,
                _ => {}
            }
        }
        r.wasted_bytes -= credited;
        r
    }

    #[test]
    fn materializes_identically_under_every_policy() {
        let term = "view[tuple[a[1],b[2]],tuple[a[3],b[4]],tuple[a[5],b[6]]]";
        for policy in [
            FillPolicy::NodeAtATime,
            FillPolicy::Chunked { n: 2 },
            FillPolicy::WholeSubtree,
            FillPolicy::SizeThreshold { max_nodes: 3 },
        ] {
            let mut nav = buffered(term, policy);
            assert_eq!(materialize(&mut nav).to_string(), term, "{policy:?}");
        }
    }

    #[test]
    fn root_handle_costs_no_traffic() {
        let mut nav = buffered("a[b]", FillPolicy::NodeAtATime);
        let stats = nav.stats();
        let _root = nav.root();
        assert_eq!(stats.snapshot().fills, 0);
        assert_eq!(stats.snapshot().get_roots, 0);
    }

    #[test]
    fn coarser_policies_need_fewer_fills() {
        let term = "r[a[x,y],b[x,y],c[x,y],d[x,y],e[x,y],f[x,y],g[x,y],h[x,y]]";
        let mut fills = Vec::new();
        for policy in [
            FillPolicy::NodeAtATime,
            FillPolicy::Chunked { n: 4 },
            FillPolicy::WholeSubtree,
        ] {
            let mut nav = buffered(term, policy);
            let stats = nav.stats();
            materialize(&mut nav);
            fills.push(stats.snapshot().fills);
        }
        assert!(fills[0] > fills[1], "node-at-a-time {} > chunked {}", fills[0], fills[1]);
        assert!(fills[1] > fills[2], "chunked {} > whole-subtree {}", fills[1], fills[2]);
        assert_eq!(fills[2], 1, "whole subtree arrives in the single root fill");
    }

    #[test]
    fn revisiting_buffered_nodes_is_free() {
        let mut nav = buffered("r[a,b,c]", FillPolicy::WholeSubtree);
        let stats = nav.stats();
        let root = nav.root();
        let a = nav.down(&root).unwrap();
        let after = stats.snapshot();
        // Walk around the already-buffered region.
        let b = nav.right(&a).unwrap();
        let _c = nav.right(&b).unwrap();
        assert_eq!(nav.fetch(&b), "b");
        assert_eq!(stats.snapshot(), after, "no further wrapper traffic");
    }

    #[test]
    fn partial_navigation_fetches_partial_data() {
        // Under node-at-a-time, touching the first child must not pull in
        // the rest of the document.
        let mut nav = buffered("r[a[deep1,deep2],b[x],c[y]]", FillPolicy::NodeAtATime);
        let root = nav.root();
        let a = nav.down(&root).unwrap();
        assert_eq!(nav.fetch(&a), "a");
        let open = nav.open_tree().unwrap().to_string();
        assert!(open.contains('◦'), "open tree still has holes: {open}");
        assert!(!open.contains('y'), "sibling c's content not fetched: {open}");
    }

    #[test]
    fn down_on_leaf_is_none_and_right_at_end_is_none() {
        let mut nav = buffered("r[a,b]", FillPolicy::NodeAtATime);
        let root = nav.root();
        let a = nav.down(&root).unwrap();
        assert_eq!(nav.down(&a), None);
        let b = nav.right(&a).unwrap();
        assert_eq!(nav.right(&b), None);
        assert_eq!(nav.right(&root), None, "root has no siblings");
    }

    /// A scripted wrapper replaying the exact liberal trace of Example 7.
    struct Example7Wrapper {
        script: VecDeque<(HoleId, Vec<Fragment>)>,
    }

    impl LxpWrapper for Example7Wrapper {
        fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
            Ok("0".into())
        }

        fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
            let (expect, reply) = self
                .script
                .pop_front()
                .ok_or_else(|| LxpError::UnknownHole(hole.clone()))?;
            assert_eq!(&expect, hole, "fill order");
            Ok(reply)
        }
    }

    #[test]
    fn example_7_liberal_trace_reconstructs_the_tree() {
        // u: complete tree t = a[b[d,e],c]; the paper's trace:
        //   fill(◦0) = [a[◦1]]
        //   fill(◦1) = [b[◦2], ◦3]
        //   fill(◦3) = [c]
        //   fill(◦2) = [◦4, d[◦5], ◦6]
        //   fill(◦4) = []
        //   fill(◦5) = []
        //   fill(◦6) = [e]
        let h = Fragment::hole;
        let n = Fragment::node;
        let l = Fragment::leaf;
        let script: VecDeque<(HoleId, Vec<Fragment>)> = VecDeque::from(vec![
            ("0".into(), vec![n("a", vec![h("1")])]),
            ("1".into(), vec![n("b", vec![h("2")]), h("3")]),
            ("3".into(), vec![l("c")]),
            ("2".into(), vec![h("4"), n("d", vec![h("5")]), h("6")]),
            ("4".into(), vec![]),
            ("5".into(), vec![]),
            ("6".into(), vec![l("e")]),
        ]);
        let mut nav = BufferNavigator::new(Example7Wrapper { script }, "u");

        // Drive navigation in an order that produces the paper's fills:
        // down to b, right to c, then down into b (d), probe below d, right to e.
        let root = nav.root();
        assert_eq!(nav.fetch(&root), "a"); // fill(0)
        let b = nav.down(&root).unwrap(); // fill(1)
        assert_eq!(nav.fetch(&b), "b");
        let c = nav.right(&b).unwrap(); // fill(3)
        assert_eq!(nav.fetch(&c), "c");
        let d = nav.down(&b).unwrap(); // fill(2) then fill(4)
        assert_eq!(nav.fetch(&d), "d");
        assert_eq!(nav.down(&d), None); // fill(5)
        let e = nav.right(&d).unwrap(); // fill(6)
        assert_eq!(nav.fetch(&e), "e");
        assert_eq!(nav.right(&e), None);
        assert_eq!(nav.right(&c), None);

        // Everything explored: the open tree is now closed and equals t.
        let open = nav.open_tree().unwrap();
        assert_eq!(open.to_tree().unwrap().to_string(), "a[b[d,e],c]");
    }

    #[test]
    fn protocol_violation_degrades_instead_of_panicking() {
        struct Bad;
        impl LxpWrapper for Bad {
            fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
                Ok("0".into())
            }
            fn fill(&mut self, _hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                Ok(vec![Fragment::hole("1"), Fragment::hole("2")])
            }
        }
        let mut nav = BufferNavigator::new(Bad, "u");
        let health = nav.health();
        let r = nav.root();
        assert_eq!(nav.down(&r), None, "degrades to no-child");
        let s = health.snapshot();
        assert_eq!(s.status, HealthStatus::Degraded);
        let err = s.last_error.expect("fault recorded");
        assert!(err.contains("protocol violation"), "{err}");
        // Violating replies are never buffered.
        assert_eq!(nav.buffered_nodes(), 0);
    }

    #[test]
    fn transient_faults_are_retried_away_invisibly() {
        let term = "view[tuple[a[1],b[2]],tuple[a[3],b[4]],tuple[a[5],b[6]]]";
        let tree = parse_term(term).unwrap();
        for limit in [1, 4] {
            let faulty = FaultyWrapper::new(
                TreeWrapper::single(&tree, FillPolicy::NodeAtATime).with_batch_budget(3),
                FaultConfig::transient(42, 0.3),
            );
            let fault_stats = faulty.stats();
            let mut nav = BufferNavigator::with_retry(
                faulty,
                "doc",
                RetryPolicy { max_attempts: 32, ..RetryPolicy::default() },
            )
            .batched(limit);
            let health = nav.health();
            assert_eq!(materialize(&mut nav).to_string(), term, "identical result despite faults");
            let s = health.snapshot();
            assert!(fault_stats.snapshot().injected_faults > 0, "schedule actually injected");
            assert_eq!(s.retries, fault_stats.snapshot().injected_faults, "every fault retried");
            assert_eq!(s.status, HealthStatus::Healthy, "all faults absorbed");
            assert!(s.backoff_cost > 0, "recovery cost is accounted");
        }
    }

    #[test]
    fn permanent_outage_degrades_and_opens_the_breaker() {
        let tree = parse_term("r[a,b,c,d,e]").unwrap();
        let faulty = FaultyWrapper::new(
            TreeWrapper::single(&tree, FillPolicy::NodeAtATime),
            FaultConfig::outage_after(4),
        );
        let mut nav = BufferNavigator::with_retry(
            faulty,
            "doc",
            RetryPolicy { max_attempts: 2, breaker_threshold: 2, ..RetryPolicy::default() },
        );
        let health = nav.health();
        let root = nav.root();
        let a = nav.down(&root).unwrap();
        assert_eq!(nav.fetch(&a), "a", "pre-outage data is served");
        // Walk right until the outage bites: navigation degrades to None
        // instead of panicking.
        let mut p = a;
        let mut reached = vec!["a".to_string()];
        while let Some(next) = nav.right(&p) {
            reached.push(nav.fetch(&next).to_string());
            p = next;
        }
        assert!(reached.len() < 5, "outage truncated the walk: {reached:?}");
        assert_eq!(health.status(), HealthStatus::Degraded, "one give-up so far");
        // A second failing navigation reaches the breaker threshold; from
        // then on the source is quarantined.
        assert_eq!(nav.right(&p), None);
        assert_eq!(health.status(), HealthStatus::Unavailable, "breaker open");
        assert!(health.snapshot().degraded_ops > 0);
        // Buffered data stays navigable while the source is down.
        assert_eq!(nav.fetch(&a), "a");
    }

    #[test]
    fn each_lxp_error_variant_propagates_without_panicking() {
        struct Failing(LxpError);
        impl LxpWrapper for Failing {
            fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
                Err(self.0.clone())
            }
            fn fill(&mut self, _hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                Err(self.0.clone())
            }
        }
        for err in [
            LxpError::UnknownHole("h7".into()),
            LxpError::UnknownSource("doc".into()),
            LxpError::ProtocolViolation("scrambled".into()),
            LxpError::SourceError("connection reset".into()),
        ] {
            let mut nav = BufferNavigator::new(Failing(err.clone()), "doc");
            let health = nav.health();
            let root = nav.root();
            assert_eq!(nav.down(&root), None, "{err:?} degrades down");
            assert_eq!(nav.fetch(&root), "", "{err:?} degrades fetch");
            let s = health.snapshot();
            assert!(s.degraded_ops >= 2, "{err:?} recorded");
            let msg = s.last_error.expect("last error kept");
            assert!(msg.contains(&err.to_string()), "{msg} should mention {err}");
        }
    }

    #[test]
    fn failed_connection_is_retried_on_the_next_navigation() {
        let tree = parse_term("r[a]").unwrap();
        let wrapper = FlakyRoot {
            failures_left: 3,
            inner: TreeWrapper::single(&tree, FillPolicy::WholeSubtree),
        };
        // max_attempts 2 < 4 failures: the first navigation degrades, but
        // the streak (1) stays under the breaker threshold, so the second
        // navigation reconnects and succeeds.
        let mut nav = BufferNavigator::with_retry(
            wrapper,
            "doc",
            RetryPolicy { max_attempts: 2, breaker_threshold: 3, ..RetryPolicy::default() },
        );
        let health = nav.health();
        let root = nav.root();
        assert_eq!(nav.down(&root), None, "first try degrades");
        assert_eq!(health.status(), HealthStatus::Degraded);
        let a = nav.down(&root).expect("second try reconnects");
        assert_eq!(nav.fetch(&a), "a");
    }

    #[test]
    fn batched_mode_materializes_identically_with_fewer_requests() {
        let term = "view[t[a,b],t[c,d],t[e,f],t[g,h],t[i,j],t[k,l],t[m,n],t[o,p]]";
        let tree = parse_term(term).unwrap();
        let mut plain =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::Chunked { n: 1 }), "doc");
        let plain_stats = plain.stats();
        assert_eq!(materialize(&mut plain).to_string(), term);

        let wrapper =
            TreeWrapper::single(&tree, FillPolicy::Chunked { n: 1 }).with_batch_budget(4);
        let mut batched = BufferNavigator::new(wrapper, "doc").batched(8);
        let batched_stats = batched.stats();
        assert_eq!(materialize(&mut batched).to_string(), term, "identical answer");

        let p = plain_stats.snapshot();
        let b = batched_stats.snapshot();
        assert_eq!(p.requests, p.fills, "unbatched: one wire exchange per fill");
        assert_eq!(b.fills, p.fills, "same per-hole replies consumed");
        assert_eq!(b.nodes_received, p.nodes_received, "same payload");
        assert!(
            b.requests * 3 <= p.requests,
            "batched {} vs unbatched {} exchanges",
            b.requests,
            p.requests
        );
        assert!(b.batched_holes >= b.fills, "continuation items arrived");
        assert!(b.holes_per_request() > 2.0, "{:.1} holes/request", b.holes_per_request());
        assert_eq!(b.wasted_bytes, 0, "a full scan consumes everything it prefetched");
    }

    #[test]
    fn batched_mode_coalesces_known_sibling_holes() {
        // SizeThreshold leaves one hole per big sibling: after the first
        // children fill, the open tree knows several holes at once, and a
        // batched buffer answers them in one exchange.
        let term = "r[big1[a,b,c,d],big2[a,b,c,d],big3[a,b,c,d],big4[a,b,c,d]]";
        let tree = parse_term(term).unwrap();
        let wrapper = TreeWrapper::single(&tree, FillPolicy::SizeThreshold { max_nodes: 2 });
        let mut nav = BufferNavigator::new(wrapper, "doc").batched(8);
        let stats = nav.stats();
        assert_eq!(materialize(&mut nav).to_string(), term);
        let s = stats.snapshot();
        assert!(
            s.requests < s.fills,
            "sibling holes shared exchanges: {} requests for {} fills",
            s.requests,
            s.fills
        );
    }

    #[test]
    fn batched_open_tree_evolves_like_unbatched() {
        // Partial navigation: the open trees (holes included) must match
        // step for step, not just the final materialization.
        let term = "r[a[deep1,deep2],b[x],c[y],d[z]]";
        let tree = parse_term(term).unwrap();
        let mut plain =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "doc");
        let wrapper =
            TreeWrapper::single(&tree, FillPolicy::NodeAtATime).with_batch_budget(3);
        let mut batched = BufferNavigator::new(wrapper, "doc").batched(4);

        fn drive(nav: &mut BufferNavigator<TreeWrapper>) -> String {
            let root = nav.root();
            let a = nav.down(&root).unwrap();
            let b = nav.right(&a).unwrap();
            let _ = nav.down(&b).unwrap();
            nav.open_tree().unwrap().to_string()
        }
        assert_eq!(drive(&mut plain), drive(&mut batched), "identical open trees");
    }

    #[test]
    fn batched_mode_drops_violating_continuation_items_as_waste() {
        // A wrapper that answers the requested hole correctly but pads the
        // exchange with a protocol-violating continuation item.
        struct Padded;
        impl LxpWrapper for Padded {
            fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
                Ok("0".into())
            }
            fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                match hole.as_str() {
                    "0" => Ok(vec![Fragment::node("r", vec![Fragment::hole("1")])]),
                    "1" => Ok(vec![Fragment::leaf("a")]),
                    _ => Err(LxpError::UnknownHole(hole.clone())),
                }
            }
            fn fill_many(
                &mut self,
                holes: &[HoleId],
            ) -> Result<Vec<crate::lxp::BatchItem>, LxpError> {
                let mut items: Vec<crate::lxp::BatchItem> = holes
                    .iter()
                    .map(|h| Ok(crate::lxp::BatchItem::new(h.clone(), self.fill(h)?)))
                    .collect::<Result<_, LxpError>>()?;
                items.push(crate::lxp::BatchItem::new(
                    "junk",
                    vec![Fragment::hole("x"), Fragment::hole("y")],
                ));
                Ok(items)
            }
        }
        let mut nav = BufferNavigator::new(Padded, "u").batched(4);
        let stats = nav.stats();
        let root = nav.root();
        let a = nav.down(&root).unwrap();
        assert_eq!(nav.fetch(&a), "a");
        let s = stats.snapshot();
        assert!(s.wasted_bytes > 0, "violating items counted as waste: {s:?}");
        assert_eq!(nav.pending_replies(), 0, "violating items never parked");
    }

    #[test]
    fn degraded_fetch_is_distinguishable_from_a_real_empty_label() {
        let sink = TraceSink::enabled(64);
        let mut nav = BufferNavigator::with_retry(Dead, "doc", RetryPolicy::none())
            .with_trace(sink.clone());
        let root = nav.root();
        assert_eq!(nav.degraded_epoch(), 0);
        assert_eq!(nav.last_degraded(), None);
        let before = nav.degraded_epoch();
        let label = nav.fetch(&root);
        assert_eq!(label, "", "the fallback label itself is ambiguous…");
        assert!(nav.degraded_epoch() > before, "…but the epoch is not");
        let err = nav.last_degraded().expect("cause recorded");
        assert!(err.contains("unplugged"), "{err}");
        let degradations: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceKind::Degradation { .. }))
            .collect();
        assert_eq!(degradations.len(), 1, "one fetch, one degradation event");
        assert!(matches!(
            &degradations[0].kind,
            TraceKind::Degradation { op: "fetch", .. }
        ));
        assert_eq!(degradations[0].source.as_deref(), Some("doc"));
    }

    #[test]
    fn successful_navigation_leaves_the_degraded_epoch_untouched() {
        // A *legitimately* empty PCDATA child must not look degraded.
        let mut nav = buffered("r[x[]]", FillPolicy::WholeSubtree);
        let root = nav.root();
        let x = nav.down(&root).unwrap();
        assert_eq!(nav.fetch(&x), "x");
        assert_eq!(nav.down(&x), None, "x really has no children");
        assert_eq!(nav.degraded_epoch(), 0, "no degradation happened");
        assert_eq!(nav.last_degraded(), None);
    }

    #[test]
    fn trace_events_reconcile_with_stats_at_every_batch_limit() {
        let term = "view[t[a,b],t[c,d],t[e,f],t[g,h],t[i,j],t[k,l],t[m,n],t[o,p]]";
        let tree = parse_term(term).unwrap();
        for limit in [1, 8] {
            let wrapper =
                TreeWrapper::single(&tree, FillPolicy::Chunked { n: 1 }).with_batch_budget(4);
            let sink = TraceSink::enabled(4096);
            let mut nav =
                BufferNavigator::new(wrapper, "doc").batched(limit).with_trace(sink.clone());
            let stats = nav.stats();
            assert_eq!(materialize(&mut nav).to_string(), term);
            assert_eq!(sink.dropped(), 0);
            let s = stats.snapshot();
            assert_eq!(rollup(&sink), s, "limit {limit}: trace rollup ≡ traffic");
            if limit == 1 {
                assert_eq!(s.fills, s.requests, "every fill is a wire request");
                assert_eq!(s.batched_holes, s.requests, "…answering one hole");
            }
        }
    }

    #[test]
    fn fill_fuel_exhaustion_fails_loudly_instead_of_hanging() {
        // Every reply obeys the progress invariant (an empty reply removes
        // a hole), yet a single `down` needs one fill per child hole: with
        // a tiny fuel budget the buffer must answer `Stalled`, not spin.
        struct Evaporating;
        impl LxpWrapper for Evaporating {
            fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
                Ok("0".into())
            }
            fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                if hole == "0" {
                    Ok(vec![Fragment::node(
                        "r",
                        (0..16).map(|i| Fragment::hole(format!("h{i}"))).collect(),
                    )])
                } else {
                    Ok(vec![]) // hole evaporates: progress, but no node
                }
            }
        }
        let sink = TraceSink::enabled(256);
        let mut nav =
            BufferNavigator::new(Evaporating, "doc").with_fill_fuel(4).with_trace(sink.clone());
        let root = nav.root();
        let err = nav.try_down(&root).unwrap_err();
        assert!(
            matches!(err, BufferError::Stalled { .. }),
            "loud stall instead of a hang: {err}"
        );
        // The degrading API reports it too — visibly.
        let before = nav.degraded_epoch();
        assert_eq!(nav.down(&root), None);
        assert!(nav.degraded_epoch() > before);
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::Degradation { op: "down", .. })));
        // A generous budget resolves the same tree fine.
        let mut ok = BufferNavigator::new(Evaporating, "doc");
        let root = ok.root();
        assert_eq!(ok.try_down(&root).unwrap(), None, "all children evaporate");
    }

    #[test]
    fn reset_faults_closes_the_breaker_and_records_it() {
        let tree = parse_term("r[a]").unwrap();
        let wrapper = FlakyRoot {
            failures_left: 2,
            inner: TreeWrapper::single(&tree, FillPolicy::WholeSubtree),
        };
        let sink = TraceSink::enabled(128);
        let mut nav = BufferNavigator::with_retry(
            wrapper,
            "doc",
            RetryPolicy { max_attempts: 1, breaker_threshold: 2, ..RetryPolicy::default() },
        )
        .with_trace(sink.clone());
        let health = nav.health();
        let root = nav.root();
        assert_eq!(nav.down(&root), None);
        assert_eq!(nav.down(&root), None, "second failure trips the breaker");
        assert_eq!(health.status(), HealthStatus::Unavailable);
        assert!(sink.events().iter().any(|e| matches!(e.kind, TraceKind::BreakerOpen { .. })));
        nav.reset_faults();
        assert_eq!(health.status(), HealthStatus::Healthy);
        assert_eq!(nav.last_degraded(), None);
        assert!(sink.events().iter().any(|e| matches!(e.kind, TraceKind::BreakerClose)));
        let a = nav.down(&root).expect("source forgiven and back");
        assert_eq!(nav.fetch(&a), "a");
    }

    #[test]
    fn disabled_tracing_is_observation_free() {
        let term = "view[tuple[a[1],b[2]],tuple[a[3],b[4]]]";
        let tree = parse_term(term).unwrap();
        let mut nav =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "doc");
        let sink = nav.trace_sink();
        assert_eq!(materialize(&mut nav).to_string(), term);
        assert!(sink.is_empty(), "an off sink records nothing");
    }

    #[test]
    fn metrics_registry_reads_the_same_cells_as_stats() {
        let term = "view[t[a,b],t[c,d],t[e,f],t[g,h],t[i,j],t[k,l],t[m,n],t[o,p]]";
        let tree = parse_term(term).unwrap();
        let reg = MetricsRegistry::enabled();
        let wrapper =
            TreeWrapper::single(&tree, FillPolicy::Chunked { n: 1 }).with_batch_budget(4);
        let mut nav =
            BufferNavigator::new(wrapper, "doc").batched(8).with_metrics(reg.clone());
        let stats = nav.stats();
        assert_eq!(materialize(&mut nav).to_string(), term);
        let s = stats.snapshot();
        let snap = reg.snapshot();
        let l = &[("source", "doc")][..];
        // The bound series ARE the stats cells — equality is structural.
        assert_eq!(snap.value("mix_fills_total", l), Some(s.fills));
        assert_eq!(snap.value("mix_get_roots_total", l), Some(s.get_roots));
        assert_eq!(snap.value("mix_requests_total", l), Some(s.requests));
        assert_eq!(snap.value("mix_batched_holes_total", l), Some(s.batched_holes));
        assert_eq!(snap.value("mix_nodes_received_total", l), Some(s.nodes_received));
        assert_eq!(snap.value("mix_bytes_received_total", l), Some(s.bytes_received));
        assert_eq!(snap.value("mix_wasted_bytes", l), Some(s.wasted_bytes));
        // Gated series: one latency/size observation per wire exchange,
        // cache hits + misses partition the fills.
        let lat = snap.histogram("mix_fill_latency_ns", l).unwrap();
        assert_eq!(lat.count, s.requests, "one latency sample per wire exchange");
        let fb = snap.histogram("mix_fill_bytes", l).unwrap();
        assert_eq!(fb.sum, s.bytes_received, "byte histogram covers all wire bytes");
        let hits = snap.value("mix_batch_cache_hits_total", l).unwrap();
        let misses = snap.value("mix_batch_cache_misses_total", l).unwrap();
        assert_eq!(hits + misses, s.fills, "cache hits and misses partition the fills");
        assert!(hits > 0, "batched scan served some fills from the cache");
    }

    #[test]
    fn disabled_metrics_skip_gated_series_but_keep_traffic_counters() {
        let term = "view[tuple[a[1],b[2]],tuple[a[3],b[4]]]";
        let tree = parse_term(term).unwrap();
        let reg = MetricsRegistry::default();
        let mut nav =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "doc")
                .with_metrics(reg.clone());
        assert_eq!(materialize(&mut nav).to_string(), term);
        let snap = reg.snapshot();
        let l = &[("source", "doc")][..];
        // The always-on traffic counters are bound regardless…
        assert!(snap.value("mix_fills_total", l).unwrap() > 0);
        // …but the gated series stayed untouched.
        assert_eq!(snap.histogram("mix_fill_latency_ns", l).unwrap().count, 0);
        assert_eq!(snap.value("mix_batch_cache_hits_total", l), Some(0));
        assert_eq!(snap.value("mix_degradations_total", l), Some(0));
    }

    #[test]
    fn degradations_and_retries_show_up_in_metrics() {
        let tree = parse_term("r[a,b,c,d,e]").unwrap();
        let reg = MetricsRegistry::enabled();
        let faulty = FaultyWrapper::new(
            TreeWrapper::single(&tree, FillPolicy::NodeAtATime),
            FaultConfig::outage_after(4),
        );
        let mut nav = BufferNavigator::with_retry(
            faulty,
            "doc",
            RetryPolicy { max_attempts: 2, breaker_threshold: 2, ..RetryPolicy::default() },
        )
        .with_metrics(reg.clone());
        let root = nav.root();
        let mut p = nav.down(&root).unwrap();
        while let Some(next) = nav.right(&p) {
            p = next;
        }
        let _ = nav.right(&p); // second failure trips the breaker
        let snap = reg.snapshot();
        let l = &[("source", "doc")][..];
        assert!(snap.value("mix_retries_total", l).unwrap() > 0, "retries recorded");
        assert!(snap.value("mix_degradations_total", l).unwrap() > 0, "degradations recorded");
        assert_eq!(snap.value("mix_breaker_opens_total", l), Some(1), "breaker opening recorded");
    }

    #[test]
    fn handles_remain_valid_across_fills() {
        let mut nav = buffered("r[a,b,c,d]", FillPolicy::NodeAtATime);
        let root = nav.root();
        let a = nav.down(&root).unwrap();
        let b = nav.right(&a).unwrap();
        let c = nav.right(&b).unwrap();
        let d = nav.right(&c).unwrap();
        // All handles still fetch correctly after the list was spliced
        // repeatedly.
        assert_eq!(nav.fetch(&a), "a");
        assert_eq!(nav.fetch(&b), "b");
        assert_eq!(nav.fetch(&c), "c");
        assert_eq!(nav.fetch(&d), "d");
        // And `right` from the middle still works.
        let c2 = nav.right(&b).unwrap();
        assert_eq!(c2, c);
    }

    #[test]
    fn pending_batch_cache_stays_bounded_in_long_sessions() {
        // A long batched scan parks continuation replies in `pending`.
        // With a small cap the oldest entries are evicted instead of
        // accumulating without bound — and the answer stays exact because
        // an evicted reply is simply refetched over the wire.
        let term = format!(
            "view[{}]",
            (0..40).map(|i| format!("t{i}")).collect::<Vec<_>>().join(",")
        );
        let tree = parse_term(&term).unwrap();
        let reg = MetricsRegistry::enabled();
        let wrapper =
            TreeWrapper::single(&tree, FillPolicy::Chunked { n: 1 }).with_batch_budget(6);
        let mut nav = BufferNavigator::new(wrapper, "doc")
            .batched(8)
            .pending_cap(2)
            .with_metrics(reg.clone());
        assert_eq!(materialize(&mut nav).to_string(), term, "eviction never corrupts");
        assert!(nav.pending_replies() <= 2, "cap enforced: {}", nav.pending_replies());
        assert!(nav.pending_evictions() > 0, "the cap actually bit");
        let snap = reg.snapshot();
        assert_eq!(
            snap.value("mix_batch_cache_evictions_total", &[("source", "doc")][..]),
            Some(nav.pending_evictions()),
            "evictions surface as a metric"
        );
        // An uncapped run of the same scan parks far more than the cap —
        // the regression the cap exists to prevent.
        let wrapper =
            TreeWrapper::single(&tree, FillPolicy::Chunked { n: 1 }).with_batch_budget(6);
        let mut loose = BufferNavigator::new(wrapper, "doc").batched(8);
        let root = loose.root();
        let _ = loose.down(&root);
        assert!(loose.pending_replies() > 2, "an exchange parks more than the cap");
    }

    #[test]
    fn degradation_purges_pending_and_invalidates_the_shared_cache() {
        // Once a source degrades, replies parked before the failure must
        // not survive it — neither in the pending batch cache nor in the
        // shared cross-query cache.
        let term = format!(
            "r[{}]",
            (0..12).map(|i| format!("t{i}")).collect::<Vec<_>>().join(",")
        );
        let tree = parse_term(&term).unwrap();
        let cache = FragmentCache::new();
        let sink = TraceSink::enabled(1024);
        let faulty = FaultyWrapper::new(
            TreeWrapper::single(&tree, FillPolicy::Chunked { n: 1 }).with_batch_budget(4),
            FaultConfig::outage_after(3),
        );
        let mut nav = BufferNavigator::with_retry(
            faulty,
            "doc",
            RetryPolicy { max_attempts: 1, breaker_threshold: 2, ..RetryPolicy::default() },
        )
        .batched(4)
        .with_fragment_cache(cache.clone())
        .with_trace(sink.clone());
        let root = nav.root();
        let mut p = nav.down(&root).unwrap();
        assert!(!cache.is_empty(), "pre-outage replies were cached");
        while let Some(next) = nav.right(&p) {
            p = next;
        }
        assert!(nav.degraded_epoch() > 0, "the outage actually degraded the walk");
        assert_eq!(nav.pending_replies(), 0, "no stale pending fragments survive");
        assert_eq!(cache.len(), 0, "the source's shared entries are gone");
        assert!(cache.source_stats("doc").invalidations > 0, "invalidation recorded");
        // A navigator joining on the same cache afterwards starts cold.
        assert!(cache.lookup_root("doc").is_none(), "cached root invalidated too");
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::CacheInvalidate { scope: "shared", .. })));
    }

    #[test]
    fn failed_batch_exchange_still_accounts_its_traffic() {
        // A fill_many whose whole reply is rejected (batch shape violated)
        // used to vanish from the traffic counters: bytes crossed the wire
        // but neither requests nor wasted_bytes recorded them.
        struct Scrambled;
        impl LxpWrapper for Scrambled {
            fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
                Ok("0".into())
            }
            fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                match hole.as_str() {
                    "0" => Ok(vec![Fragment::node("r", vec![Fragment::hole("1")])]),
                    _ => Err(LxpError::UnknownHole(hole.clone())),
                }
            }
            fn fill_many(
                &mut self,
                _holes: &[HoleId],
            ) -> Result<Vec<crate::lxp::BatchItem>, LxpError> {
                // Wrong hole id in the first item: shape check rejects the
                // exchange, but the payload bytes were already received.
                Ok(vec![crate::lxp::BatchItem::new(
                    "bogus",
                    vec![Fragment::node("x", vec![Fragment::leaf("y")])],
                )])
            }
        }
        let sink = TraceSink::enabled(256);
        let mut nav = BufferNavigator::new(Scrambled, "u").batched(4).with_trace(sink.clone());
        let stats = nav.stats();
        let root = nav.root();
        assert_eq!(nav.down(&root), None, "the violating exchange degrades");
        let s = stats.snapshot();
        assert_eq!(s.requests, 1, "the failed exchange IS a wire request: {s:?}");
        assert!(s.bytes_received > 0, "rejected payload bytes are received bytes");
        assert_eq!(s.wasted_bytes, s.bytes_received, "…and all of them are waste");
        assert_eq!(s.fills, 0, "nothing was consumed");
        let failed: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceKind::FillManyFailed { .. }))
            .collect();
        assert_eq!(failed.len(), 1, "the rejected exchange is traced");
        if let TraceKind::FillManyFailed { bytes, wasted, .. } = &failed[0].kind {
            assert_eq!(bytes, wasted, "the entire exchange is waste");
        }
    }

    #[test]
    fn rejected_replies_are_accounted_at_every_batch_limit() {
        // The root fill is fine; every later reply violates the progress
        // invariant (two adjacent holes). The rejected exchange crossed
        // the wire all the same, so `requests` must equal the wrapper's
        // own exchange count, and the trace rollup must reproduce the
        // traffic counters — at limit 1 (plain `fill`) as at limit 4.
        struct Violating {
            exchanges: Arc<AtomicU64>,
        }
        impl LxpWrapper for Violating {
            fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
                Ok("0".into())
            }
            fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                self.exchanges.fetch_add(1, Ordering::Relaxed);
                self.reply(hole)
            }
            fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
                self.exchanges.fetch_add(1, Ordering::Relaxed);
                holes.iter().map(|h| Ok(BatchItem::new(h.clone(), self.reply(h)?))).collect()
            }
        }
        impl Violating {
            fn reply(&self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                Ok(match hole.as_str() {
                    "0" => vec![Fragment::node("r", vec![Fragment::hole("1")])],
                    _ => vec![Fragment::hole("x"), Fragment::hole("y")],
                })
            }
        }
        for limit in [1, 4] {
            let exchanges = Arc::new(AtomicU64::new(0));
            let sink = TraceSink::enabled(256);
            let wrapper = Violating { exchanges: exchanges.clone() };
            let mut nav =
                BufferNavigator::new(wrapper, "u").batched(limit).with_trace(sink.clone());
            let stats = nav.stats();
            let root = nav.root();
            assert_eq!(nav.down(&root), None, "limit {limit}: the violating reply degrades");
            let s = stats.snapshot();
            assert_eq!(
                s.requests,
                exchanges.load(Ordering::Relaxed),
                "limit {limit}: every exchange that crossed the wire is a request: {s:?}"
            );
            assert_eq!(s.requests, 2, "limit {limit}: the root fill and the rejected one");
            assert_eq!(s.fills, 1, "limit {limit}: only the root reply was consumed");
            assert!(s.wasted_bytes > 0, "limit {limit}: the rejected payload is waste");
            assert_eq!(rollup(&sink), s, "limit {limit}: trace rollup ≡ traffic");
        }
    }

    #[test]
    fn warm_navigator_answers_from_the_shared_cache_with_zero_wire_traffic() {
        let term = "view[tuple[a[1],b[2]],tuple[a[3],b[4]],tuple[a[5],b[6]]]";
        let tree = parse_term(term).unwrap();
        let cache = FragmentCache::new();
        let mut cold =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "doc")
                .with_fragment_cache(cache.clone());
        let cold_stats = cold.stats();
        assert_eq!(materialize(&mut cold).to_string(), term);
        assert!(cold_stats.snapshot().requests > 0, "the cold session paid the wire cost");
        assert!(!cache.is_empty() && cache.stats().insertions > 0);

        // Second session: same source uri, same shared cache — but the
        // wire is DEAD. Every fragment (and the root hole) comes from the
        // cache, so the answer is exact with zero wire exchanges.
        let mut warm = BufferNavigator::new(Dead, "doc").with_fragment_cache(cache.clone());
        let warm_stats = warm.stats();
        let health = warm.health();
        assert_eq!(materialize(&mut warm).to_string(), term, "byte-identical warm answer");
        let w = warm_stats.snapshot();
        assert_eq!(w.requests, 0, "zero wire exchanges");
        assert_eq!(w.get_roots, 0, "even the root came from the cache");
        assert_eq!(w.bytes_received, 0);
        assert!(w.fills > 0, "cache hits still count as consumed fills");
        assert_eq!(health.snapshot().degraded_ops, 0, "the dead wire was never touched");
        assert!(cache.source_stats("doc").hits > 0);
    }

    #[test]
    fn zero_budget_cache_admits_nothing_and_changes_nothing() {
        let term = "view[tuple[a[1],b[2]],tuple[a[3],b[4]]]";
        let tree = parse_term(term).unwrap();
        let cache = FragmentCache::with_budget(0);
        let mut first =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "doc")
                .with_fragment_cache(cache.clone());
        assert_eq!(materialize(&mut first).to_string(), term);
        assert_eq!(cache.len(), 0, "a zero budget admits no fragment entries");
        let mut second =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "doc")
                .with_fragment_cache(cache.clone());
        let stats = second.stats();
        assert_eq!(materialize(&mut second).to_string(), term, "starved cache, same answer");
        assert!(stats.snapshot().requests > 0, "the second session pays the wire again");
    }

    #[test]
    fn faulted_exchanges_are_never_cached() {
        // Transient faults are retried away; only the successful replies
        // may enter the shared cache. If a faulted attempt ever leaked in,
        // the warm session over a dead wire below would see garbage.
        let term = "view[tuple[a[1],b[2]],tuple[a[3],b[4]],tuple[a[5],b[6]]]";
        let tree = parse_term(term).unwrap();
        let cache = FragmentCache::new();
        let faulty = FaultyWrapper::new(
            TreeWrapper::single(&tree, FillPolicy::NodeAtATime),
            FaultConfig::transient(42, 0.3),
        );
        let fault_stats = faulty.stats();
        let mut nav = BufferNavigator::with_retry(
            faulty,
            "doc",
            RetryPolicy { max_attempts: 32, ..RetryPolicy::default() },
        )
        .with_fragment_cache(cache.clone());
        let stats = nav.stats();
        assert_eq!(materialize(&mut nav).to_string(), term);
        assert!(fault_stats.snapshot().injected_faults > 0, "schedule actually injected");
        let s = stats.snapshot();
        assert_eq!(
            cache.stats().insertions,
            s.requests,
            "exactly one cache insertion per successful exchange — faults cached nothing"
        );
        // And the cached view is complete: a dead-wire warm session
        // reconstructs the identical document.
        let mut warm = BufferNavigator::new(Dead, "doc").with_fragment_cache(cache.clone());
        assert_eq!(materialize(&mut warm).to_string(), term, "cache holds only the truth");
    }
}
