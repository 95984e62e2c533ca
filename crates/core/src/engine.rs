//! The engine: a tree of lazy mediators behind one DOM-VXD interface.
//!
//! Construction (`Engine::new`) is the tail of the paper's *preprocessing*
//! phase: the validated plan is compiled into a table of per-operator
//! navigation specs (`OpSpec`) plus the typed slots of their mutable state
//! (`OpState`), and the `source` leaves are wired to registered
//! navigators. Construction performs **no source access** — the client
//! gets the virtual root handle for free, and every subsequent navigation
//! pulls exactly the source fragments needed to answer it.

use crate::handle::{VData, VNode};
use crate::metrics::{OpMetrics, NAV_CMDS};
use crate::ops::{new_slot, DiffSpec, GetDescSpec, GroupSpec, JoinSpec, OpSpec, OpState};
use crate::registry::{SharedSource, SourceRegistry};
use crate::EngineError;
use mix_algebra::{Plan, PlanId, PlanNode, SemanticOutcome, ViewCatalog};
use mix_buffer::{
    lock_unpoisoned, run_parallel, BufferStats, BufferStatsSnapshot, Counter, FragmentCache,
    HealthSnapshot, HealthStatus, MetricsRegistry, MetricsSnapshot, OverlapGauge, SourceHealth,
    TraceKind, TraceSink,
};
use mix_nav::{Axis, LabelPred, NavCounters, NavStats, Navigator};
use mix_xml::{Document, Label, Tree};
use mix_xmas::Var;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Tuning knobs for the engine; defaults match the paper's system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Cache the inner side of nested-loop joins (binding handles plus the
    /// attributes participating in the join condition, §3).
    pub join_cache: bool,
    /// Keep groupBy's input scan across navigations, filed by group
    /// (`G_prev` plus each group's member list: Fig. 10's buffer).
    pub group_cache: bool,
    /// `NC` includes `select_φ`: `getDescendants` jumps between matching
    /// siblings with one source command instead of an `r`/`f` pair per
    /// skipped sibling — the upgrade that makes label-selective
    /// fixed-depth views bounded browsable (§2).
    pub use_select: bool,
    /// Worker threads for parallel per-source exchanges. `1` (the
    /// default) keeps the engine strictly sequential; above `1`, the
    /// engine primes its independent sources concurrently on the first
    /// client navigation ([`Engine::warm_sources`]), paying the max of
    /// the source latencies instead of their sum.
    pub threads: usize,
    /// Rewrite the plan against the semantic answer cache before wiring
    /// it to sources: when the registry carries a [`ViewCatalog`] and a
    /// recorded view covers a source branch, the branch is replaced by
    /// navigation over the cached answer — zero wire exchanges for the
    /// covered part. Off by default.
    pub semantic_cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // The minimal command set {d, r, f}: select is an opt-in NC
        // extension, exactly as in the paper.
        EngineConfig {
            join_cache: true,
            group_cache: true,
            use_select: false,
            threads: 1,
            semantic_cache: false,
        }
    }
}

impl EngineConfig {
    /// The default configuration with `select_φ` available.
    pub fn with_select() -> Self {
        EngineConfig { use_select: true, ..EngineConfig::default() }
    }

    /// The default configuration with semantic-cache rewriting on.
    pub fn semantic_cache() -> Self {
        EngineConfig { semantic_cache: true, ..EngineConfig::default() }
    }
}

/// Build-time state of the semantic answer cache for one engine: the
/// catalog consulted, the rewrite outcome, and what is needed to record
/// this query's answer as a new view ([`Engine::record_view`]).
struct SemanticState {
    catalog: ViewCatalog,
    outcome: SemanticOutcome,
    /// Source branches served from recorded views / total source branches.
    covered: u32,
    total: u32,
    /// The *original* (pre-rewrite) plan — the signature a recorded view
    /// is filed under, so even a covered query can refresh the catalog.
    record_plan: Plan,
    /// Combined invalidation epoch of each base source, captured at build
    /// time; views recorded against a since-bumped epoch are rejected.
    epochs: Vec<(String, u64)>,
}

/// One wired source: the shared navigator plus its command counters and,
/// when the source reports it, its buffer's fault/retry health.
pub(crate) struct SourceConn {
    pub name: String,
    pub nav: SharedSource,
    /// The source's virtual document node ([`VData::SrcDoc`]), built once.
    pub doc: VNode,
    pub counters: NavCounters,
    pub health: Option<SourceHealth>,
    pub stats: Option<BufferStats>,
    pub trace: Option<TraceSink>,
    pub metrics: Option<MetricsRegistry>,
    pub cache: Option<FragmentCache>,
    /// `mix_source_navs_total{source,cmd}` cells, indexed like [`NAV_CMDS`].
    pub navs: [Counter; 4],
}

impl SourceConn {
    /// Degraded operations recorded so far (0 without a health handle).
    fn degraded_ops(&self) -> u64 {
        self.health.as_ref().map_or(0, SourceHealth::degraded_ops)
    }
}

/// Per-source navigation statistics.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// `(source name, commands issued to it)`.
    pub per_source: Vec<(String, NavStats)>,
}

impl EngineStats {
    /// Sum across all sources.
    pub fn total(&self) -> NavStats {
        let mut t = NavStats::default();
        for (_, s) in &self.per_source {
            t.downs += s.downs;
            t.rights += s.rights;
            t.fetches += s.fetches;
            t.selects += s.selects;
        }
        t
    }
}

/// The lazy mediator for a whole algebra plan.
///
/// `Engine` implements [`Navigator`], so everything generic applies: a
/// client can [`materialize`] the whole answer, walk the first few
/// children, or wrap it in [`VirtualDocument`] for the DOM-style API.
///
/// [`materialize`]: mix_nav::explore::materialize
/// [`VirtualDocument`]: crate::VirtualDocument
pub struct Engine {
    /// One spec per plan operator, indexed by [`PlanId`]; fixed after
    /// construction and borrowed by navigation (`Engine::nav`).
    pub(crate) ops: Arc<[OpSpec]>,
    /// The operators' mutable state, in the slots their specs name.
    pub(crate) state: OpState,
    pub(crate) sources: Vec<SourceConn>,
    /// The root `tupleDestroy`'s input operator and exported variable.
    pub(crate) root_input: PlanId,
    pub(crate) root_var: Var,
    pub(crate) config: EngineConfig,
    pub(crate) trace: TraceSink,
    plan: Plan,
    /// Live metrics registry (adopted from the first observed source, a
    /// private disabled one otherwise).
    pub(crate) metrics: MetricsRegistry,
    /// Per-operator series, indexed by [`PlanId`].
    pub(crate) op_metrics: Vec<OpMetrics>,
    /// The shared cross-query fragment cache, adopted from the first
    /// buffered source that carries one (`SourceRegistry::add_buffer`).
    frag_cache: Option<FragmentCache>,
    /// `mix_client_commands_total{cmd}` cells, indexed like [`NAV_CMDS`].
    cmd_counters: [Counter; 4],
    /// The operator-call stack: plan indices of the operators currently
    /// enumerating bindings, maintained only while metrics are enabled.
    /// Source commands are attributed to the top (self) and to every
    /// distinct entry (cumulative).
    pub(crate) op_stack: Vec<u32>,
    /// Plan index of each source's own `source` leaf operator — the
    /// attribution fallback when the client navigates inside an
    /// already-produced source value with no operator on the stack.
    src_leaf_op: Vec<u32>,
    /// In-flight exchange gauge for the parallel exchange paths; a
    /// high-water mark above 1 is positive proof that two source
    /// exchanges overlapped in time.
    gauge: OverlapGauge,
    /// Whether the parallel source warm-up has run. It runs at most once,
    /// on the first client `d` (or an explicit [`Engine::warm_sources`]).
    warmed: bool,
    /// Semantic-cache state, present when the build consulted a catalog
    /// ([`EngineConfig::semantic_cache`] and a registry-attached
    /// [`ViewCatalog`]).
    semantic: Option<SemanticState>,
    /// Each source's degraded-operation count before the current
    /// [`Engine::fetch_checked`]: scratch kept across calls, so a check
    /// allocates only when a count moved.
    degraded_before: Vec<u64>,
}

/// A checked navigation's evidence that its answer is partial: the
/// fallback value the unchecked API would have silently returned, plus the
/// sources whose health recorded new degraded operations during the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// The fallback label that was served (empty for a degraded `fetch`).
    pub label: Label,
    /// Names of the sources that degraded while answering.
    pub sources: Vec<String>,
}

impl std::fmt::Display for Degraded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degraded answer `{}` (sources: {})", self.label, self.sources.join(", "))
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("operators", &self.ops.len())
            .field("sources", &self.sources.iter().map(|s| s.name.as_str()).collect::<Vec<_>>())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Wire a plan to sources with the default configuration.
    pub fn new(plan: Plan, registry: &SourceRegistry) -> Result<Self, EngineError> {
        Engine::with_config(plan, registry, EngineConfig::default())
    }

    /// Wire a plan to sources with an explicit configuration.
    pub fn with_config(
        plan: Plan,
        registry: &SourceRegistry,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        // Semantic answer cache: before any wiring, try to rewrite the
        // plan's source branches into navigations over recorded views.
        // The rewrite is a pure plan transformation — covered branches
        // read `~view:N` sources the registry resolves from the catalog.
        let mut plan = plan;
        let mut semantic: Option<SemanticState> = None;
        if config.semantic_cache {
            if let Some(catalog) = registry.view_catalog() {
                let epochs: Vec<(String, u64)> = plan
                    .source_names()
                    .into_iter()
                    .map(|s| {
                        let e = registry.source_epoch(&s);
                        (s, e)
                    })
                    .collect();
                let total = plan
                    .reachable()
                    .iter()
                    .filter(|id| matches!(plan.node(**id), PlanNode::Source { .. }))
                    .count() as u32;
                let rr =
                    catalog.rewrite_against_views(&plan, &|s| registry.source_epoch(s));
                semantic = Some(SemanticState {
                    catalog,
                    outcome: rr.outcome,
                    covered: rr.used.len() as u32,
                    total,
                    record_plan: plan.clone(),
                    epochs,
                });
                if let Some(rewritten) = rr.plan {
                    plan = rewritten;
                }
            }
        }

        plan.validate().map_err(|e| EngineError::new(e.message))?;
        let PlanNode::TupleDestroy { input: root_input, var: root_var } =
            plan.node(plan.root()).clone()
        else {
            return Err(EngineError::new(
                "the plan root must be tupleDestroy to export a client document",
            ));
        };

        let mut sources: Vec<SourceConn> = Vec::new();
        let mut state = OpState::default();
        let ops = (0..plan.len())
            .map(|i| build_op(&plan, PlanId::from_index(i), registry, &mut sources, &mut state))
            .collect::<Result<Arc<[OpSpec]>, EngineError>>()?;
        // Adopt the first source-provided sink so engine spans and buffer
        // fills land in one ring; a plain (disabled-by-default) sink
        // otherwise.
        let trace =
            sources.iter().find_map(|s| s.trace.clone()).unwrap_or_default();
        // Same adoption rule for the metrics registry, so engine-level
        // series land next to the buffers'.
        let metrics =
            sources.iter().find_map(|s| s.metrics.clone()).unwrap_or_default();
        // And for the shared fragment cache: adopt the first one a source
        // carries, so the client/profiler can read cache effectiveness.
        let frag_cache = sources.iter().find_map(|s| s.cache.clone());
        if let Some(cache) = &frag_cache {
            cache.bind_into(&metrics);
        }
        // Surface the rewrite decision: one flight-recorder event and one
        // bump of the per-outcome query counter, both in the adopted
        // sinks so they land next to the wire traffic they explain.
        if let Some(sem) = &semantic {
            if trace.is_enabled() {
                trace.emit(
                    None,
                    TraceKind::SemanticRewrite {
                        outcome: sem.outcome.label(),
                        covered: sem.covered,
                        total: sem.total,
                    },
                );
            }
            if metrics.is_enabled() {
                metrics
                    .counter(
                        "mix_semcache_queries_total",
                        "Queries by semantic-cache rewrite outcome",
                        &[("outcome", sem.outcome.label())],
                    )
                    .inc();
            }
        }
        let degraded_before = vec![0; sources.len()];
        let mut src_leaf_op = vec![0u32; sources.len()];
        for (i, op) in ops.iter().enumerate() {
            if let OpSpec::Source { src, .. } = op {
                src_leaf_op[*src] = i as u32;
            }
        }
        let mut engine = Engine {
            ops,
            state,
            sources,
            root_input,
            root_var,
            config,
            trace,
            plan,
            metrics,
            op_metrics: Vec::new(),
            frag_cache,
            cmd_counters: Default::default(),
            op_stack: Vec::new(),
            src_leaf_op,
            gauge: OverlapGauge::new(),
            warmed: false,
            semantic,
            degraded_before,
        };
        engine.register_metric_series();
        Ok(engine)
    }

    /// (Re)register the engine's series — per-operator, per client
    /// command, per (source, command) — in the current registry.
    /// Registration is an upsert on `(name, labels)`, so rebuilding an
    /// engine against a shared registry reuses the existing cells.
    fn register_metric_series(&mut self) {
        self.op_metrics = (0..self.plan.len())
            .map(|i| {
                OpMetrics::new(&self.metrics, &self.plan.op_label(PlanId::from_index(i)))
            })
            .collect();
        self.cmd_counters = NAV_CMDS.map(|cmd| {
            self.metrics.counter(
                "mix_client_commands_total",
                "DOM-VXD commands issued by the client",
                &[("cmd", cmd)],
            )
        });
        for s in &mut self.sources {
            s.navs = NAV_CMDS.map(|cmd| {
                self.metrics.counter(
                    "mix_source_navs_total",
                    "Navigation commands the engine issued to this source",
                    &[("source", &s.name), ("cmd", cmd)],
                )
            });
        }
        // Flight-recorder overflow is an observability failure worth
        // observing: surface the ring's drop count as a counter.
        self.trace.bind_into(&self.metrics, &[]);
    }

    /// The plan this engine executes.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Navigation commands issued to each source so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            per_source: self
                .sources
                .iter()
                .map(|s| (s.name.clone(), s.counters.snapshot()))
                .collect(),
        }
    }

    /// Reset all source navigation counters.
    pub fn reset_stats(&self) {
        for s in &self.sources {
            s.counters.reset();
        }
    }

    // ---- concurrency ----------------------------------------------------

    /// The configured worker-thread count for parallel exchanges.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// Set the worker-thread count for subsequent parallel exchanges (the
    /// console's `threads N`). Clamped to at least 1; does not undo a
    /// warm-up that already ran.
    pub fn set_threads(&mut self, n: usize) {
        self.config.threads = n.max(1);
    }

    /// The exchange-overlap gauge. [`OverlapGauge::max_overlap`] above 1
    /// proves two source exchanges were in flight simultaneously — a
    /// sequential engine can never exceed 1.
    pub fn overlap(&self) -> OverlapGauge {
        self.gauge.clone()
    }

    /// Prime every wired source **concurrently**: one scoped worker per
    /// source issues the priming navigations (root, first child, its
    /// label) that pull the source's first fragments into its buffer, so
    /// the client's opening descent pays the *max* of the source
    /// latencies instead of their sum. Runs at most once; a no-op when
    /// `config.threads <= 1` or the plan has fewer than two sources.
    ///
    /// The priming navigations go to the raw connections — not through
    /// the engine's counted navigation path — so they are invisible to
    /// [`Engine::stats`]
    /// and to per-operator attribution: a warmed engine reports exactly
    /// the navigation counts of a sequential one. The wire work it fronts
    /// is work any walk performs anyway; the buffer's fill-once
    /// discipline dedupes it.
    ///
    /// Returns the gauge's high-water mark.
    pub fn warm_sources(&mut self) -> u64 {
        if self.warmed {
            return self.gauge.max_overlap();
        }
        self.warmed = true;
        let threads = self.config.threads;
        if threads <= 1 || self.sources.len() < 2 {
            return self.gauge.max_overlap();
        }
        let tasks: Vec<_> = self
            .sources
            .iter()
            .map(|s| {
                let nav = Arc::clone(&s.nav);
                let gauge = self.gauge.clone();
                move || {
                    let _in_flight = gauge.enter();
                    let mut n = lock_unpoisoned(&nav);
                    let root = n.root();
                    if let Some(first) = n.down(&root) {
                        let _ = n.fetch(&first);
                    }
                }
            })
            .collect();
        run_parallel(tasks, threads);
        self.gauge.max_overlap()
    }

    /// The engine's flight-recorder sink: adopted from the first buffer
    /// registered (`SourceRegistry::add_buffer`) with an enabled one, so
    /// the cascade a client command triggers is linked to it by span id.
    pub fn trace_sink(&self) -> TraceSink {
        self.trace.clone()
    }

    /// Replace the engine's sink (e.g. to share one recorder across
    /// engines). Does not re-wire source buffers — prefer registering
    /// traced sources when buffer-level events should share the ring.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
        // Keep `mix_trace_dropped_total` pointing at the live ring.
        self.trace.bind_into(&self.metrics, &[]);
    }

    /// The engine's live metrics registry: adopted from the first buffer
    /// registered (`SourceRegistry::add_buffer`) with an enabled one, so
    /// one snapshot (or Prometheus scrape) covers operators, sources, and
    /// buffers alike.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// A point-in-time copy of every registered series.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The shared cross-query fragment cache, if any registered buffer
    /// carries one (`BufferNavigator::with_fragment_cache`). Lets
    /// clients read cache effectiveness and invalidate sources by hand.
    pub fn fragment_cache(&self) -> Option<FragmentCache> {
        self.frag_cache.clone()
    }

    /// The semantic-cache rewrite outcome for this engine's plan:
    /// `Covered` (every source branch answered from recorded views,
    /// zero wire exchanges), `Partial`, or `Miss`. `None` when the build
    /// did not consult a catalog ([`EngineConfig::semantic_cache`] off or
    /// no catalog on the registry).
    pub fn semantic_outcome(&self) -> Option<SemanticOutcome> {
        self.semantic.as_ref().map(|s| s.outcome)
    }

    /// Record this engine's fully materialized `answer` in the semantic
    /// answer cache, filed under the *original* (pre-rewrite) plan's
    /// signature and the source epochs captured at build time — so a
    /// later query covered by this one navigates the recorded answer
    /// instead of the wire. Returns `false` when no catalog was
    /// consulted, the plan shape is not recordable, an equivalent view is
    /// already recorded, or a source was invalidated since the build
    /// (the stale-on-arrival guard).
    pub fn record_view(&self, answer: &Tree) -> bool {
        match &self.semantic {
            Some(sem) => {
                sem.catalog.record(&sem.record_plan, answer, &sem.epochs).is_some()
            }
            None => false,
        }
    }

    /// Replace the engine's registry and re-register the engine-level
    /// series in it — how an engine over plain (unbuffered) sources opts
    /// into metrics, or how several engines share one scrape endpoint.
    /// Buffer-level series are not re-wired; register observed sources
    /// when buffers should share the registry.
    pub fn set_metrics(&mut self, registry: MetricsRegistry) {
        self.metrics = registry;
        self.register_metric_series();
    }

    /// Like [`Navigator::fetch`], but *checked*: a degraded answer (the
    /// buffer fell back to an empty label after retries were exhausted) is
    /// an `Err` carrying the fallback and the sources that degraded —
    /// instead of being indistinguishable from a real empty PCDATA node.
    pub fn fetch_checked(&mut self, p: &VNode) -> Result<Label, Degraded> {
        self.checked(|e| e.fetch(p))
    }

    /// [`Engine::fetch_checked`] as part of the client command under way:
    /// it begins no trace span and counts no `f`, so its cascade is
    /// attributed to the command that reached `p` — how a server ships
    /// the label of the node a `d`/`r`/`select` reached in that reply.
    pub fn fetch_checked_in_span(&mut self, p: &VNode) -> Result<Label, Degraded> {
        self.checked(|e| e.nav(|n| n.val_fetch(p)))
    }

    fn checked(&mut self, fetch: impl FnOnce(&mut Self) -> Label) -> Result<Label, Degraded> {
        self.degraded_before.clear();
        self.degraded_before.extend(self.sources.iter().map(SourceConn::degraded_ops));
        let label = fetch(self);
        let mut moved = self
            .sources
            .iter()
            .zip(&self.degraded_before)
            .filter(|(s, &before)| s.degraded_ops() > before)
            .peekable();
        if moved.peek().is_none() {
            return Ok(label);
        }
        Err(Degraded { label, sources: moved.map(|(s, _)| s.name.clone()).collect() })
    }

    /// Fault/retry health per source, for buffered sources
    /// (`SourceRegistry::add_buffer`); `None` for plain navigators with
    /// no buffer underneath.
    pub fn health(&self) -> Vec<(String, Option<HealthSnapshot>)> {
        self.sources
            .iter()
            .map(|s| (s.name.clone(), s.health.as_ref().map(SourceHealth::snapshot)))
            .collect()
    }

    /// The worst status across all health-reporting sources: `Healthy`
    /// when every source is fine (or none reports), `Degraded` when any
    /// source lost data, `Unavailable` when any breaker is open.
    pub fn overall_health(&self) -> HealthStatus {
        let mut worst = HealthStatus::Healthy;
        for s in &self.sources {
            match s.health.as_ref().map(|h| h.status()) {
                Some(HealthStatus::Unavailable) => return HealthStatus::Unavailable,
                Some(HealthStatus::Degraded) => worst = HealthStatus::Degraded,
                _ => {}
            }
        }
        worst
    }

    /// Degraded operations summed across health-reporting sources — the
    /// profiler's per-step fault delta.
    pub(crate) fn total_degraded_ops(&self) -> u64 {
        self.sources
            .iter()
            .map(SourceConn::degraded_ops)
            .sum()
    }

    /// Buffer traffic per source, for buffered sources
    /// (`SourceRegistry::add_buffer`); `None` for sources with no buffer
    /// underneath. This is where the batching work shows up: wire
    /// exchanges (`requests`) versus holes answered (`batched_holes`),
    /// plus speculative bytes still unused (`wasted_bytes`).
    pub fn traffic(&self) -> Vec<(String, Option<BufferStatsSnapshot>)> {
        self.sources
            .iter()
            .map(|s| (s.name.clone(), s.stats.as_ref().map(BufferStats::snapshot)))
            .collect()
    }

    /// `(requests, batched_holes, wasted_bytes)` summed across
    /// stats-reporting sources — the profiler's per-step traffic deltas.
    pub(crate) fn total_traffic(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for snap in self.sources.iter().filter_map(|s| s.stats.as_ref()).map(BufferStats::snapshot)
        {
            t.0 += snap.requests;
            t.1 += snap.batched_holes;
            t.2 += snap.wasted_bytes;
        }
        t
    }

    // ---- counted source navigation -------------------------------------

    /// Is metric recording on? One relaxed atomic load — the whole cost
    /// of this subsystem at every instrumented site when disabled.
    #[inline]
    pub(crate) fn metrics_on(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// Push `op` onto the operator-call stack and count the call.
    /// Only invoked when metrics are on; [`Self::exit_op`] must mirror it.
    pub(crate) fn enter_op(&mut self, op: PlanId) {
        self.op_stack.push(op.index() as u32);
        self.op_metrics[op.index()].calls.inc();
    }

    /// Pop the operator-call stack, crediting a produced binding.
    pub(crate) fn exit_op(&mut self, op: PlanId, produced: bool) {
        self.op_stack.pop();
        if produced {
            self.op_metrics[op.index()].produced.inc();
        }
    }

    /// Attribute one source command: to the `(source, cmd)` series, to
    /// the operator on top of the operator stack (self), and to every
    /// distinct operator on it (cumulative). With no operator active —
    /// the client walking inside an already-produced source value — both
    /// charges fall to the source's own leaf.
    fn meter_src(&self, src: usize, cmd: usize) {
        if !self.metrics_on() {
            return;
        }
        self.sources[src].navs[cmd].inc();
        let path = &self.op_stack;
        match path.last() {
            None => {
                let leaf = &self.op_metrics[self.src_leaf_op[src] as usize];
                leaf.src_navs.inc();
                leaf.src_navs_cum.inc();
            }
            Some(&top) => {
                self.op_metrics[top as usize].src_navs.inc();
                for (i, &op) in path.iter().enumerate() {
                    // Recursive operators (e.g. join re-entering its own
                    // scan) appear more than once; charge cum once each.
                    if !path[..i].contains(&op) {
                        self.op_metrics[op as usize].src_navs_cum.inc();
                    }
                }
            }
        }
    }

    /// Record one source command on the recorder and the meters; `cmd`
    /// indexes [`NAV_CMDS`]. Returns the source's connection.
    fn note_src(&self, src: usize, cmd: usize) -> &SourceConn {
        let conn = &self.sources[src];
        if self.trace.is_enabled() {
            self.trace.emit(Some(&conn.name), TraceKind::SourceNav { cmd: NAV_CMDS[cmd] });
        }
        self.meter_src(src, cmd);
        conn
    }

    pub(crate) fn src_down(&mut self, src: usize, h: u64) -> Option<VNode> {
        let conn = self.note_src(src, 0);
        conn.counters.bump_down();
        let out = lock_unpoisoned(&conn.nav).down(&h)?;
        Some(VNode::new(VData::Src { src, h: out }))
    }

    pub(crate) fn src_right(&mut self, src: usize, h: u64) -> Option<VNode> {
        let conn = self.note_src(src, 1);
        conn.counters.bump_right();
        let out = lock_unpoisoned(&conn.nav).right(&h)?;
        Some(VNode::new(VData::Src { src, h: out }))
    }

    pub(crate) fn src_fetch(&mut self, src: usize, h: u64) -> Label {
        let conn = self.note_src(src, 2);
        conn.counters.bump_fetch();
        lock_unpoisoned(&conn.nav).fetch(&h)
    }

    pub(crate) fn src_select(&mut self, src: usize, h: u64, pred: &LabelPred) -> Option<VNode> {
        let conn = self.note_src(src, 3);
        conn.counters.bump_select();
        let out = lock_unpoisoned(&conn.nav).select(&h, pred)?;
        Some(VNode::new(VData::Src { src, h: out }))
    }

    /// What source `src` already knows of `d(h)` or `r(h)`: no count,
    /// no meter, no trace event.
    pub(crate) fn src_peek(&self, src: usize, h: u64, axis: Axis) -> Option<Option<VNode>> {
        let known = lock_unpoisoned(&self.sources[src].nav).peek(&h, axis)?;
        Some(known.map(|h| VNode::new(VData::Src { src, h })))
    }

    /// What source `src` already knows of `f(h)`, as [`Engine::src_peek`].
    pub(crate) fn src_peek_label(&self, src: usize, h: u64) -> Option<Label> {
        lock_unpoisoned(&self.sources[src].nav).peek_label(&h)
    }

    pub(crate) fn src_root(&mut self, src: usize) -> VNode {
        // Obtaining the root handle is free (§1).
        let h = lock_unpoisoned(&self.sources[src].nav).root();
        VNode::new(VData::Src { src, h })
    }

    // ---- explain analyze -----------------------------------------------

    /// Render the plan tree annotated with live per-operator metrics —
    /// the paper's Def. 2 made observable. Each operator line shows its
    /// binding-enumeration calls, how many produced a binding, the source
    /// commands charged to it alone (`src.self`, a partition of the
    /// total) and to its whole subtree (`src.cum`), and the navigation
    /// amplification `amp = src.cum / calls`. A bounded-browsable plan
    /// holds `amp` roughly constant as the client walks; an unbrowsable
    /// one (an `orderBy` above the group) spikes it on first touch
    /// because the whole input materializes behind one call.
    ///
    /// Below the tree: per-source wire traffic (always-on buffer
    /// counters) with the fill-latency summary, client-command totals,
    /// and the cross-check that per-operator self counts sum exactly to
    /// the metered per-source command total.
    pub fn explain_analyze(&self) -> String {
        fn collect(plan: &Plan, id: PlanId, depth: usize, rows: &mut Vec<(usize, PlanId)>) {
            rows.push((depth, id));
            for input in plan.node(id).inputs() {
                collect(plan, input, depth + 1, rows);
            }
        }
        let mut rows = Vec::new();
        collect(&self.plan, self.plan.root(), 0, &mut rows);
        let descs: Vec<String> = rows
            .iter()
            .map(|(d, id)| format!("{}{}", "  ".repeat(*d), self.plan.node_desc(*id)))
            .collect();
        let width = descs.iter().map(|d| d.chars().count()).max().unwrap_or(0).max(8);

        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE");
        if !self.metrics.is_enabled() {
            let _ = writeln!(
                out,
                "(metrics disabled — operator/command counts below are zero; enable by \
                 registering observed sources or Engine::set_metrics)"
            );
        }
        let _ = writeln!(
            out,
            "{:width$}  {:>5}  {:>8} {:>8} {:>9} {:>9} {:>8}",
            "operator", "op", "calls", "produced", "src.self", "src.cum", "amp"
        );
        for ((_, id), desc) in rows.iter().zip(&descs) {
            let m = &self.op_metrics[id.index()];
            let (calls, cum) = (m.calls.get(), m.src_navs_cum.get());
            let amp = if calls > 0 {
                format!("{:.2}", cum as f64 / calls as f64)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{desc:width$}  {:>5}  {:>8} {:>8} {:>9} {:>9} {:>8}",
                self.plan.op_id(*id).to_string(),
                calls,
                m.produced.get(),
                m.src_navs.get(),
                cum,
                amp
            );
        }

        let snap = self.metrics.snapshot();
        let _ = writeln!(out, "sources:");
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>6} {:>6} {:>6} {:>7} | {:>6} {:>6} {:>9} {:>8} {:>6}  fill ns p50/p90/p99/max",
            "name", "d", "r", "f", "s", "navs", "reqs", "holes", "bytes", "waste", "hits"
        );
        for s in &self.sources {
            let n = s.counters.snapshot();
            let navs = n.downs + n.rights + n.fetches + n.selects;
            let wire = s.stats.as_ref().map(BufferStats::snapshot);
            let col = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            // Shared-fragment-cache hits for this source (the buffer uri
            // matches the registered source name by convention).
            let hits = s
                .cache
                .as_ref()
                .or(self.frag_cache.as_ref())
                .map(|c| c.source_stats(&s.name).hits);
            let fill = snap
                .histogram("mix_fill_latency_ns", &[("source", &s.name)])
                .filter(|h| h.count > 0)
                .map(|h| format!("{}/{}/{}/{}", h.p50(), h.p90(), h.p99(), h.max))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "  {:<14} {:>6} {:>6} {:>6} {:>6} {:>7} | {:>6} {:>6} {:>9} {:>8} {:>6}  {fill}",
                s.name,
                n.downs,
                n.rights,
                n.fetches,
                n.selects,
                navs,
                col(wire.map(|t| t.requests)),
                col(wire.map(|t| t.batched_holes)),
                col(wire.map(|t| t.bytes_received)),
                col(wire.map(|t| t.wasted_bytes)),
                col(hits),
            );
        }

        let cmd_total: u64 = self.cmd_counters.iter().map(Counter::get).sum();
        let cmds: Vec<String> = NAV_CMDS
            .iter()
            .zip(&self.cmd_counters)
            .map(|(c, k)| format!("{c}={}", k.get()))
            .collect();
        let self_sum: u64 = self.op_metrics.iter().map(|m| m.src_navs.get()).sum();
        let metered_navs: u64 =
            self.sources.iter().map(|s| s.navs.iter().map(Counter::get).sum::<u64>()).sum();
        let _ = writeln!(out, "client commands: {} (total {cmd_total})", cmds.join(" "));
        let _ = writeln!(
            out,
            "source navs (metered): {metered_navs}; op src.self sum: {self_sum}; \
             degradations: {}",
            self.total_degraded_ops()
        );
        out
    }
}

fn build_op(
    plan: &Plan,
    id: PlanId,
    registry: &SourceRegistry,
    sources: &mut Vec<SourceConn>,
    state: &mut OpState,
) -> Result<OpSpec, EngineError> {
    Ok(match plan.node(id) {
        PlanNode::Source { name, out } => {
            // Same-named leaves share one connection (and its counters).
            let idx = match sources.iter().position(|s| &s.name == name) {
                Some(i) => i,
                None => {
                    let reg = registry.resolve(name)?;
                    sources.push(SourceConn {
                        name: name.clone(),
                        nav: reg.nav,
                        doc: VNode::new(VData::SrcDoc { src: sources.len() }),
                        counters: NavCounters::new(),
                        health: reg.health,
                        stats: reg.stats,
                        trace: reg.trace,
                        metrics: reg.metrics,
                        cache: reg.cache,
                        // Placeholder cells; `register_metric_series`
                        // replaces them once the registry is adopted.
                        navs: Default::default(),
                    });
                    sources.len() - 1
                }
            };
            OpSpec::Source { src: idx, out: out.clone() }
        }
        PlanNode::GetDescendants { input, parent, path, out } => {
            let nfa = mix_xmas::Nfa::compile(path);
            let start_set = nfa.start_set();
            OpSpec::GetDesc(GetDescSpec {
                input: *input,
                parent: parent.clone(),
                out: out.clone(),
                nfa,
                start_set,
            })
        }
        PlanNode::Select { input, pred } => {
            OpSpec::Select { input: *input, pred: pred.clone() }
        }
        PlanNode::Join { left, right, pred } => {
            let left_schema: HashSet<_> = plan.schema(*left).into_iter().collect();
            let right_schema: HashSet<_> = plan.schema(*right).into_iter().collect();
            let right_pred_vars: Vec<_> =
                pred.vars().into_iter().filter(|v| right_schema.contains(v)).collect();
            let eq_keys = pred
                .eq_join_keys(|v| left_schema.contains(v), |v| right_schema.contains(v))
                .map(|(a, b)| (a.clone(), b.clone()));
            OpSpec::Join(JoinSpec {
                left: *left,
                right: *right,
                pred: pred.clone(),
                left_schema,
                right_pred_vars,
                eq_keys,
                slot: new_slot(&mut state.joins),
            })
        }
        PlanNode::Cross { left, right } => OpSpec::Cross {
            left: *left,
            right: *right,
            left_schema: plan.schema(*left).into_iter().collect(),
        },
        PlanNode::Union { left, right } => OpSpec::Union { left: *left, right: *right },
        PlanNode::Difference { left, right } => OpSpec::Difference(DiffSpec {
            left: *left,
            right: *right,
            schema: plan.schema(*left),
            slot: new_slot(&mut state.right_keys),
        }),
        PlanNode::Project { input, keep } => {
            OpSpec::Project { input: *input, keep: keep.iter().cloned().collect() }
        }
        PlanNode::GroupBy { input, group, items } => OpSpec::GroupBy(GroupSpec {
            input: *input,
            group: group.clone(),
            items: items.clone(),
            slot: new_slot(&mut state.groups),
        }),
        PlanNode::Concatenate { input, x, y, out } => OpSpec::Concat {
            input: *input,
            x: x.clone(),
            y: y.clone(),
            out: out.clone(),
        },
        PlanNode::CreateElement { input, label, ch, out } => OpSpec::Create {
            input: *input,
            label: label.clone(),
            ch: ch.clone(),
            out: out.clone(),
        },
        PlanNode::Constant { input, value, out } => OpSpec::Constant {
            input: *input,
            doc: Arc::new(Document::from_tree(value)),
            out: out.clone(),
        },
        PlanNode::Wrap { input, var, out } => {
            OpSpec::Wrap { input: *input, var: var.clone(), out: out.clone() }
        }
        PlanNode::OrderBy { input, keys } => OpSpec::OrderBy {
            input: *input,
            keys: keys.clone(),
            slot: new_slot(&mut state.sorted),
        },
        PlanNode::TupleDestroy { .. } => OpSpec::Root,
    })
}

impl Navigator for Engine {
    type Handle = VNode;

    fn root(&mut self) -> VNode {
        // "The mediator returns a handle to the root element of the
        //  virtual XML answer document without even accessing the
        //  sources."
        VNode::new(VData::ClientRoot)
    }

    fn down(&mut self, p: &VNode) -> Option<VNode> {
        // First descent into the answer: prime the sources concurrently
        // before the sequential walk starts pulling on them one by one.
        if !self.warmed && self.config.threads > 1 {
            self.warm_sources();
        }
        if self.trace.is_enabled() {
            self.trace.begin_span("d");
        }
        if self.metrics_on() {
            self.cmd_counters[0].inc();
        }
        self.nav(|n| n.val_down(p))
    }

    fn right(&mut self, p: &VNode) -> Option<VNode> {
        if self.trace.is_enabled() {
            self.trace.begin_span("r");
        }
        if self.metrics_on() {
            self.cmd_counters[1].inc();
        }
        self.nav(|n| n.val_right(p))
    }

    fn fetch(&mut self, p: &VNode) -> Label {
        if self.trace.is_enabled() {
            self.trace.begin_span("f");
        }
        if self.metrics_on() {
            self.cmd_counters[2].inc();
        }
        self.nav(|n| n.val_fetch(p))
    }

    fn select(&mut self, p: &VNode, pred: &LabelPred) -> Option<VNode> {
        if self.trace.is_enabled() {
            self.trace.begin_span("s");
        }
        if self.metrics_on() {
            self.cmd_counters[3].inc();
        }
        self.nav(|n| n.val_select(p, pred))
    }

    /// Source nodes ask their source; every operator-synthesized node is
    /// answered from the operators' own state wherever its `d`/`r` needs
    /// no source command, and only with a node whose label is known the
    /// same way. Begins no span and counts nothing.
    fn peek(&mut self, p: &VNode, axis: Axis) -> Option<Option<VNode>> {
        self.val_peek(p, axis)
    }

    fn peek_label(&mut self, p: &VNode) -> Option<Label> {
        self.val_peek_label(p)
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use crate::registry::SourceRegistry;
    use mix_algebra::translate;
    use mix_buffer::{BufferNavigator, FillPolicy, SlowWrapper, TreeWrapper};
    use mix_nav::explore::materialize;
    use mix_xmas::parse_query;
    use mix_xml::term::parse_term;
    use std::time::Duration;

    /// Three independent sources crossed under nested groupings — the
    /// full walk must touch every source.
    const TRIO: &str = "CONSTRUCT <trio> <m> $A <n> $B $C {$C} </n> {$B} </m> {$A} </trio> {} \
                        WHERE aSrc adoc.item $A AND bSrc bdoc.item $B AND cSrc cdoc.item $C";

    const TERMS: [(&str, &str); 3] = [
        ("aSrc", "adoc[item[a1],item[a2]]"),
        ("bSrc", "bdoc[item[b1]]"),
        ("cSrc", "cdoc[item[c1],item[c2]]"),
    ];

    fn trio_plan() -> Plan {
        translate(&parse_query(TRIO).unwrap()).unwrap()
    }

    /// Each source is a buffered LXP wrapper with `delay` of injected
    /// wire latency per exchange, registered with its traffic counters.
    fn buffered_registry(delay: Duration) -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        for (name, term) in TERMS {
            let tree = parse_term(term).unwrap();
            let wrapper =
                SlowWrapper::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), delay);
            reg.add_buffer(name, BufferNavigator::new(wrapper, "doc"));
        }
        reg
    }

    /// `(requests, fills, batched_holes, bytes_received)` per source name.
    type WireKey = Vec<(String, Option<(u64, u64, u64, u64)>)>;

    fn wire_key(t: &[(String, Option<BufferStatsSnapshot>)]) -> WireKey {
        t.iter()
            .map(|(n, s)| {
                (
                    n.clone(),
                    s.as_ref()
                        .map(|s| (s.requests, s.fills, s.batched_holes, s.bytes_received)),
                )
            })
            .collect()
    }

    #[test]
    fn warm_up_overlaps_exchanges_across_three_sources() {
        let reg = buffered_registry(Duration::from_millis(20));
        let cfg = EngineConfig { threads: 4, ..EngineConfig::default() };
        let mut engine = Engine::with_config(trio_plan(), &reg, cfg).unwrap();
        assert_eq!(engine.threads(), 4);
        let root = engine.root();
        // The first descent triggers the warm-up; each source pays ≥two
        // 20 ms exchanges inside the gauge, so the three workers must be
        // observed in flight together.
        let _ = engine.down(&root);
        let gauge = engine.overlap();
        assert!(
            gauge.max_overlap() >= 2,
            "expected overlapping exchanges, high-water mark was {}",
            gauge.max_overlap()
        );
        assert_eq!(gauge.in_flight(), 0, "warm-up quiesced");
        assert_eq!(gauge.entered(), 3, "one warm exchange per source");
    }

    #[test]
    fn sequential_engine_never_overlaps() {
        let mut engine = Engine::new(trio_plan(), &buffered_registry(Duration::ZERO)).unwrap();
        let _ = materialize(&mut engine);
        assert_eq!(engine.overlap().max_overlap(), 0, "no warm-up at threads=1");
    }

    #[test]
    fn warmed_engine_matches_sequential_answers_and_counters() {
        let mut seq = Engine::new(trio_plan(), &buffered_registry(Duration::ZERO)).unwrap();
        let seq_answer = materialize(&mut seq);
        let seq_stats = seq.stats();
        let seq_traffic = seq.traffic();

        let cfg = EngineConfig { threads: 4, ..EngineConfig::default() };
        let mut par =
            Engine::with_config(trio_plan(), &buffered_registry(Duration::ZERO), cfg).unwrap();
        let par_answer = materialize(&mut par);
        assert!(par.overlap().entered() > 0, "warm-up ran");

        assert_eq!(par_answer.to_string(), seq_answer.to_string(), "byte-identical answer");
        // Warm-up is invisible to the engine's per-source command counts…
        assert_eq!(par.stats().per_source, seq_stats.per_source);
        // …and its wire work is a subset of the walk's, deduped by the
        // buffer's fill-once open tree: identical traffic counters.
        assert_eq!(wire_key(&par.traffic()), wire_key(&seq_traffic));
    }

    #[test]
    fn self_cum_partition_holds_after_a_full_walk() {
        let mut e = Engine::new(trio_plan(), &buffered_registry(Duration::ZERO)).unwrap();
        e.set_metrics(MetricsRegistry::enabled());
        let _ = materialize(&mut e);
        let metered: u64 = e
            .sources
            .iter()
            .map(|s| s.navs.iter().map(Counter::get).sum::<u64>())
            .sum();
        let self_sum: u64 = e.op_metrics.iter().map(|m| m.src_navs.get()).sum();
        assert!(metered > 0, "the walk issued source commands");
        assert_eq!(self_sum, metered, "per-operator self counts partition the metered total");
        for m in &e.op_metrics {
            assert!(m.src_navs_cum.get() >= m.src_navs.get(), "cum dominates self");
        }
    }
}
