//! The session-multiplexed VXD server.
//!
//! One [`VxdServer`] exports a set of named query *templates*. A client
//! opens a session over a template and navigates the resulting virtual
//! document with the four DOM-VXD verbs; every request frame names its
//! session, so one connection interleaves any number of sessions
//! (session multiplexing) and a connection is *not* a session.
//!
//! # Sharing contract
//!
//! Every session owns its navigation state — an [`Engine`] over fresh
//! per-session [`BufferNavigator`]s (open trees, pending batch caches)
//! and a private handle table — while all sessions share the pool's
//! wrapper connections, **one** [`FragmentCache`], and **one**
//! [`MetricsRegistry`] (see [`SessionSources`]). A warm template answers
//! later sessions from the shared cache with zero wire exchanges.
//!
//! # Fault containment
//!
//! Every navigation runs under `catch_unwind` while holding only that
//! session's lock: a panicking session is force-closed and answered with
//! a typed [`ErrorCode::Internal`] — its neighbours never notice. An
//! `Open` answers `d(root)` under the same boundary, before the session
//! exists: a panic there opens no session.
//! Session locks are poison-recovering, so even the panicked session's
//! state can be torn down cleanly. Session teardown releases everything
//! the session owned: its engine (hence its buffers and their pending
//! caches) and its per-session metric series
//! (`mix_serve_session_commands_total{session="N"}` is unregistered so
//! the registry cannot grow without bound under churn).
//!
//! [`BufferNavigator`]: mix_buffer::BufferNavigator

use crate::codec::{
    shipped_node_len, ErrorCode, FirstAnswer, FrameStream, Link, Reply, Request, ShippedNode,
    TraceContext, Verb, MAX_FRAME, MAX_STR, NODES_HEADER_LEN,
};
use crate::pool::SessionSources;
use mix_algebra::{translate, Plan};
use mix_buffer::{
    lock_unpoisoned, Counter, FragmentCache, Gauge, Histogram, HealthStatus, MetricsRegistry,
    SourceHealth,
};
use mix_core::{
    Degraded, Engine, EngineConfig, SemanticOutcome, TraceKind, TraceLog, TraceSink, VNode,
};
use mix_nav::explore::materialize;
use mix_nav::{Axis, HandleTable, LabelPred, Navigator};
use mix_xml::Label;
use mix_xmas::parse_query;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default ceiling on concurrently open sessions.
pub const DEFAULT_MAX_SESSIONS: usize = 65_536;

/// Default slow-navigation threshold (10 ms); change it with
/// [`VxdServer::set_slow_nav_threshold`].
pub const DEFAULT_SLOW_NAV_NS: u64 = 10_000_000;

/// Most nodes one `d`/`r`/`select` or `Open` reply ships: the reached
/// node and its known neighbourhood.
pub const MAX_SHIPPED_NODES: usize = 32;

/// Entries the slow-navigation ring retains (oldest evicted first).
pub const SLOW_NAV_CAPACITY: usize = 256;

/// Closed traced sessions whose rings are retained for post-mortem
/// inspection via [`VxdServer::session_trace`].
pub const CLOSED_TRACE_CAPACITY: usize = 64;

/// Label values for the four navigation verbs (RED series are split on
/// them); a verb's index here is its slot in every per-verb table.
pub const VERB_LABELS: [&str; 4] = ["d", "r", "f", "select"];

/// The [`VERB_LABELS`] slot an `Open`'s `d(root)` is counted in.
const D_ROOT: usize = 0;

/// The wire-span name of each navigation verb, in [`VERB_LABELS`] order
/// (the engine's span names, so a merged trace shows one consistent
/// command vocabulary).
const VERB_SPANS: [&str; 4] = ["d", "r", "f", "s"];

/// RED series for one navigation verb: rate (`total`), errors, duration.
struct VerbStats {
    total: Counter,
    errors: Counter,
    latency: Histogram,
}

/// One slow-navigation record: which session and verb crossed the
/// threshold, how long it took, and the span ids that explain it —
/// `server_span` indexes the session's flight recorder
/// ([`VxdServer::why`]), `client_span` is the remote parent when the
/// request carried a trace context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowNav {
    /// The session that served the navigation.
    pub session: u64,
    /// Verb label (`d`/`r`/`f`/`select`); an `Open`'s `d(root)` is a
    /// `d`, at the span the open's warm-up ran in.
    pub verb: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: u64,
    /// The server-side span the navigation ran under (0 when the session
    /// is untraced).
    pub server_span: u64,
    /// The client-side parent span, when the frame carried a context.
    pub client_span: Option<u64>,
}

/// The typed answer of [`VxdServer::why`]: either the span's explanation
/// or *which way* the lookup came up empty — an operator chasing a
/// [`SlowNav`] entry must be able to tell "that span recorded nothing"
/// from "the trace aged out of the retention buffer".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WhyAnswer {
    /// The span's recorded events, one line each.
    Explained(String),
    /// The session exists (or existed) but never had a flight recorder.
    Untraced,
    /// The session was traced, but its ring has been evicted from the
    /// bounded closed-trace buffer ([`CLOSED_TRACE_CAPACITY`]).
    TraceEvicted,
    /// The session's trace is available but records nothing at that span.
    UnknownSpan,
    /// No such session was ever opened.
    UnknownSession,
}

impl WhyAnswer {
    /// The explanation text, if there is one.
    pub fn explanation(&self) -> Option<&str> {
        match self {
            WhyAnswer::Explained(text) => Some(text),
            _ => None,
        }
    }
}

impl std::fmt::Display for WhyAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WhyAnswer::Explained(text) => write!(f, "{text}"),
            WhyAnswer::Untraced => write!(f, "session is untraced (no flight recorder)"),
            WhyAnswer::TraceEvicted => write!(
                f,
                "trace evicted: the session closed more than {CLOSED_TRACE_CAPACITY} \
                 traced sessions ago"
            ),
            WhyAnswer::UnknownSpan => write!(f, "the trace records nothing at that span"),
            WhyAnswer::UnknownSession => write!(f, "no such session"),
        }
    }
}

/// One row of the live session table ([`VxdServer::sessions_table`],
/// `/sessions`).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// Session id.
    pub session: u64,
    /// The template the session navigates.
    pub template: String,
    /// Navigation verbs served so far.
    pub commands: u64,
    /// Seconds since the session opened.
    pub age_secs: f64,
    /// Is the session's flight recorder on (opened by a traced client)?
    pub traced: bool,
}

/// One row of the health surface ([`VxdServer::source_health`],
/// `/healthz`): pool-level per-source status aggregated across sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceHealthInfo {
    /// Source name.
    pub source: String,
    /// Aggregated status across every session's navigator.
    pub status: HealthStatus,
    /// Operations that returned a degraded answer.
    pub degraded_ops: u64,
    /// Transient errors retried away.
    pub retries: u64,
}

struct Template {
    plan: Plan,
    /// Fault injection: sessions over this template panic on `Fetch`
    /// (the instrument proving a panicked session cannot take the
    /// server down — the serving twin of `FaultyWrapper`).
    panic_on_fetch: bool,
}

struct Session {
    /// The session's engine behind its wire handles. Handles are private
    /// per session: they are meaningless across sessions, exactly like the
    /// paper's node ids are private to one mediator conversation.
    nav: HandleTable<Engine>,
    /// `mix_serve_session_commands_total{session="N"}` — unregistered at
    /// close.
    commands: Counter,
    /// `mix_serve_session_ids_total{session="N"}`: wire handles issued,
    /// one per node the session ever shipped — the handle table's size.
    /// Unregistered at close.
    ids: Counter,
    panic_on_fetch: bool,
    /// The session's flight recorder — enabled when the Open frame
    /// carried a sampled [`TraceContext`], off otherwise.
    trace: TraceSink,
    /// The template this session navigates (for the session table).
    template: String,
    /// When the session opened (for the session table).
    opened_at: Instant,
}

struct ServerShared {
    templates: HashMap<String, Template>,
    pool: SessionSources,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    next_session: AtomicU64,
    max_sessions: usize,
    config: EngineConfig,
    metrics: MetricsRegistry,
    /// `mix_serve_sessions` — sessions open right now.
    sessions_gauge: Gauge,
    opened_total: Counter,
    closed_total: Counter,
    panics_total: Counter,
    degraded_total: Counter,
    /// `mix_serve_nav_latency_ns{verb=…}` plus rate/error counters, one
    /// entry per [`VERB_LABELS`] slot (the RED split).
    verb_stats: [VerbStats; 4],
    /// Slow-navigation threshold in ns (0 records every navigation).
    slow_threshold_ns: AtomicU64,
    /// `mix_serve_slow_navs_total` — navigations over the threshold.
    slow_total: Counter,
    /// The slow-navigation ring, newest last (cap [`SLOW_NAV_CAPACITY`]).
    slow_navs: Mutex<VecDeque<SlowNav>>,
    /// Rings of recently *closed* traced sessions, so a trace can be read
    /// after the client hung up (cap [`CLOSED_TRACE_CAPACITY`]).
    closed_traces: Mutex<VecDeque<(u64, TraceSink)>>,
    /// `mix_serve_semcache_total{outcome=covered|partial|miss}` — one
    /// increment per session open under a semantic-cache engine config.
    semcache_outcomes: [Counter; 3],
}

/// Metric-slot index of a semantic-rewrite outcome
/// (order of [`SEMCACHE_OUTCOME_LABELS`]).
fn outcome_slot(outcome: SemanticOutcome) -> usize {
    match outcome {
        SemanticOutcome::Covered => 0,
        SemanticOutcome::Partial => 1,
        SemanticOutcome::Miss => 2,
    }
}

/// Label values of `mix_serve_semcache_total`, in `outcome_slot` order.
pub const SEMCACHE_OUTCOME_LABELS: [&str; 3] = ["covered", "partial", "miss"];

/// A session-multiplexed VXD server (see module docs). Cheap to clone;
/// clones share the session table, the pool, and all metrics.
#[derive(Clone)]
pub struct VxdServer {
    shared: Arc<ServerShared>,
}

impl VxdServer {
    /// A server over a shared source pool, with no templates yet.
    pub fn new(pool: SessionSources) -> Self {
        let metrics = pool.metrics();
        let sessions_gauge =
            metrics.gauge("mix_serve_sessions", "sessions open right now", &[]);
        let opened_total =
            metrics.counter("mix_serve_sessions_opened_total", "sessions ever opened", &[]);
        let closed_total =
            metrics.counter("mix_serve_sessions_closed_total", "sessions ever closed", &[]);
        let panics_total = metrics.counter(
            "mix_serve_session_panics_total",
            "sessions force-closed after panicking",
            &[],
        );
        let degraded_total = metrics.counter(
            "mix_serve_degraded_replies_total",
            "replies naming degraded sources: DegradedLabel, and Opened",
            &[],
        );
        let verb_stats = VERB_LABELS.map(|verb| VerbStats {
            total: metrics.counter(
                "mix_serve_verb_requests_total",
                "navigation verbs served, by verb",
                &[("verb", verb)],
            ),
            errors: metrics.counter(
                "mix_serve_verb_errors_total",
                "navigation verbs answered with an error, by verb",
                &[("verb", verb)],
            ),
            latency: metrics.histogram(
                "mix_serve_nav_latency_ns",
                "server-side latency of one navigation verb",
                &[("verb", verb)],
            ),
        });
        let slow_total = metrics.counter(
            "mix_serve_slow_navs_total",
            "navigations slower than the slow-nav threshold",
            &[],
        );
        let semcache_outcomes = SEMCACHE_OUTCOME_LABELS.map(|outcome| {
            metrics.counter(
                "mix_serve_semcache_total",
                "semantic-rewrite outcomes at session open, by outcome",
                &[("outcome", outcome)],
            )
        });
        VxdServer {
            shared: Arc::new(ServerShared {
                templates: HashMap::new(),
                pool,
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(0),
                max_sessions: DEFAULT_MAX_SESSIONS,
                config: EngineConfig::default(),
                metrics,
                sessions_gauge,
                opened_total,
                closed_total,
                panics_total,
                degraded_total,
                verb_stats,
                slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_NAV_NS),
                slow_total,
                slow_navs: Mutex::new(VecDeque::new()),
                closed_traces: Mutex::new(VecDeque::new()),
                semcache_outcomes,
            }),
        }
    }

    fn shared_mut(&mut self) -> &mut ServerShared {
        Arc::get_mut(&mut self.shared).expect("configure the server before cloning/serving")
    }

    /// Export a XMAS query under `name`. Fails on malformed queries.
    pub fn add_template(&mut self, name: impl Into<String>, query: &str) -> Result<&mut Self, String> {
        let plan = translate(&parse_query(query).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        self.add_template_plan(name, plan);
        Ok(self)
    }

    /// Export a pre-translated plan under `name`.
    pub fn add_template_plan(&mut self, name: impl Into<String>, plan: Plan) -> &mut Self {
        self.shared_mut()
            .templates
            .insert(name.into(), Template { plan, panic_on_fetch: false });
        self
    }

    /// Export a query whose sessions panic on a `Fetch` frame — deliberate
    /// fault injection for proving panic isolation under load. `f` of the
    /// root always sends one; `f` of a node a `d`/`r` reply shipped is
    /// answered by the client and does not.
    pub fn add_panic_template(
        &mut self,
        name: impl Into<String>,
        query: &str,
    ) -> Result<&mut Self, String> {
        let plan = translate(&parse_query(query).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        self.shared_mut()
            .templates
            .insert(name.into(), Template { plan, panic_on_fetch: true });
        Ok(self)
    }

    /// Cap concurrently open sessions (default [`DEFAULT_MAX_SESSIONS`]).
    pub fn with_max_sessions(mut self, max: usize) -> Self {
        self.shared_mut().max_sessions = max.max(1);
        self
    }

    /// Engine configuration for every session's engine.
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        self.shared_mut().config = config;
        self
    }

    /// Materialize template `name` once over a pooled registry and record
    /// the answer in the pool's shared [`ViewCatalog`] — after this, any
    /// session whose query the view covers is answered entirely from the
    /// catalog, with zero wire exchanges. Returns whether a new view was
    /// recorded (`false`: the plan's shape is not recordable, or an
    /// equivalent view is already cataloged).
    ///
    /// [`ViewCatalog`]: mix_core::ViewCatalog
    pub fn warm_template(&self, name: &str) -> Result<bool, String> {
        let sh = &*self.shared;
        let tpl = sh.templates.get(name).ok_or_else(|| format!("no template `{name}`"))?;
        let registry = sh.pool.registry_for_session();
        let config = EngineConfig { semantic_cache: true, ..sh.config };
        let mut engine = Engine::with_config(tpl.plan.clone(), &registry, config)
            .map_err(|e| e.to_string())?;
        let answer = materialize(&mut engine);
        Ok(engine.record_view(&answer))
    }

    /// Sessions open right now.
    pub fn session_count(&self) -> usize {
        lock_unpoisoned(&self.shared.sessions).len()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.metrics.clone()
    }

    /// The shared fragment cache.
    pub fn cache(&self) -> FragmentCache {
        self.shared.pool.cache()
    }

    /// Change the slow-navigation threshold at runtime (ns; 0 records
    /// every navigation). Initial value: [`DEFAULT_SLOW_NAV_NS`].
    pub fn set_slow_nav_threshold(&self, ns: u64) {
        self.shared.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The current slow-navigation threshold in ns.
    pub fn slow_nav_threshold(&self) -> u64 {
        self.shared.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// The slow-navigation ring, oldest first.
    pub fn slow_navs(&self) -> Vec<SlowNav> {
        lock_unpoisoned(&self.shared.slow_navs).iter().cloned().collect()
    }

    /// The flight-recorder log of a traced session — live or recently
    /// closed ([`CLOSED_TRACE_CAPACITY`] rings are retained past close).
    /// `None` for unknown or untraced sessions.
    pub fn session_trace(&self, id: u64) -> Option<TraceLog> {
        if let Some(session) = lock_unpoisoned(&self.shared.sessions).get(&id).cloned() {
            let s = lock_unpoisoned(&session);
            if s.trace.is_enabled() {
                return Some(TraceLog::from_sink(&s.trace));
            }
            return None;
        }
        lock_unpoisoned(&self.shared.closed_traces)
            .iter()
            .rev()
            .find(|(sid, _)| *sid == id)
            .map(|(_, sink)| TraceLog::from_sink(sink))
    }

    /// Explain one server-side span of a traced session: the recorded
    /// events of that span, one line each — the lookup a [`SlowNav`]'s
    /// `server_span` points at. Every way the lookup can come up empty is
    /// a distinct [`WhyAnswer`] variant; in particular a slow-log entry
    /// whose session's ring has aged out of the bounded closed-trace
    /// buffer answers [`WhyAnswer::TraceEvicted`], not silence.
    pub fn why(&self, session: u64, span: u64) -> WhyAnswer {
        let explain = |log: TraceLog| {
            let events = log.by_span(span);
            if events.is_empty() {
                return WhyAnswer::UnknownSpan;
            }
            WhyAnswer::Explained(
                events.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("\n"),
            )
        };
        if let Some(live) = lock_unpoisoned(&self.shared.sessions).get(&session).cloned() {
            let s = lock_unpoisoned(&live);
            if !s.trace.is_enabled() {
                return WhyAnswer::Untraced;
            }
            return explain(TraceLog::from_sink(&s.trace));
        }
        if let Some(sink) = lock_unpoisoned(&self.shared.closed_traces)
            .iter()
            .rev()
            .find(|(sid, _)| *sid == session)
            .map(|(_, sink)| sink.clone())
        {
            return explain(TraceLog::from_sink(&sink));
        }
        // Not live, no retained ring. Session ids are issued densely from
        // 1, so anything outside the issued range never existed; inside
        // it, a real server-side span (non-zero) proves the session was
        // traced — its ring has been evicted from the bounded buffer.
        let issued = self.shared.next_session.load(Ordering::Relaxed);
        if session == 0 || session > issued {
            return WhyAnswer::UnknownSession;
        }
        if span == 0 {
            WhyAnswer::Untraced
        } else {
            WhyAnswer::TraceEvicted
        }
    }

    /// The live session table, one row per open session, session-id order.
    pub fn sessions_table(&self) -> Vec<SessionInfo> {
        let sessions: Vec<(u64, Arc<Mutex<Session>>)> = lock_unpoisoned(&self.shared.sessions)
            .iter()
            .map(|(id, s)| (*id, Arc::clone(s)))
            .collect();
        let mut rows: Vec<SessionInfo> = sessions
            .into_iter()
            .map(|(id, session)| {
                let s = lock_unpoisoned(&session);
                SessionInfo {
                    session: id,
                    template: s.template.clone(),
                    commands: s.commands.get(),
                    age_secs: s.opened_at.elapsed().as_secs_f64(),
                    traced: s.trace.is_enabled(),
                }
            })
            .collect();
        rows.sort_by_key(|r| r.session);
        rows
    }

    /// Pool-level per-source health, aggregated across every session's
    /// navigators — the `/healthz` surface.
    pub fn source_health(&self) -> Vec<SourceHealthInfo> {
        self.shared
            .pool
            .health()
            .into_iter()
            .map(|(source, health): (String, SourceHealth)| {
                let snap = health.snapshot();
                SourceHealthInfo {
                    source,
                    status: snap.status,
                    degraded_ops: snap.degraded_ops,
                    retries: snap.retries,
                }
            })
            .collect()
    }

    /// Handle one request frame and produce its reply. This is the whole
    /// server semantics; connection loops and tests drive this directly.
    ///
    /// A frame with a sampled [`TraceContext`] links the server-side span
    /// that serves it to the client span in the context — for `Open`, it
    /// also turns the new session's flight recorder on. The reply bytes
    /// are identical either way: tracing is pure observation.
    pub fn handle(&self, req: &Request) -> Reply {
        let ctx = req.trace.filter(|c| c.sampled);
        let id = req.session;
        match &req.verb {
            Verb::Open { template } => self.open(template, ctx),
            Verb::Close => self.close(id, ctx),
            Verb::Down { node: h } => {
                self.navigate(id, 0, ctx, |s| step(&mut s.nav, *h, |e, p| e.down(p)))
            }
            Verb::Right { node: h } => {
                self.navigate(id, 1, ctx, |s| step(&mut s.nav, *h, |e, p| e.right(p)))
            }
            Verb::Fetch { node: h } => self.navigate(id, 2, ctx, |s| match s.nav.lookup(*h) {
                None => unknown_handle(*h),
                Some(_) if s.panic_on_fetch => panic!("injected session panic (panic template)"),
                Some((engine, p)) => label_reply(engine.fetch_checked(p)),
            }),
            Verb::Select { node: h, label } => self.navigate(id, 3, ctx, |s| {
                step(&mut s.nav, *h, |e, p| e.select(p, &LabelPred::equals(label.as_str())))
            }),
        }
    }

    fn close(&self, id: u64, ctx: Option<TraceContext>) -> Reply {
        // A traced close records its own span before teardown so the
        // final frame is linked like every other.
        if let Some(ctx) = ctx {
            if let Some(session) = lock_unpoisoned(&self.shared.sessions).get(&id).cloned() {
                let s = lock_unpoisoned(&session);
                if s.trace.is_enabled() {
                    s.trace.begin_span("close");
                    let link = TraceKind::WireSpan { client_span: ctx.span, verb: "close" };
                    s.trace.emit(None, link);
                }
            }
        }
        if self.close_session(id) {
            Reply::Closed
        } else {
            unknown_session(id)
        }
    }

    fn open(&self, template: &str, ctx: Option<TraceContext>) -> Reply {
        let sh = &*self.shared;
        let Some(tpl) = sh.templates.get(template) else {
            return Reply::Error {
                code: ErrorCode::UnknownTemplate,
                msg: format!("no template `{template}`"),
            };
        };
        if self.session_count() >= sh.max_sessions {
            return Reply::Error {
                code: ErrorCode::SessionLimit,
                msg: format!("at the {} concurrent-session limit", sh.max_sessions),
            };
        }
        // A sampled Open turns the session's own flight recorder on: the
        // engine and every session buffer share one ring, and the span-0
        // wire link below lets the merge re-parent warm-up work onto the
        // client's `open` span.
        let trace = match ctx {
            Some(_) => TraceSink::enabled(mix_core::DEFAULT_TRACE_CAPACITY),
            None => TraceSink::default(),
        };
        let registry = if trace.is_enabled() {
            sh.pool.registry_for_session_traced(&trace)
        } else {
            sh.pool.registry_for_session()
        };
        let mut engine = match Engine::with_config(tpl.plan.clone(), &registry, sh.config) {
            Ok(e) => e,
            Err(e) => {
                return Reply::Error { code: ErrorCode::Internal, msg: e.to_string() };
            }
        };
        if let Some(outcome) = engine.semantic_outcome() {
            sh.semcache_outcomes[outcome_slot(outcome)].inc();
        }
        // Every client's first command is `d(root)`, so the open answers
        // it: under the panic boundary a navigation runs under, before
        // the session exists, and in the warm-up's span, which the `open`
        // link below names. What a degraded source produced stays behind.
        // It is served as a `d`, and counted and timed as one.
        let start = Instant::now();
        let answered = catch_unwind(AssertUnwindSafe(move || {
            let root = engine.root();
            let (shipment, degraded) = engine.degraded_during(|e| {
                let reached = e.down_in_span(&root);
                ship(e, reached)
            });
            let mut nav = HandleTable::new(engine);
            let root = nav.root();
            let first = match shipment {
                _ if !degraded.is_empty() => FirstAnswer::Unknown { degraded },
                Shipment::End => FirstAnswer::End,
                // A label no frame carries: the client's `d(root)` crosses.
                Shipment::Bare(_) => FirstAnswer::Unknown { degraded },
                Shipment::Nodes { nodes, held } => {
                    FirstAnswer::Nodes(number(&mut nav, nodes, held))
                }
            };
            (nav, root, first)
        }));
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        self.observe(D_ROOT, elapsed_ns, answered.is_err());
        let Ok((nav, root_handle, first)) = answered else {
            sh.panics_total.inc();
            return Reply::Error {
                code: ErrorCode::Internal,
                msg: format!("opening a session over `{template}` panicked"),
            };
        };
        if matches!(&first, FirstAnswer::Unknown { degraded } if !degraded.is_empty()) {
            sh.degraded_total.inc();
        }
        let id = sh.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let commands = sh.metrics.counter(
            "mix_serve_session_commands_total",
            "navigation verbs served per session",
            &[("session", &id.to_string())],
        );
        let ids = sh.metrics.counter(
            "mix_serve_session_ids_total",
            "wire handles issued per session (its handle table's size)",
            &[("session", &id.to_string())],
        );
        if let Some(ctx) = ctx {
            // Engine warm-up and `d(root)` above ran at span 0; link it to
            // the client's `open` span and surface this ring's overflow
            // counter under the session label (swept at close with the
            // other series).
            trace.emit(None, TraceKind::WireSpan { client_span: ctx.span, verb: "open" });
            trace.bind_into(&sh.metrics, &[("session", &id.to_string())]);
        }
        commands.inc();
        ids.add(nav.issued());
        self.note_if_slow(SlowNav {
            session: id,
            verb: VERB_LABELS[D_ROOT],
            elapsed_ns,
            server_span: if trace.is_enabled() { trace.current_span() } else { 0 },
            client_span: ctx.map(|c| c.span),
        });
        let session = Session {
            nav,
            commands,
            ids,
            panic_on_fetch: tpl.panic_on_fetch,
            trace,
            template: template.to_string(),
            opened_at: Instant::now(),
        };
        lock_unpoisoned(&sh.sessions).insert(id, Arc::new(Mutex::new(session)));
        sh.sessions_gauge.add(1);
        sh.opened_total.inc();
        Reply::Opened { session: id, root: root_handle, first }
    }

    /// Serve navigation verb `verb` (its [`VERB_LABELS`] slot) on one
    /// session with `serve`.
    fn navigate(
        &self,
        session_id: u64,
        verb: usize,
        ctx: Option<TraceContext>,
        serve: impl FnOnce(&mut Session) -> Reply,
    ) -> Reply {
        let sh = &*self.shared;
        let vs = &sh.verb_stats[verb];
        let Some(session) = lock_unpoisoned(&sh.sessions).get(&session_id).cloned() else {
            vs.total.inc();
            vs.errors.inc();
            return unknown_session(session_id);
        };
        let start = Instant::now();
        // The panic boundary: whatever a session's engine does, only this
        // session is lost. The lock guard lives inside, so a panicked
        // session's mutex is merely poisoned (and poison is recovered by
        // the teardown path), never held forever.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = lock_unpoisoned(&session);
            let s = &mut *guard;
            s.commands.inc();
            let issued_before = s.nav.issued();
            let reply = serve(s);
            s.ids.add(s.nav.issued() - issued_before);
            // The engine's nav verb began the server-side span; link it
            // to the client span *after* the call so the wire-span event
            // lands inside the span it describes. An unknown handle began
            // no span, so it carries no link.
            if let Some(ctx) = ctx {
                let began =
                    !matches!(reply, Reply::Error { code: ErrorCode::UnknownHandle, .. });
                if s.trace.is_enabled() && began {
                    s.trace.emit(
                        None,
                        TraceKind::WireSpan { client_span: ctx.span, verb: VERB_SPANS[verb] },
                    );
                }
            }
            let server_span = if s.trace.is_enabled() { s.trace.current_span() } else { 0 };
            (reply, server_span)
        }));
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let failed = match &outcome {
            Ok((reply, _)) => matches!(reply, Reply::Error { .. }),
            Err(_) => true,
        };
        self.observe(verb, elapsed_ns, failed);
        match outcome {
            Ok((reply, server_span)) => {
                if matches!(reply, Reply::DegradedLabel { .. }) {
                    sh.degraded_total.inc();
                }
                self.note_if_slow(SlowNav {
                    session: session_id,
                    verb: VERB_LABELS[verb],
                    elapsed_ns,
                    server_span,
                    client_span: ctx.map(|c| c.span),
                });
                reply
            }
            Err(_) => {
                sh.panics_total.inc();
                self.close_session(session_id);
                Reply::Error {
                    code: ErrorCode::Internal,
                    msg: format!("session {session_id} panicked and was closed"),
                }
            }
        }
    }

    /// Count one served navigation verb (its [`VERB_LABELS`] slot) in its
    /// RED series.
    fn observe(&self, verb: usize, elapsed_ns: u64, failed: bool) {
        let vs = &self.shared.verb_stats[verb];
        vs.total.inc();
        vs.latency.observe(elapsed_ns);
        if failed {
            vs.errors.inc();
        }
    }

    /// Keep `nav` in the slow-navigation ring if it crossed the threshold.
    fn note_if_slow(&self, nav: SlowNav) {
        let sh = &*self.shared;
        if nav.elapsed_ns < sh.slow_threshold_ns.load(Ordering::Relaxed) {
            return;
        }
        sh.slow_total.inc();
        let mut ring = lock_unpoisoned(&sh.slow_navs);
        if ring.len() >= SLOW_NAV_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(nav);
    }

    /// Tear a session down: drop its engine (buffers, open trees, pending
    /// batch caches) and unregister its per-session metric series.
    /// Returns whether the session existed.
    fn close_session(&self, id: u64) -> bool {
        let sh = &*self.shared;
        let Some(session) = lock_unpoisoned(&sh.sessions).remove(&id) else {
            return false;
        };
        // A traced session's ring outlives it (bounded), so the merge can
        // run after the client hung up. The sink is an Arc'd ring, not
        // the engine — the engine and its buffers still drop right here.
        {
            let s = lock_unpoisoned(&session);
            if s.trace.is_enabled() {
                let mut retained = lock_unpoisoned(&sh.closed_traces);
                if retained.len() >= CLOSED_TRACE_CAPACITY {
                    retained.pop_front();
                }
                retained.push_back((id, s.trace.clone()));
            }
        }
        drop(session);
        sh.metrics.unregister_labeled("session", &id.to_string());
        sh.sessions_gauge.sub_saturating(1);
        sh.closed_total.inc();
        true
    }

    /// Serve one connection until the peer disconnects. Sessions opened
    /// on this connection and still open at disconnect are force-closed —
    /// a vanished client must not leak sessions.
    pub fn serve_connection<S: Read + Write>(&self, stream: S) {
        let mut frames = FrameStream::new(stream);
        let mut owned: HashSet<u64> = HashSet::new();
        loop {
            let reply = match frames.recv_request() {
                Err(_) => break, // disconnect (clean or not)
                Ok(Err(parse_err)) => Reply::Error {
                    code: ErrorCode::BadFrame,
                    msg: parse_err.to_string(),
                },
                Ok(Ok(req)) => {
                    let reply = self.handle(&req);
                    match &reply {
                        Reply::Opened { session, .. } => {
                            owned.insert(*session);
                        }
                        Reply::Closed => {
                            owned.remove(&req.session);
                        }
                        // A panicked session was already force-closed.
                        Reply::Error { code: ErrorCode::Internal, .. } => {
                            owned.remove(&req.session);
                        }
                        _ => {}
                    }
                    reply
                }
            };
            if frames.send_reply(&reply).is_err() {
                break;
            }
        }
        for id in owned {
            self.close_session(id);
        }
    }

    /// Serve TCP connections on `addr` until the handle is shut down.
    /// Each connection gets its own thread; sessions are multiplexed
    /// *within* connections, so thousands of sessions need only as many
    /// threads as there are connections.
    pub fn serve_tcp(&self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let server = self.clone();
        let stop2 = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let server = server.clone();
                std::thread::spawn(move || server.serve_connection(stream));
            }
        });
        Ok(ServerHandle { local_addr, stop, accept: Some(accept) })
    }
}

fn unknown_session(id: u64) -> Reply {
    Reply::Error { code: ErrorCode::UnknownSession, msg: format!("no session {id}") }
}

/// A `d`/`r`/`select` verb from handle `h`: what [`ship`] makes of the
/// node `go` reaches, numbered in the session's handle table.
fn step(
    nav: &mut HandleTable<Engine>,
    h: u64,
    go: impl FnOnce(&mut Engine, &VNode) -> Option<VNode>,
) -> Reply {
    let Some((engine, p)) = nav.lookup(h) else {
        return unknown_handle(h);
    };
    let reached = go(engine, p);
    match ship(engine, reached) {
        Shipment::End => Reply::End,
        Shipment::Bare(reached) => Reply::Node { handle: nav.issue(reached) },
        Shipment::Nodes { nodes, held } => Reply::Nodes { nodes: number(nav, nodes, held) },
    }
}

/// What a reply ships of a node a navigation reached, before the session
/// numbers its nodes.
enum Shipment {
    /// The navigation reached nothing: the end of the axis.
    End,
    /// The reached node's label cannot ship: the node goes alone.
    Bare(VNode),
    /// The reached node first, then its known neighbourhood; `nodes[i]`
    /// describes `held[i]`.
    Nodes { nodes: Vec<ShippedNode>, held: Vec<VNode> },
}

/// The node a navigation reached and its known neighbourhood.
///
/// The reached node ships first, with its label, when the label is
/// complete and a frame can carry it. Then, breadth first, every node its
/// `d`/`r` links lead to where the engine answers them without a source
/// command ([`Navigator::peek`]), up to [`MAX_SHIPPED_NODES`] and the
/// frame cap. A neighbour whose label cannot ship is left out, and its
/// link is unknown. Labels are fetched within the verb's own server span.
/// A reached node whose label is degraded or over-long ships alone as a
/// bare `Node`: the client's `f` then crosses the wire and gets
/// `DegradedLabel` or `LabelTooLong` from [`label_reply`].
fn ship(engine: &mut Engine, reached: Option<VNode>) -> Shipment {
    let Some(reached) = reached else {
        return Shipment::End;
    };
    let Some(label) = shippable(engine.fetch_checked_in_span(&reached)) else {
        return Shipment::Bare(reached);
    };
    let mut bytes = NODES_HEADER_LEN + shipped_node_len(label.len());
    let mut nodes = vec![unlinked(label)];
    let mut held = vec![reached];
    let mut at = 0;
    while at < held.len() {
        for axis in [Axis::Down, Axis::Right] {
            let link = match engine.peek(&held[at], axis) {
                None => Link::Unknown,
                Some(None) => Link::End,
                Some(Some(_)) if held.len() == MAX_SHIPPED_NODES => Link::Unknown,
                Some(Some(next)) => match shippable(engine.fetch_checked_in_span(&next)) {
                    Some(label) if bytes + shipped_node_len(label.len()) <= MAX_FRAME as usize => {
                        bytes += shipped_node_len(label.len());
                        nodes.push(unlinked(label));
                        held.push(next);
                        Link::To((held.len() - 1) as u16)
                    }
                    _ => Link::Unknown,
                },
            };
            match axis {
                Axis::Down => nodes[at].down = link,
                Axis::Right => nodes[at].right = link,
            }
        }
        at += 1;
    }
    Shipment::Nodes { nodes, held }
}

/// Number each shipped node in the session's handle table.
fn number(
    nav: &mut HandleTable<Engine>,
    mut nodes: Vec<ShippedNode>,
    held: Vec<VNode>,
) -> Vec<ShippedNode> {
    for (node, v) in nodes.iter_mut().zip(held) {
        node.handle = nav.issue(v);
    }
    nodes
}

/// A label a frame carries whole: complete, and at most [`MAX_STR`] bytes.
fn shippable(fetched: Result<Label, Degraded>) -> Option<String> {
    fetched.ok().filter(|l| l.len() <= MAX_STR).map(|l| l.to_string())
}

/// A shipped node before its links are known and its handle is issued.
fn unlinked(label: String) -> ShippedNode {
    ShippedNode { handle: 0, label, down: Link::Unknown, right: Link::Unknown }
}

/// The reply to `f`. The checked fetch API is the wire contract: a
/// degraded answer crosses as `DegradedLabel`, never as a silently-empty
/// `Label`; a label no frame can carry is a typed `LabelTooLong`.
fn label_reply(fetched: Result<Label, Degraded>) -> Reply {
    let reply = match fetched {
        Ok(label) => Reply::Label { label: label.to_string() },
        Err(d) => Reply::DegradedLabel { label: d.label.to_string(), sources: d.sources },
    };
    if reply.fits() {
        return reply;
    }
    Reply::Error {
        code: ErrorCode::LabelTooLong,
        msg: format!("the label exceeds the {MAX_STR}-byte field cap"),
    }
}

fn unknown_handle(h: u64) -> Reply {
    Reply::Error { code: ErrorCode::UnknownHandle, msg: format!("no node handle {h}") }
}

/// A running TCP server; shut it down explicitly or on drop.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    pub(crate) fn new(
        local_addr: SocketAddr,
        stop: Arc<AtomicBool>,
        accept: JoinHandle<()>,
    ) -> Self {
        ServerHandle { local_addr, stop, accept: Some(accept) }
    }

    /// The bound address (use `:0` in `serve_tcp` for an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the accept thread. Established
    /// connections drain when their clients disconnect.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_accepting();
        }
    }
}
