//! Three-way reconciliation: the live metrics registry, the engine's
//! always-on traffic/stats surfaces, and the flight-recorder rollup must
//! agree *exactly* on random documents, navigation programs, fault
//! schedules, and batching modes — with metrics off, and with metrics on.
//!
//! The wire-level identity (`mix_requests_total` ≡ `traffic().requests`)
//! holds by construction: `BufferStats::bind_into` registers the very
//! cells `Engine::traffic` reads. The navigation-level identity
//! (per-operator self counts ≡ per-source command counters ≡ trace
//! `source-nav` events) is behavioural, and the one this suite guards.

use mix_algebra::translate;
use mix_buffer::{
    BatchItem, BufferNavigator, FaultConfig, FaultyWrapper, FillPolicy, Fragment, FragmentCache,
    HoleId, LxpError, LxpWrapper, MetricsRegistry, RetryPolicy, TraceSink, TreeWrapper,
};
use mix_core::{Engine, SourceRegistry, VirtualDocument};
use mix_nav::explore::materialize;
use mix_nav::{Cmd, NavProgram};
use mix_xmas::parse_query;
use mix_xml::Tree;
use proptest::prelude::*;

const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";

/// The tree wrapper every stack below reads: the document registered
/// under the same uri the engine knows the source by, so buffer-side and
/// engine-side series share one `source` label.
fn tree_wrapper(tree: &Tree) -> TreeWrapper {
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("src", std::sync::Arc::new(mix_xml::Document::from_tree(tree)));
    inner
}

/// Build the full observed stack over `wrapper`: buffer (batched when
/// `batch > 1`, optionally reading through `cache`) + engine, sharing one
/// registry and one trace sink.
fn observed<W: LxpWrapper + Send + 'static>(
    wrapper: W,
    batch: usize,
    metrics_on: bool,
    cache: Option<FragmentCache>,
) -> (VirtualDocument, MetricsRegistry, TraceSink) {
    let registry = if metrics_on { MetricsRegistry::enabled() } else { MetricsRegistry::default() };
    let sink = TraceSink::enabled(1 << 16);
    let mut nav = BufferNavigator::with_retry(wrapper, "src", RetryPolicy::default())
        .with_trace(sink.clone())
        .with_metrics(registry.clone())
        .batched(batch);
    if let Some(cache) = cache {
        nav = nav.with_fragment_cache(cache);
    }
    let mut reg = SourceRegistry::new();
    reg.add_buffer("src", nav);
    let plan = translate(&parse_query(QUERY).unwrap()).unwrap();
    (VirtualDocument::new(Engine::new(plan, &reg).unwrap()), registry, sink)
}

/// The observed stack over a (by default fault-free) faulty wrapper.
fn observed_doc(
    tree: &Tree,
    fault: Option<FaultConfig>,
    batch: usize,
    metrics_on: bool,
) -> (VirtualDocument, MetricsRegistry, TraceSink) {
    let cfg = fault.unwrap_or(FaultConfig::transient(0, 0.0));
    observed(FaultyWrapper::new(tree_wrapper(tree), cfg), batch, metrics_on, None)
}

/// An adapter that periodically *violates* the batch protocol: every
/// `violate_every`-th `fill_many` call answers with a scrambled first item
/// (wrong hole id, real payload), so the buffer rejects the entire
/// exchange after the bytes crossed the wire. Single-hole `fill` stays
/// honest — that's the unbatched fallback the session recovers through.
struct ViolatingBatch {
    inner: TreeWrapper,
    calls: u64,
    violate_every: u64,
}

impl LxpWrapper for ViolatingBatch {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        self.inner.get_root(uri)
    }
    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        self.inner.fill(hole)
    }
    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        self.calls += 1;
        if self.calls.is_multiple_of(self.violate_every) {
            return Ok(vec![BatchItem::new(
                "scrambled",
                vec![Fragment::node("junk", vec![Fragment::leaf("payload")])],
            )]);
        }
        self.inner.fill_many(holes)
    }
}

/// The observed stack over a wrapper that fails whole batch exchanges on a
/// schedule. Exercises the error-path accounting: a rejected `fill_many`
/// must still be one request with all its bytes counted (and wasted).
fn observed_doc_violating(
    tree: &Tree,
    violate_every: u64,
    batch: usize,
    metrics_on: bool,
) -> (VirtualDocument, MetricsRegistry, TraceSink) {
    let wrapper = ViolatingBatch { inner: tree_wrapper(tree), calls: 0, violate_every };
    observed(wrapper, batch, metrics_on, None)
}

/// The observed stack with a shared [`FragmentCache`] attached to the
/// buffer. Metrics stay enabled — the point is that cache hits keep the
/// three ledgers in exact agreement.
fn observed_doc_cached(
    tree: &Tree,
    fault: Option<FaultConfig>,
    batch: usize,
    cache: FragmentCache,
) -> (VirtualDocument, MetricsRegistry, TraceSink) {
    let cfg = fault.unwrap_or(FaultConfig::transient(0, 0.0));
    observed(FaultyWrapper::new(tree_wrapper(tree), cfg), batch, true, Some(cache))
}

fn traffic_totals(doc: &VirtualDocument) -> (u64, u64, u64) {
    let mut t = (0, 0, 0);
    for (_, snap) in doc.engine().lock().unwrap().traffic() {
        if let Some(s) = snap {
            t.0 += s.requests;
            t.1 += s.batched_holes;
            t.2 += s.wasted_bytes;
        }
    }
    t
}

/// Small random trees (any shape — non-`items` roots exercise the empty
/// answer path).
fn arb_tree() -> impl Strategy<Value = Tree> {
    let label = prop_oneof![Just("items"), Just("a"), Just("b"), Just("x")];
    label.clone().prop_map(Tree::leaf).prop_recursive(3, 20, 4, move |inner| {
        (label.clone(), proptest::collection::vec(inner, 0..4))
            .prop_map(|(l, children)| Tree::node(l, children))
    })
}

fn arb_program() -> impl Strategy<Value = NavProgram> {
    proptest::collection::vec(
        prop_oneof![Just(Cmd::Down), Just(Cmd::Right), Just(Cmd::Fetch)],
        0..24,
    )
    .prop_map(NavProgram::chain)
}

fn arb_fault() -> impl Strategy<Value = Option<FaultConfig>> {
    prop_oneof![
        Just(None),
        (1u64..999).prop_map(|seed| Some(FaultConfig::transient(seed, 0.2))),
    ]
}

/// Every reconciliation invariant, checked after an arbitrary run.
fn check_invariants(doc: &VirtualDocument, registry: &MetricsRegistry, sink: &TraceSink) {
    let snap = registry.snapshot();
    let traffic = traffic_totals(doc);

    // 1. Wire level: registry ≡ traffic() — the bound cells.
    assert_eq!(snap.total("mix_requests_total"), traffic.0, "requests");
    assert_eq!(snap.total("mix_batched_holes_total"), traffic.1, "batched holes");
    assert_eq!(snap.total("mix_wasted_bytes"), traffic.2, "wasted bytes");

    // 2. Wire level: trace rollup ≡ traffic() (the PR-3 exactness
    //    contract, re-checked with metrics recording alongside).
    let log = mix_core::TraceLog::from_sink(sink);
    assert_eq!(log.dropped(), 0, "exactness requires a complete trace");
    assert!(log.rollup().matches_traffic(traffic), "trace rollup drifted from traffic");

    // 3. Navigation level, only meaningful while recording:
    //    per-operator self counts partition the per-source command total,
    //    which equals the engine's always-on counters and the trace's
    //    source-nav event count.
    let nav_total = {
        let t = doc.stats().total();
        t.downs + t.rights + t.fetches + t.selects
    };
    if registry.is_enabled() {
        let op_self = snap.total("mix_op_source_navs_total");
        let per_source = snap.total("mix_source_navs_total");
        assert_eq!(op_self, per_source, "op self counts must partition the source total");
        assert_eq!(per_source, nav_total, "metered navs must equal NavCounters");
        assert_eq!(
            log.by_kind("source-nav").len() as u64,
            nav_total,
            "trace source-nav events must equal NavCounters"
        );
        // Cumulative ≥ self for every operator, and client commands match
        // the trace's span-opening events.
        for s in &snap.samples {
            if s.name == "mix_op_source_navs_total" {
                let cum = snap
                    .value(
                        "mix_op_source_navs_cum_total",
                        &s.labels
                            .iter()
                            .map(|(k, v)| (k.as_str(), v.as_str()))
                            .collect::<Vec<_>>(),
                    )
                    .expect("cum series registered alongside self");
                assert!(cum >= s.value.scalar(), "cum < self for {:?}", s.labels);
            }
        }
        assert_eq!(
            snap.total("mix_client_commands_total"),
            log.by_kind("client-command").len() as u64,
            "metered client commands must equal trace spans"
        );
    } else {
        assert_eq!(snap.total("mix_op_source_navs_total"), 0, "off means off");
        assert_eq!(snap.total("mix_client_commands_total"), 0, "off means off");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn metrics_traffic_and_trace_reconcile(
        tree in arb_tree(),
        prog in arb_program(),
        fault in arb_fault(),
        batch in prop_oneof![Just(0usize), Just(4usize)],
        metrics_on in prop_oneof![Just(true), Just(false)],
    ) {
        let (doc, registry, sink) = observed_doc(&tree, fault, batch, metrics_on);
        let _ = prog.run(&mut *doc.engine().lock().unwrap());
        check_invariants(&doc, &registry, &sink);
    }

    #[test]
    fn reconciliation_survives_failing_batch_exchanges(
        tree in arb_tree(),
        prog in arb_program(),
        violate_every in 1u64..5,
        metrics_on in prop_oneof![Just(true), Just(false)],
    ) {
        // Batched mode with whole exchanges rejected mid-session: the
        // rejected fill_many is still one wire request and its payload is
        // pure waste, so all three ledgers must keep agreeing exactly.
        let (doc, registry, sink) = observed_doc_violating(&tree, violate_every, 4, metrics_on);
        let _ = prog.run(&mut *doc.engine().lock().unwrap());
        check_invariants(&doc, &registry, &sink);
    }

    #[test]
    fn reconciliation_holds_with_a_shared_cache(
        tree in arb_tree(),
        prog in arb_program(),
        fault in arb_fault(),
        batch in prop_oneof![Just(0usize), Just(4usize)],
        budget in prop_oneof![Just(0u64), Just(64u64), Just(mix_buffer::DEFAULT_CACHE_BUDGET)],
    ) {
        // Same three-way reconciliation, now with the shared fragment
        // cache attached: cache hits are zero-wire fills, invalidations
        // change nothing the ledgers count — exactness must survive.
        let (doc, registry, sink) =
            observed_doc_cached(&tree, fault, batch, FragmentCache::with_budget(budget));
        let _ = prog.run(&mut *doc.engine().lock().unwrap());
        check_invariants(&doc, &registry, &sink);
    }

    #[test]
    fn metrics_are_observation_only(
        tree in arb_tree(),
        prog in arb_program(),
        batch in prop_oneof![Just(0usize), Just(4usize)],
    ) {
        // Same document, same program, metrics hard-off vs on: identical
        // answers, identical command counts, identical wire traffic.
        let (on, registry, _) = observed_doc(&tree, None, batch, true);
        let (off, _, _) = observed_doc(&tree, None, batch, false);
        let a = prog.run(&mut *on.engine().lock().unwrap());
        let b = prog.run(&mut *off.engine().lock().unwrap());
        prop_assert_eq!(a.labels, b.labels);
        prop_assert_eq!(on.stats().total(), off.stats().total());
        prop_assert_eq!(traffic_totals(&on), traffic_totals(&off));
        prop_assert!(registry.snapshot().total("mix_client_commands_total") > 0
            || prog_is_empty_safe(&on));
    }
}

/// A program of zero commands legitimately records nothing.
fn prog_is_empty_safe(_doc: &VirtualDocument) -> bool {
    true
}

#[test]
fn materialized_answer_reconciles_and_explains() {
    let tree = mix_xml::term::parse_term("items[a[1],b[2],c[3],d[4]]").unwrap();
    let (doc, registry, sink) = observed_doc(&tree, None, 0, true);
    let out = materialize(&mut *doc.engine().lock().unwrap()).to_string();
    assert_eq!(out, "all[a[1],b[2],c[3],d[4]]");
    check_invariants(&doc, &registry, &sink);

    // The explain tree carries the same numbers: every op line appears,
    // and the cross-check footer agrees with itself.
    let explain = doc.explain_analyze();
    assert!(explain.contains("EXPLAIN ANALYZE"), "{explain}");
    assert!(explain.contains("tupleDestroy"), "{explain}");
    assert!(explain.contains("source src"), "{explain}");
    let snap = registry.snapshot();
    let self_sum = snap.total("mix_op_source_navs_total");
    let metered = snap.total("mix_source_navs_total");
    assert!(
        explain.contains(&format!(
            "source navs (metered): {metered}; op src.self sum: {self_sum}"
        )),
        "footer must cross-check: {explain}"
    );

    // Delta snapshots isolate one navigation step exactly.
    let before = registry.snapshot();
    let root = doc.root();
    let _ = root.down().map(|c| c.label());
    let delta = registry.snapshot().delta_since(&before);
    assert!(delta.total("mix_client_commands_total") >= 2, "d + f recorded");
    assert_eq!(
        delta.total("mix_op_source_navs_total"),
        delta.total("mix_source_navs_total"),
        "the partition invariant holds on deltas too"
    );
}

#[test]
fn disabled_metrics_leave_the_registry_silent_but_stats_alive() {
    let tree = mix_xml::term::parse_term("items[a[1],b[2]]").unwrap();
    let (doc, registry, _sink) = observed_doc(&tree, None, 0, false);
    let _ = materialize(&mut *doc.engine().lock().unwrap());
    let snap = registry.snapshot();
    // Guarded series stayed silent…
    assert_eq!(snap.total("mix_client_commands_total"), 0);
    assert_eq!(snap.total("mix_op_calls_total"), 0);
    // …but the always-on bound traffic cells kept counting.
    assert!(snap.total("mix_requests_total") > 0);
    assert_eq!(snap.total("mix_requests_total"), traffic_totals(&doc).0);
}
