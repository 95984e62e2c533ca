//! The flight recorder through the full mediator stack: one shared sink
//! between the engine and its source buffer, spans linking each client
//! command to the cascade it triggered, rollups reconciling exactly with
//! the engine's traffic counters, and checked navigation telling a
//! degraded empty label apart from a real one.

use mix_algebra::translate;
use mix_buffer::{
    BufferNavigator, FaultConfig, FaultyWrapper, FillPolicy, RetryPolicy, TraceKind, TraceSink,
    TreeWrapper,
};
use mix_core::{Engine, SourceRegistry, TraceLog, VirtualDocument};
use mix_nav::explore::materialize;
use mix_xmas::parse_query;
use mix_xml::term::parse_term;

const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";
const SOURCE: &str = "items[a[1],b[2],c[3],d[4],e[5]]";

fn traced_doc(config: Option<FaultConfig>, policy: RetryPolicy) -> (VirtualDocument, TraceSink) {
    let sink = TraceSink::enabled(1 << 16);
    let tree = parse_term(SOURCE).unwrap();
    let inner = TreeWrapper::single(&tree, FillPolicy::NodeAtATime);
    // A zero-rate fault layer is a no-op, so one wrapper type serves both
    // the healthy and the faulty runs.
    let cfg = config.unwrap_or(FaultConfig::transient(0, 0.0));
    let nav = BufferNavigator::with_retry(FaultyWrapper::new(inner, cfg), "doc", policy)
        .with_trace(sink.clone());
    let mut reg = SourceRegistry::new();
    reg.add_buffer("src", nav);
    let plan = translate(&parse_query(QUERY).unwrap()).unwrap();
    (VirtualDocument::new(Engine::new(plan, &reg).unwrap()), sink)
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

#[test]
fn spans_link_client_commands_to_their_cascades() {
    let (doc, _sink) = traced_doc(None, RetryPolicy::none());
    let tree = materialize(&mut *doc.engine().lock().unwrap()).to_string();
    assert_eq!(tree, "all[a[1],b[2],c[3],d[4],e[5]]");

    let log = doc.trace();
    assert_eq!(log.dropped(), 0);
    assert!(!log.is_empty());
    // Every span opens with its client command, and everything else in the
    // span — operator cascade, source commands, buffer fills — follows it.
    for span in log.spans() {
        let events = log.by_span(span);
        assert!(
            matches!(events[0].kind, TraceKind::ClientCommand { .. }),
            "span {span} must open with a client command: {}",
            events[0]
        );
    }
    // The cascade is visible: operator entries and source navigations were
    // recorded between client commands.
    assert!(!log.by_kind("operator-in").is_empty());
    assert!(!log.by_kind("source-nav").is_empty());
    assert!(!log.by_kind("fill").is_empty());
    assert!(log.by_source("doc").iter().all(|e| e.span > 0 || e.seq == 0));
    // A fault-free run records no degradations: the trace vouches for the
    // whole answer.
    assert!(log.degradations().is_empty());
}

#[test]
fn rollup_reconciles_exactly_with_engine_traffic() {
    let (doc, _sink) = traced_doc(None, RetryPolicy::none());
    let _ = materialize(&mut *doc.engine().lock().unwrap());
    let log = doc.trace();
    assert_eq!(log.dropped(), 0, "exactness requires a complete trace");
    let rollup = log.rollup();
    let traffic = traffic_totals(&doc);
    assert!(
        rollup.matches_traffic(traffic),
        "trace rollup {rollup:?} must reproduce traffic {traffic:?} exactly"
    );
    // Per-span stats partition the same totals.
    let rows = log.span_stats();
    let span_requests: u64 = rows.iter().map(|r| r.requests).sum();
    assert_eq!(span_requests, traffic.0);
    let span_waste: i64 = rows.iter().map(|r| r.waste_delta).sum();
    assert_eq!(span_waste, traffic.2 as i64);
}

#[test]
fn checked_fetch_tells_degraded_labels_from_real_empty_ones() {
    // Scan outage points until the outage first bites *during a fetch* (an
    // earlier bite during down/right ends the walk silently instead).
    // The source dies after its very first request: the root label's
    // cascade (which must fetch the source root) degrades underneath a
    // client fetch.
    let policy = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
    let (doc, _sink) = traced_doc(Some(FaultConfig::outage_after(1)), policy);
    let root = doc.root();

    // The unchecked API serves a perfectly plausible label with no hint
    // that the answer below it is gone; the checked API names the source.
    let err = root.label_checked().expect_err("the cascade degraded under this fetch");
    assert_eq!(err.sources, ["src"]);
    assert_eq!(err.label, "all", "the silently-served label the unchecked API returns");
    assert_eq!(root.label(), "all", "unchecked: no hint anything is wrong");

    // The recorder pinpoints it: a `fetch`-path degradation, recorded in
    // the span of the client `f` command that suffered it.
    let log = doc.trace();
    let fetch_deg = log
        .degradations()
        .into_iter()
        .find(|e| matches!(&e.kind, TraceKind::Degradation { op, .. } if *op == "fetch"))
        .cloned()
        .expect("a fetch-path degradation event");
    assert_eq!(fetch_deg.source.as_deref(), Some("doc"));
    let span_events = log.by_span(fetch_deg.span);
    assert!(
        matches!(span_events[0].kind, TraceKind::ClientCommand { cmd: "f" }),
        "degradation attributed to the fetch that suffered it: {}",
        span_events[0]
    );
}

#[test]
fn tracing_is_observation_only() {
    // Same query, recorder on vs off: identical answer, identical
    // command counts, identical wire traffic.
    let (traced, _sink) = traced_doc(None, RetryPolicy::none());
    let (untraced, _) = traced_doc(None, RetryPolicy::none());
    untraced.set_trace_sink(TraceSink::default());

    let a = materialize(&mut *traced.engine().lock().unwrap()).to_string();
    let b = materialize(&mut *untraced.engine().lock().unwrap()).to_string();
    assert_eq!(a, b);
    assert_eq!(traced.stats().total(), untraced.stats().total());
    assert_eq!(traffic_totals(&traced), traffic_totals(&untraced));
    assert!(!traced.trace().is_empty());
}

#[test]
fn trace_log_exports_json_for_the_bench_harness() {
    let (doc, _sink) = traced_doc(None, RetryPolicy::none());
    let _ = doc.root().down().map(|c| c.label());
    let json = doc.trace().to_json();
    assert!(json.contains("\"kind\": \"client-command\""), "{json}");
    assert!(json.contains("\"kind\": \"get-root\""), "{json}");
    // Parses shape-wise: balanced braces/brackets at the top level.
    assert!(json.starts_with('{') && json.ends_with('}'));
    let log: TraceLog = doc.trace();
    assert_eq!(log.to_json(), json, "snapshotting twice is stable");
}
