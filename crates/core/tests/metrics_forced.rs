//! `MIX_METRICS_FORCE=1` must flip *default-constructed* registries on —
//! the ops escape hatch that lights up a binary that never calls
//! `with_metrics` anywhere (mirrors `MIX_TRACE_FORCE` for the recorder).
//!
//! This lives in its own integration binary because the force flag is
//! cached once per process: the env var must be set before the first
//! registry is constructed, and no other test may run in-process first
//! with the flag unset. Keep this file to a single `#[test]`.

use mix_core::{Engine, SourceRegistry, VirtualDocument};
use mix_algebra::translate;
use mix_buffer::{BufferNavigator, FillPolicy, MetricsRegistry, TreeWrapper};
use mix_nav::explore::materialize;
use mix_xmas::parse_query;

#[test]
fn forced_default_registries_record() {
    // Must precede every registry construction in this process.
    std::env::set_var("MIX_METRICS_FORCE", "1");

    assert!(MetricsRegistry::default().is_enabled(), "force flips Default on");
    assert!(!MetricsRegistry::off().is_enabled(), "an explicit off() stays off");

    // A stack built with *no* metrics wiring at all: the buffer's
    // default-constructed registry is forced on, the engine adopts it,
    // and both sides record.
    let tree = mix_xml::term::parse_term("items[a[1],b[2],c[3]]").unwrap();
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("src", std::sync::Arc::new(mix_xml::Document::from_tree(&tree)));
    let nav = BufferNavigator::new(inner, "src");
    let buffer_registry = nav.metrics_registry();
    assert!(buffer_registry.is_enabled(), "buffer default registry forced on");

    let mut reg = SourceRegistry::new();
    reg.add_buffer("src", nav);
    let plan = translate(
        &parse_query("CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X").unwrap(),
    )
    .unwrap();
    let doc = VirtualDocument::new(Engine::new(plan, &reg).unwrap());
    let out = materialize(&mut *doc.engine().lock().unwrap()).to_string();
    assert_eq!(out, "all[a[1],b[2],c[3]]");

    // The engine's (adopted, forced-on) registry recorded the
    // command/operator side…
    let snap = doc.metrics_snapshot();
    assert!(doc.metrics().is_enabled(), "engine registry forced on");
    assert!(snap.total("mix_client_commands_total") > 0, "commands recorded");
    assert!(snap.total("mix_op_calls_total") > 0, "operator calls recorded");
    assert_eq!(
        snap.total("mix_op_source_navs_total"),
        snap.total("mix_source_navs_total"),
        "partition invariant holds under force too"
    );

    // …and the buffer's recorded the wire side, including the gated
    // histograms that stay silent when metrics are off.
    let bsnap = buffer_registry.snapshot();
    assert!(bsnap.total("mix_requests_total") > 0, "wire requests recorded");
    let lat = bsnap
        .histogram("mix_fill_latency_ns", &[("source", "src")])
        .expect("forced-on buffer records fill latency");
    assert!(lat.count > 0, "latency observations recorded");

    // explain_analyze renders live numbers, not the disabled note.
    let explain = doc.explain_analyze();
    assert!(explain.contains("EXPLAIN ANALYZE"), "{explain}");
    assert!(!explain.contains("disabled"), "forced run must show live data: {explain}");
}
