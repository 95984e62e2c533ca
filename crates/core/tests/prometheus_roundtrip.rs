//! The Prometheus text a live run exports must survive a round trip
//! through the strict in-tree parser ([`mix_core::PromText`]) with every
//! value intact. The parser enforces the exposition-format contracts
//! (HELP/TYPE before samples, family contiguity, strictly increasing `le`
//! bounds, cumulative buckets, `+Inf == _count`, exactly one `_sum` and
//! `_count` per histogram key), so a green round trip *is* the format
//! validation — the same check CI's E16 smoke step applies to the
//! experiment's exported scrape.

use mix_algebra::translate;
use mix_buffer::{
    BufferNavigator, FaultConfig, FaultyWrapper, FillPolicy, MetricsRegistry, RetryPolicy,
    TraceSink, TreeWrapper,
};
use mix_core::{Engine, PromText, SourceRegistry, VirtualDocument};
use mix_nav::explore::materialize;
use mix_xmas::parse_query;

/// A full observed stack: faulty wrapper, batched buffer, engine — so the
/// scrape covers counters, gauges, and histograms with several label sets.
fn scraped_run() -> (VirtualDocument, MetricsRegistry) {
    let registry = MetricsRegistry::enabled();
    let sink = TraceSink::enabled(1 << 14);
    let tree =
        mix_xml::term::parse_term("items[a[x[1],y[2]],b[3],c[4],d[5],e[6]]").unwrap();
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("src", std::sync::Arc::new(mix_xml::Document::from_tree(&tree)));
    let nav = BufferNavigator::with_retry(
        FaultyWrapper::new(inner, FaultConfig::transient(7, 0.2)),
        "src",
        RetryPolicy::default(),
    )
    .with_trace(sink.clone())
    .with_metrics(registry.clone())
    .batched(4);
    let mut reg = SourceRegistry::new();
    reg.add_buffer("src", nav);
    let plan = translate(
        &parse_query("CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X").unwrap(),
    )
    .unwrap();
    let doc = VirtualDocument::new(Engine::new(plan, &reg).unwrap());
    let _ = materialize(&mut *doc.engine().lock().unwrap());
    (doc, registry)
}

#[test]
fn live_scrape_round_trips_through_the_strict_parser() {
    let (_doc, registry) = scraped_run();
    let text = registry.snapshot().render_prometheus();
    let parsed = PromText::parse(&text)
        .unwrap_or_else(|e| panic!("exporter output must parse: {e}\n---\n{text}"));

    // Every scalar series the snapshot holds appears in the parse with the
    // same value, and vice versa nothing materializes out of thin air.
    let snap = registry.snapshot();
    let mut scalar_series = 0usize;
    for s in &snap.samples {
        let labels: Vec<(&str, &str)> =
            s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        match &s.value {
            mix_core::SampleValue::Counter(v) | mix_core::SampleValue::Gauge(v) => {
                scalar_series += 1;
                let got = parsed
                    .value(&s.name, &labels)
                    .unwrap_or_else(|| panic!("{} {:?} missing from parse", s.name, labels));
                assert_eq!(got, *v as f64, "{} {:?}", s.name, labels);
            }
            mix_core::SampleValue::Histogram(h) => {
                // _count and _sum round-trip exactly; bucket shape is
                // enforced by the parser's internal validation.
                let count = parsed
                    .value(&format!("{}_count", s.name), &labels)
                    .unwrap_or_else(|| panic!("{}_count {:?} missing", s.name, labels));
                assert_eq!(count, h.count as f64, "{}_count {:?}", s.name, labels);
                let sum = parsed
                    .value(&format!("{}_sum", s.name), &labels)
                    .unwrap_or_else(|| panic!("{}_sum {:?} missing", s.name, labels));
                assert_eq!(sum, h.sum as f64, "{}_sum {:?}", s.name, labels);
            }
        }
    }
    assert!(scalar_series > 10, "a live run exports a real metric surface");

    // The run exercised the interesting families at all.
    for family in [
        "mix_requests_total",
        "mix_fills_total",
        "mix_client_commands_total",
        "mix_op_calls_total",
        "mix_op_source_navs_total",
        "mix_fill_latency_ns",
    ] {
        assert!(parsed.family(family).is_some(), "family {family} missing from scrape");
    }

    // Histogram totals in the parse agree with the live traffic: fill
    // latency was observed once per wire request.
    let requests = snap.total("mix_requests_total") as f64;
    let lat_count = parsed.total("mix_fill_latency_ns_count");
    assert!(lat_count >= 1.0, "latency histogram populated");
    assert!(
        lat_count <= requests + snap.total("mix_get_roots_total") as f64,
        "latency observations bounded by wire exchanges ({lat_count} vs {requests})"
    );
}

#[test]
fn render_is_stable_and_parse_is_strict() {
    let (_doc, registry) = scraped_run();
    let snap = registry.snapshot();
    assert_eq!(
        snap.render_prometheus(),
        snap.render_prometheus(),
        "rendering a snapshot is deterministic"
    );

    // Strictness spot checks on mutated output: the parser is an oracle,
    // not a lenient scraper.
    let text = snap.render_prometheus();
    let no_type: String =
        text.lines().filter(|l| !l.starts_with("# TYPE")).collect::<Vec<_>>().join("\n");
    assert!(PromText::parse(&no_type).is_err(), "samples without TYPE must fail");
    let dup = format!("{text}\n{text}");
    assert!(PromText::parse(&dup).is_err(), "duplicate family declarations must fail");
}
