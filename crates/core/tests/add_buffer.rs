//! `SourceRegistry::add_buffer` reads every handle the engine surfaces
//! off the navigator it is handed. The expectations are the ones the
//! hand-wired registrations used to be held to in `trace_integration.rs`
//! (rollup ≡ traffic, engine spans in the buffer's ring) and
//! `metrics_reconcile.rs` (registry ≡ traffic, engine series next to the
//! buffer's) — here per handle, and across two sources for adoption.

use mix_algebra::translate;
use mix_buffer::{
    BufferNavigator, FillPolicy, FragmentCache, MetricsRegistry, TraceSink, TreeWrapper,
};
use mix_core::{Engine, SourceRegistry, TraceLog};
use mix_nav::explore::materialize;
use mix_xmas::parse_query;
use mix_xml::term::parse_term;

fn buffer(term: &str) -> BufferNavigator<TreeWrapper> {
    let tree = parse_term(term).unwrap();
    BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "doc")
}

fn engine(query: &str, reg: &SourceRegistry) -> Engine {
    Engine::new(translate(&parse_query(query).unwrap()).unwrap(), reg).unwrap()
}

#[test]
fn add_buffer_surfaces_exactly_what_the_navigator_carries() {
    // (traced, metered, cached): which handles the navigator is built with.
    for (traced, metered, cached) in
        [(false, false, false), (true, false, false), (false, true, false), (true, true, true)]
    {
        let case = format!("traced={traced} metered={metered} cached={cached}");
        let (sink, registry, cache) =
            (TraceSink::enabled(1 << 12), MetricsRegistry::enabled(), FragmentCache::new());
        let mut nav = buffer("items[a[1],b[2],c[3]]");
        if traced {
            nav = nav.with_trace(sink.clone());
        }
        if metered {
            nav = nav.with_metrics(registry.clone());
        }
        if cached {
            nav = nav.with_fragment_cache(cache.clone());
        }
        let (health, stats) = (nav.health(), nav.stats());
        let mut reg = SourceRegistry::new();
        reg.add_buffer("src", nav);
        let mut engine = engine("CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X", &reg);
        assert_eq!(materialize(&mut engine).to_string(), "all[a[1],b[2],c[3]]", "{case}");

        // Health and traffic are the navigator's own cells.
        health.record_degraded(&"synthetic");
        assert_eq!(engine.health()[0].1.as_ref().map(|h| h.degraded_ops), Some(1), "{case}");
        let s = stats.snapshot();
        assert!(s.requests > 0, "{case}");
        assert_eq!(engine.traffic(), vec![("src".to_string(), Some(s))], "{case}");

        // An attached sink is adopted: engine spans and buffer fills share
        // its ring, and its rollup reproduces the traffic counters.
        let log = TraceLog::from_sink(&sink);
        assert_eq!(!log.by_kind("client-command").is_empty(), traced, "{case}");
        assert_eq!(!log.by_kind("fill").is_empty(), traced, "{case}");
        if traced {
            assert!(log.rollup().matches_traffic((s.requests, s.batched_holes, s.wasted_bytes)));
        }
        // An attached registry is adopted: engine series land next to the
        // buffer's bound traffic cells.
        assert_eq!(engine.metrics().same_registry(&registry), metered, "{case}");
        let snap = registry.snapshot();
        assert_eq!(snap.total("mix_requests_total"), if metered { s.requests } else { 0 });
        assert_eq!(snap.total("mix_client_commands_total") > 0, metered, "{case}");
        // An attached cache is the one the engine reports.
        if cached {
            assert!(engine.fragment_cache().is_some_and(|c| c.same_cache(&cache)), "{case}");
            assert!(cache.stats().insertions > 0, "{case}");
        }
    }
}

#[test]
fn the_engine_adopts_the_first_enabled_sink_and_registry_in_plan_order() {
    const QUERY: &str = "CONSTRUCT <out> <m> $A $B {$B} </m> {$A} </out> {} \
                         WHERE s0 _ $A AND s1 _ $B";
    let observed = |sink: &TraceSink, registry: &MetricsRegistry| {
        buffer("r[x,y]").with_trace(sink.clone()).with_metrics(registry.clone())
    };
    let (sink0, sink1) = (TraceSink::enabled(1 << 12), TraceSink::enabled(1 << 12));
    let (reg0, reg1) = (MetricsRegistry::enabled(), MetricsRegistry::enabled());

    // Both observed: the first source leaf of the plan wins.
    let mut reg = SourceRegistry::new();
    reg.add_buffer("s0", observed(&sink0, &reg0)).add_buffer("s1", observed(&sink1, &reg1));
    let mut both = engine(QUERY, &reg);
    let _ = materialize(&mut both);
    assert!(both.metrics().same_registry(&reg0));
    assert!(!TraceLog::from_sink(&sink0).by_kind("client-command").is_empty());
    assert!(TraceLog::from_sink(&sink1).by_kind("client-command").is_empty());
    assert!(!TraceLog::from_sink(&sink1).by_kind("fill").is_empty(), "s1 keeps its own ring");

    // A sink/registry that is off at registration counts as absent: the
    // engine looks past it to the next source's.
    sink1.clear();
    let mut reg = SourceRegistry::new();
    reg.add_buffer("s0", observed(&TraceSink::default(), &MetricsRegistry::default()))
        .add_buffer("s1", observed(&sink1, &reg1));
    let mut second = engine(QUERY, &reg);
    let _ = materialize(&mut second);
    assert!(second.metrics().same_registry(&reg1));
    assert!(!TraceLog::from_sink(&sink1).by_kind("client-command").is_empty());
}
