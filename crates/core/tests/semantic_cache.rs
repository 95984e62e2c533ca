//! Integration: the semantic answer cache end-to-end through the engine.
//!
//! A first query's materialized answer, recorded in the shared
//! [`ViewCatalog`], must answer the *next* engine's covered query with
//! zero wire exchanges — the rewritten plan navigates a `~view:N` source
//! resolved from the catalog instead of the registered buffered wrapper.
//! Partial coverage leaves the uncovered branches on the wire, and
//! invalidation (either channel: catalog epoch or fragment-cache epoch)
//! retires dependent views so the next query pays the wire again.

use mix_algebra::{translate, ViewCatalog};
use mix_buffer::{BufferNavigator, BufferStats, FillPolicy, FragmentCache, TreeWrapper};
use mix_core::{view_source_name, Engine, EngineConfig, SemanticOutcome, SourceRegistry};
use mix_nav::explore::materialize;
use mix_xmas::parse_query;
use mix_xml::term::parse_term;

const HOMES: &str = "homes[home[addr[a1],price[p1]],home[addr[a2],price[p2]]]";
const Q_HOMES: &str = "CONSTRUCT <out> $H {$H} </out> {} WHERE homesSrc homes.home $H";

/// A registry with one buffered source `name` over `term` (reading
/// through `cache`, if given), a shared catalog, and the buffer's traffic
/// counters.
fn buffered_registry(
    name: &str,
    term: &str,
    catalog: &ViewCatalog,
    cache: Option<&FragmentCache>,
) -> (SourceRegistry, BufferStats) {
    let tree = parse_term(term).unwrap();
    // Register the doc under the source name so the buffer's wire
    // traffic AND its fragment-cache epoch are keyed consistently.
    let mut wrapper = TreeWrapper::new(FillPolicy::NodeAtATime);
    wrapper.add(name, std::sync::Arc::new(mix_xml::Document::from_tree(&tree)));
    let mut nav = BufferNavigator::new(wrapper, name.to_string());
    if let Some(cache) = cache {
        nav = nav.with_fragment_cache(cache.clone());
    }
    let stats = nav.stats();
    let mut reg = SourceRegistry::new();
    reg.add_buffer(name, nav);
    reg.set_view_catalog(catalog.clone());
    (reg, stats)
}

#[test]
fn miss_records_then_covered_runs_with_zero_wire() {
    let catalog = ViewCatalog::new();
    let plan = || translate(&parse_query(Q_HOMES).unwrap()).unwrap();

    // Cold: nothing recorded, the query misses and pays the wire.
    let (reg, stats) = buffered_registry("homesSrc", HOMES, &catalog, None);
    let mut cold =
        Engine::with_config(plan(), &reg, EngineConfig::semantic_cache()).unwrap();
    assert_eq!(cold.semantic_outcome(), Some(SemanticOutcome::Miss));
    let baseline = materialize(&mut cold);
    assert!(stats.snapshot().requests > 0, "the cold session paid the wire");
    assert!(cold.record_view(&baseline), "the answer is recordable");
    assert!(!cold.record_view(&baseline), "an equivalent view is not re-recorded");
    assert_eq!(catalog.len(), 1);

    // Warm: a fresh session over a fresh buffer is fully covered — the
    // engine never even connects the registered source.
    let (reg2, stats2) = buffered_registry("homesSrc", HOMES, &catalog, None);
    let mut warm =
        Engine::with_config(plan(), &reg2, EngineConfig::semantic_cache()).unwrap();
    assert_eq!(warm.semantic_outcome(), Some(SemanticOutcome::Covered));
    assert_eq!(&materialize(&mut warm), &baseline, "covered answer differs");
    assert_eq!(stats2.snapshot().requests, 0, "covered session exchanged wire traffic");
    assert_eq!(stats2.snapshot().bytes_received, 0);
    let names: Vec<String> =
        warm.stats().per_source.into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, [view_source_name(0)], "only the view backs the plan");
}

#[test]
fn a_recorded_single_source_view_partially_covers_a_two_source_query() {
    let catalog = ViewCatalog::new();

    // Record a view of aSrc's branch from a single-source query.
    let qa = "CONSTRUCT <va> $A {$A} </va> {} WHERE aSrc adoc.x $A";
    let (reg, _) = buffered_registry("aSrc", "adoc[x[a1],x[a2]]", &catalog, None);
    let plan_a = translate(&parse_query(qa).unwrap()).unwrap();
    let mut ea = Engine::with_config(plan_a, &reg, EngineConfig::semantic_cache()).unwrap();
    let answer_a = materialize(&mut ea);
    assert!(ea.record_view(&answer_a));

    // A registry carrying both buffered sources plus the shared catalog.
    let two_source_registry = || {
        let (mut reg, a_stats) = buffered_registry("aSrc", "adoc[x[a1],x[a2]]", &catalog, None);
        let btree = parse_term("bdoc[y[b1]]").unwrap();
        let mut bw = TreeWrapper::new(FillPolicy::NodeAtATime);
        bw.add("bSrc", std::sync::Arc::new(mix_xml::Document::from_tree(&btree)));
        let bnav = BufferNavigator::new(bw, "bSrc".to_string());
        let bs = bnav.stats();
        reg.add_buffer("bSrc", bnav);
        (reg, a_stats, bs)
    };

    // A two-source query (nested grouping, as in the trio tests): the
    // aSrc branch is served from the view, the bSrc branch still pays
    // the wire.
    let q2 = "CONSTRUCT <pair> <b> $B <a> $A {$A} </a> </b> {$B} </pair> {} \
              WHERE aSrc adoc.x $A AND bSrc bdoc.y $B";
    let plan2 = || translate(&parse_query(q2).unwrap()).unwrap();

    // Baseline: same registries, semantic cache off.
    let (regb, _, _) = two_source_registry();
    let mut plain = Engine::new(plan2(), &regb).unwrap();
    let baseline = materialize(&mut plain);

    let (regp, a_stats, b_stats) = two_source_registry();
    let mut partial =
        Engine::with_config(plan2(), &regp, EngineConfig::semantic_cache()).unwrap();
    assert_eq!(partial.semantic_outcome(), Some(SemanticOutcome::Partial));
    assert_eq!(&materialize(&mut partial), &baseline, "partial rewrite changed the answer");
    assert_eq!(a_stats.snapshot().requests, 0, "the covered branch stayed off the wire");
    assert!(b_stats.snapshot().requests > 0, "the uncovered branch paid the wire");
}

#[test]
fn invalidation_retires_views_through_both_epoch_channels() {
    let catalog = ViewCatalog::new();
    let plan = || translate(&parse_query(Q_HOMES).unwrap()).unwrap();

    // Record, confirm coverage.
    let (reg, _) = buffered_registry("homesSrc", HOMES, &catalog, None);
    let mut cold = Engine::with_config(plan(), &reg, EngineConfig::semantic_cache()).unwrap();
    let baseline = materialize(&mut cold);
    assert!(cold.record_view(&baseline));
    let (reg2, _) = buffered_registry("homesSrc", HOMES, &catalog, None);
    let warm = Engine::with_config(plan(), &reg2, EngineConfig::semantic_cache()).unwrap();
    assert_eq!(warm.semantic_outcome(), Some(SemanticOutcome::Covered));

    // Channel 1: catalog epoch bump purges the dependent view; the next
    // session misses, pays the wire, and re-derives the same bytes.
    assert_eq!(catalog.invalidate_source("homesSrc"), 1, "one dependent view purged");
    let (reg3, stats3) = buffered_registry("homesSrc", HOMES, &catalog, None);
    let mut fresh = Engine::with_config(plan(), &reg3, EngineConfig::semantic_cache()).unwrap();
    assert_eq!(fresh.semantic_outcome(), Some(SemanticOutcome::Miss));
    assert_eq!(&materialize(&mut fresh), &baseline, "post-invalidation answer differs");
    assert!(stats3.snapshot().requests > 0, "invalidation restored wire traffic");
    assert!(fresh.record_view(&baseline), "re-recording under the new epoch works");

    // Channel 2: a fragment-cache invalidation bumps the combined source
    // epoch the registry reports, so the recorded view is stale too.
    let frag = FragmentCache::new();
    let (reg4, stats4) = buffered_registry("homesSrc", HOMES, &catalog, Some(&frag));
    let warm2 = Engine::with_config(plan(), &reg4, EngineConfig::semantic_cache()).unwrap();
    assert_eq!(warm2.semantic_outcome(), Some(SemanticOutcome::Covered));
    frag.invalidate("homesSrc");
    let mut after = Engine::with_config(plan(), &reg4, EngineConfig::semantic_cache()).unwrap();
    assert_eq!(after.semantic_outcome(), Some(SemanticOutcome::Miss));
    assert_eq!(&materialize(&mut after), &baseline);
    assert!(stats4.snapshot().requests > 0);
}

#[test]
fn record_after_midflight_invalidation_is_rejected_as_stale() {
    let catalog = ViewCatalog::new();
    let (reg, _) = buffered_registry("homesSrc", HOMES, &catalog, None);
    let plan = translate(&parse_query(Q_HOMES).unwrap()).unwrap();
    let mut e = Engine::with_config(plan, &reg, EngineConfig::semantic_cache()).unwrap();
    let answer = materialize(&mut e);
    // The source changes under the running query: the answer the engine
    // computed may mix old and new fragments, so it must not be filed.
    catalog.invalidate_source("homesSrc");
    assert!(!e.record_view(&answer), "stale-on-arrival answers are rejected");
    assert_eq!(catalog.len(), 0);
}
