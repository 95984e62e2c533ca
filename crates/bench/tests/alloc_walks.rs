//! Allocation- and navigation-count gates for the Fig. 3 walk, and an
//! allocation gate for the eager oracle's Fig. 3 answer.
//!
//! groupBy's member `r` used to walk the shared input scan entry by
//! entry, so the mediator's own work grew quadratically (fixed by
//! per-group member lists). Then the group key of `$H` — a whole home row
//! — and the join's outer key were recomputed for every join pair,
//! although a home's pairs all carry the same outer binding: each key is
//! now computed once per binding that defines it. Counted, not timed: the
//! allocations and source navigations per home must stay flat as the view
//! grows and under their budgets, and a checked `f` on a buffered node
//! must not allocate at all. The eager oracle keys its single-`=` join,
//! so its allocations per home stay flat too.

use mix_bench::{homes_schools_registry, plan_for, FIG3_QUERY};
use mix_buffer::{BufferNavigator, FillPolicy, TreeWrapper};
use mix_core::{eager, Engine, SourceRegistry};
use mix_nav::explore::materialize;
use mix_nav::Navigator;
use mix_wrappers::gen;
use mix_xml::Document;
use std::sync::Arc;

#[global_allocator]
static ALLOC: countalloc::CountingAlloc = countalloc::CountingAlloc::new();

/// The counters are process-global, and the default test runner is
/// multi-threaded: serialize measured regions so one test's allocations
/// never land in another's delta.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Full materialization of Fig. 3 over `n` homes and `n` schools (zip
/// pool `n / 10`); returns (allocations per home, source navigations).
/// The engine is built outside the measured closure.
fn fig3_walk(n: usize) -> (f64, u64) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let mut engine =
        Engine::new(plan_for(FIG3_QUERY), &homes_schools_registry(2, n, n / 10)).unwrap();
    let (_, counts) = countalloc::count_allocations(|| materialize(&mut engine).to_string());
    (counts.allocations as f64 / n as f64, engine.stats().total().total())
}

#[test]
fn fig3_walk_allocates_linearly_in_homes() {
    // Measured 217.6 / 219.3 / 220.8 / 221.2 allocations per home at
    // 250 / 500 / 1,000 / 2,000 homes (298.5-303.9 while every source
    // node carried a boxed `dyn Any` handle and every read of a source
    // binding built a fresh document node; 309.5-314.9 while each
    // operator call copied its spec fields; 791-813 while the keys were
    // recomputed per pair; 2,034 at 250 homes and 10,996 at 2,000 with
    // the linear member scan), and ~204 source navigations per home
    // (399-412 before). The budget keeps 27 % headroom over 221.2.
    const BUDGET_PER_HOME: f64 = 281.0;
    const NAVS_PER_HOME: f64 = 220.0;
    let mut per_home = Vec::new();
    for (n, navs) in [(250, 50_944), (500, 103_100), (1_000, 208_280), (2_000, 417_870)] {
        let (allocs, got) = fig3_walk(n);
        assert_eq!(got, navs, "{n} homes: source navigations moved");
        assert!(
            got as f64 / n as f64 <= NAVS_PER_HOME,
            "{n} homes: {got} source navigations, ceiling {NAVS_PER_HOME} per home"
        );
        assert!(
            allocs < BUDGET_PER_HOME,
            "{n} homes: {allocs:.0} allocations per home, budget {BUDGET_PER_HOME}"
        );
        per_home.push((n, allocs));
    }
    let lo = per_home.iter().map(|&(_, a)| a).fold(f64::INFINITY, f64::min);
    let hi = per_home.iter().map(|&(_, a)| a).fold(0.0, f64::max);
    assert!(
        hi / lo <= 1.15,
        "allocations per home grow with the view: {per_home:?} ({:.2}x)",
        hi / lo
    );
}

/// Allocations per home of the eager oracle's Fig. 3 answer over `n`
/// homes and `n` schools (zip pool `n / 10`). The registry and plan are
/// built outside the measured closure; pulling each source whole is
/// inside it.
fn eager_fig3(n: usize) -> f64 {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let plan = plan_for(FIG3_QUERY);
    let reg = homes_schools_registry(2, n, n / 10);
    let (answer, counts) = countalloc::count_allocations(|| eager::eval(&plan, &reg));
    answer.expect("the eager oracle answers Fig. 3");
    counts.allocations as f64 / n as f64
}

#[test]
fn eager_fig3_allocates_linearly_in_homes() {
    // Measured 260.1 / 263.1 / 265.9 / 266.6 allocations per home at
    // 250 / 500 / 1,000 / 2,000 homes (285.7-292.9 while groupBy copied
    // every member value into its list; 320.0-328.3 while tupleDestroy
    // also copied the finished answer; 1,284 / 2,288 / 4,291 / 8,292
    // while every join copied a binding per candidate pair before testing
    // it). The budget keeps 27 % headroom over 266.6.
    const BUDGET_PER_HOME: f64 = 339.0;
    let per_home: Vec<(usize, f64)> =
        [250, 500, 1_000, 2_000].into_iter().map(|n| (n, eager_fig3(n))).collect();
    for &(n, allocs) in &per_home {
        assert!(
            allocs < BUDGET_PER_HOME,
            "{n} homes: {allocs:.0} eager allocations per home, budget {BUDGET_PER_HOME}"
        );
    }
    let (first, last) = (per_home[0].1, per_home[per_home.len() - 1].1);
    assert!(
        last <= 1.1 * first,
        "eager allocations per home grow with the view: {per_home:?} ({:.2}x)",
        last / first
    );
}

#[test]
fn checked_fetch_of_a_buffered_node_does_not_allocate() {
    // The degraded fallback label and the before/after health counts are
    // built only when a source actually degraded.
    let mut reg = SourceRegistry::new();
    for (name, doc) in
        [("homesSrc", gen::homes_doc(2, 20, 4)), ("schoolsSrc", gen::schools_doc(3, 20, 4))]
    {
        let mut w = TreeWrapper::new(FillPolicy::NodeAtATime);
        w.add(name, Arc::new(Document::from_tree(&doc)));
        reg.add_buffer(name, BufferNavigator::new(w, name));
    }
    let mut engine = Engine::new(plan_for(FIG3_QUERY), &reg).unwrap();
    // First children down to a leaf: the first home's first field's text.
    let mut node = engine.root();
    while let Some(child) = engine.down(&node) {
        node = child;
    }
    let expected = engine.fetch_checked(&node).expect("healthy sources");
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let (label, counts) = countalloc::count_allocations(|| engine.fetch_checked(&node));
    assert_eq!(label, Ok(expected));
    assert_eq!(counts.allocations, 0, "a checked fetch of a buffered node allocated");
}
