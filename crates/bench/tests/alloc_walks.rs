//! Allocation-count gate for the Fig. 3 walk.
//!
//! groupBy's member `r` used to walk the shared input scan entry by
//! entry, cloning each entry's key and handle, so the `r` past a group's
//! last member cost a walk to the end of the join: source navigations
//! stayed linear while the mediator's own work grew quadratically. With
//! per-group member lists the walk allocates O(homes). Counted, not
//! timed: the allocations per home must stay flat as the view grows, and
//! the source navigations must not move at all.

use mix_bench::{homes_schools_registry, plan_for, FIG3_QUERY};
use mix_core::Engine;
use mix_nav::explore::materialize;

#[global_allocator]
static ALLOC: countalloc::CountingAlloc = countalloc::CountingAlloc::new();

/// Full materialization of Fig. 3 over `n` homes and `n` schools (zip
/// pool `n / 10`); returns (allocations per home, source navigations).
/// The engine is built outside the measured closure.
fn fig3_walk(n: usize) -> (f64, u64) {
    let mut engine =
        Engine::new(plan_for(FIG3_QUERY), &homes_schools_registry(2, n, n / 10)).unwrap();
    let (_, counts) = countalloc::count_allocations(|| materialize(&mut engine).to_string());
    (counts.allocations as f64 / n as f64, engine.stats().total().total())
}

#[test]
fn fig3_walk_allocates_linearly_in_homes() {
    // Measured ~790-815 allocations per home at every size (the linear
    // member scan read 2,034 at 250 homes and 10,996 at 2,000).
    const BUDGET_PER_HOME: f64 = 1_000.0;
    let mut per_home = Vec::new();
    for (n, navs) in [(250, 99_668), (500, 202_462), (1_000, 410_282), (2_000, 823_942)] {
        let (allocs, got) = fig3_walk(n);
        assert_eq!(got, navs, "{n} homes: source navigations moved");
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
