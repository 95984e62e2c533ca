//! Allocation-budget tests for the batched fill path.
//!
//! The E14 wall-clock regression was an allocation storm: every wire
//! exchange re-walked the open tree and deep-cloned fragment vectors, so
//! batched scans did O(rows × exchanges) allocations. These tests pin the
//! fixed behavior — a full batched scan allocates O(rows), and the
//! per-row budget does not grow with the batch limit.

use mix_buffer::{BufferNavigator, FillPolicy, TreeWrapper};
use mix_nav::explore::materialize;
use mix_nav::Navigator;
use mix_wrappers::{gen, RelationalWrapper};

#[global_allocator]
static ALLOC: countalloc::CountingAlloc = countalloc::CountingAlloc::new();

/// The counters are process-global, and the default test runner is
/// multi-threaded: serialize measured regions so one test's allocations
/// never land in another's delta.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Batched scan of `rows` tuples; returns (allocations, fills).
fn batched_scan(rows: usize, batch: usize) -> (u64, u64) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let db = gen::homes_database(3, rows, 100);
    let w = RelationalWrapper::new(db, 10).with_batch_budget(batch);
    let mut nav = BufferNavigator::new(w, "realestate").batched(batch);
    let stats = nav.stats();
    let (_, counts) = countalloc::count_allocations(|| materialize(&mut nav).to_string());
    (counts.allocations, stats.snapshot().fills)
}

#[test]
fn batched_fill_of_a_10k_row_scan_allocates_linearly_in_rows() {
    let rows = 10_000;
    let (allocations, fills) = batched_scan(rows, 4);
    assert_eq!(fills, 1001, "scan shape changed — rebaseline this test");
    // Measured ~25 allocations/row (row fragment + attribute nodes +
    // leaf strings + splice bookkeeping + the materialized answer).
    // 80/row still fails sharply if any per-exchange re-walk or
    // deep-clone returns: the old path did several hundred per row.
    let per_row = allocations as f64 / rows as f64;
    assert!(
        per_row < 80.0,
        "batched scan must allocate O(rows): {allocations} allocations \
         for {rows} rows ({per_row:.0}/row)"
    );
}

#[test]
fn allocation_budget_does_not_grow_with_the_batch_limit() {
    // Same scan, wider batching: more holes per exchange must not mean
    // more allocations per row (the old tree re-walk scaled with both).
    let rows = 4_000;
    let (a4, _) = batched_scan(rows, 4);
    let (a16, _) = batched_scan(rows, 16);
    let ratio = a16 as f64 / a4 as f64;
    assert!(
        ratio < 1.25,
        "x16 batching allocated {ratio:.2}x what x4 did ({a16} vs {a4})"
    );
}

#[test]
fn scan_allocations_scale_linearly_not_quadratically() {
    // 5x the rows must cost about 5x the allocations. The pre-fix path
    // re-walked the whole open tree per exchange, which shows up here as
    // a super-linear blow-up (quadratic would be ~25x).
    let (small, _) = batched_scan(2_000, 4);
    let (large, _) = batched_scan(10_000, 4);
    let ratio = large as f64 / small as f64;
    assert!(
        ratio < 7.5,
        "10k/2k allocation ratio {ratio:.1}x — expected ~5x (linear), \
         got super-linear growth"
    );
}

/// Depth-first read of the subtree(s) from `node` rightwards: every
/// label fetched, nothing kept, so the measured allocations are the
/// buffer's and the wrapper's alone.
fn read_all<N: Navigator>(nav: &mut N, node: N::Handle) {
    let mut next = Some(node);
    while let Some(h) = next {
        std::hint::black_box(nav.fetch(&h));
        if let Some(child) = nav.down(&h) {
            read_all(nav, child);
        }
        next = nav.right(&h);
    }
}

/// Node-at-a-time read of `n` schools at batch limit `limit`; returns
/// (allocations per fill, bytes allocated per fill).
fn nested_scan(n: usize, limit: usize) -> (f64, f64) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let w = TreeWrapper::single(&gen::schools_doc(7, n, 100), FillPolicy::NodeAtATime);
    let mut nav = BufferNavigator::new(w, "doc").batched(limit);
    let stats = nav.stats();
    let root = nav.root();
    let (_, counts) = countalloc::count_allocations(|| read_all(&mut nav, root));
    let fills = stats.snapshot().fills;
    assert_eq!(fills, 1 + 5 * n as u64, "read shape changed — rebaseline this test");
    (counts.allocations as f64 / fills as f64, counts.bytes as f64 / fills as f64)
}

#[test]
fn a_node_at_a_time_fill_costs_the_same_at_any_fan_out() {
    // A nested read alternates between the schools list and one school's
    // children; whatever the wrapper keeps per parent must survive that
    // alternation, or every fill re-collects a child list as long as the
    // document is wide. Counted, not timed: 16x the fan-out, same cost
    // per fill — and under the per-fill budget at both batch limits.
    for (limit, budget) in [(1, 8.0), (8, 12.0)] {
        let (allocs_narrow, bytes_narrow) = nested_scan(250, limit);
        let (allocs_wide, bytes_wide) = nested_scan(4_000, limit);
        for (what, narrow, wide) in
            [("allocations", allocs_narrow, allocs_wide), ("bytes", bytes_narrow, bytes_wide)]
        {
            let ratio = wide / narrow;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "limit {limit}: {what} per fill {narrow:.1} at 250 schools, {wide:.1} at 4,000 \
                 ({ratio:.2}x) — a fill's cost grows with the fan-out"
            );
        }
        assert!(
            allocs_wide <= budget,
            "limit {limit}: {allocs_wide:.1} allocations per node-at-a-time fill, budget {budget}"
        );
    }
}
