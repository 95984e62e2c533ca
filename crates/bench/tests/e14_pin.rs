//! Pins the E14 adaptive-scan traffic shape, and E8's source-navigation
//! counts.
//!
//! The AIMD hysteresis band (see `mix_buffer::AimdChunk`) must not change
//! what a clean sequential scan does on the wire: the E14 workload
//! (10k-row homes database, chunk n=10, batch limit 16, adaptive) is all
//! sequential fills, so no shrink ever fires and the request/fill counts
//! stay exactly at their recorded baseline. If this test moves, the
//! controller changed behavior on the *scan* path — rebaseline E14
//! deliberately or fix the regression.

use mix_bench::{homes_schools_registry, lazy_full_cost, plan_for, FIG3_QUERY};
use mix_buffer::BufferNavigator;
use mix_core::EngineConfig;
use mix_nav::explore::materialize;
use mix_wrappers::{gen, RelationalWrapper};

#[test]
fn adaptive_batched_scan_request_counts_are_pinned() {
    let rows = 10_000;
    let db = gen::homes_database(3, rows, 100);
    let w = RelationalWrapper::new(db, 10).adaptive().with_batch_budget(16);
    let mut nav = BufferNavigator::new(w, "realestate").batched(16);
    let stats = nav.stats();
    let answer = materialize(&mut nav).to_string();
    let snap = stats.snapshot();

    assert_eq!(snap.requests, 3, "adaptive batched scan wire exchanges");
    assert_eq!(snap.fills, 46, "adaptive batched scan fills");
    assert_eq!(snap.bytes_received, 954_103, "adaptive batched scan bytes");
    assert!(!answer.is_empty());
}

#[test]
fn fixed_chunk_batched_scan_request_counts_are_pinned() {
    // The non-adaptive shape: 1001 chunk fills coalesced into ~59 wire
    // exchanges at batch limit 16, byte-identical to unbatched.
    let rows = 10_000;
    let db = gen::homes_database(3, rows, 100);
    let w = RelationalWrapper::new(db, 10).with_batch_budget(16);
    let mut nav = BufferNavigator::new(w, "realestate").batched(16);
    let stats = nav.stats();
    materialize(&mut nav).to_string();
    let snap = stats.snapshot();

    assert_eq!(snap.requests, 59);
    assert_eq!(snap.fills, 1001);
    assert_eq!(snap.bytes_received, 981_706);
}

#[test]
fn e8_cache_ablation_source_navigations_are_pinned() {
    // What the engine asks of its sources for Fig. 3 at E8's size, per
    // cache configuration (the table E8 prints): a change to how the
    // join or groupBy caches are probed must hold these still. The cached
    // join materializes its outer key once per outer binding, not once per
    // pair, and the cached groupBy's scan computes a group key only when
    // the binding defining `$H` changes (PR 22: 15,030 / 57,687 / 521,050
    // before); the uncached paths are untouched, so "both off" holds.
    let plan = plan_for(FIG3_QUERY);
    for (join_cache, group_cache, navs) in [
        (true, true, 8_772),
        (false, true, 52_107),
        (true, false, 479_692),
        (false, false, 3_166_507),
    ] {
        let config = EngineConfig { join_cache, group_cache, ..EngineConfig::default() };
        let cost = lazy_full_cost(&plan, &homes_schools_registry(2, 60, 10), config);
        assert_eq!(cost, navs, "join_cache={join_cache} group_cache={group_cache}");
    }
}
