//! E14 — batched multi-hole LXP fills: wall-clock cost of a sequential
//! relational scan as the buffer coalesces known holes into `fill_many`
//! exchanges and the wrapper streams continuation chunks, vs the classic
//! one-hole-per-round-trip protocol (the simulated-cost side of the story
//! lives in the `experiments` binary's E14 table / `BENCH_E14.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mix_buffer::{BufferNavigator, FillPolicy, MetricsRegistry, TreeWrapper};
use mix_nav::explore::materialize;
use mix_wrappers::gen;
use mix_wrappers::RelationalWrapper;

fn bench_relational_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("relational_scan_by_batching");
    group.sample_size(10);
    let rows = 5_000;
    let chunk = 10;
    // (label, batch limit = wrapper budget; 0 disables batching, adaptive,
    //  metered = recording into an enabled registry — the E16 overhead
    //  contract: `metered` within ~10% of its unmetered twin, the plain
    //  modes unaffected by the registry existing at all)
    let modes = [
        ("unbatched", 0usize, false, false),
        ("batched_x4", 4, false, false),
        ("batched_x16", 16, false, false),
        ("batched_x16_adaptive", 16, true, false),
        ("batched_x16_metered", 16, false, true),
    ];
    for (name, batch, adaptive, metered) in modes {
        group.bench_with_input(BenchmarkId::from_parameter(name), &batch, |b, &batch| {
            b.iter_batched(
                || {
                    let mut w = RelationalWrapper::new(gen::homes_database(3, rows, 100), chunk);
                    if adaptive {
                        w = w.adaptive();
                    }
                    if batch > 0 {
                        w = w.with_batch_budget(batch);
                    }
                    let mut nav = BufferNavigator::new(w, "realestate");
                    if batch > 0 {
                        nav = nav.batched(batch);
                    }
                    if metered {
                        nav = nav.with_metrics(MetricsRegistry::enabled());
                    }
                    nav
                },
                |mut nav| materialize(&mut nav),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_tree_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_scan_by_batching");
    group.sample_size(10);
    let page = gen::bookstore_doc(5, "store", 500);
    for (name, batch) in [("unbatched", 0usize), ("batched_x8", 8)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut w = TreeWrapper::single(&page, FillPolicy::Chunked { n: 10 });
                    if batch > 0 {
                        w = w.with_batch_budget(batch);
                    }
                    let mut nav = BufferNavigator::new(w, "doc");
                    if batch > 0 {
                        nav = nav.batched(batch);
                    }
                    nav
                },
                |mut nav| materialize(&mut nav),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// A nested read of a node-at-a-time source: the client alternates
/// between the schools list and one school's children, so the wrapper
/// serves two parents in turn — per-fill cost must not follow the
/// fan-out (1,000 vs 4,000 schools: 4x the fills, 4x the time).
fn bench_nested_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("nested_scan");
    group.sample_size(10);
    for schools in [1_000usize, 4_000] {
        let doc = gen::schools_doc(7, schools, 100);
        for limit in [1usize, 8] {
            let id = BenchmarkId::new(schools.to_string(), format!("limit_{limit}"));
            group.bench_function(id, |b| {
                b.iter_batched(
                    || {
                        let w = TreeWrapper::single(&doc, FillPolicy::NodeAtATime);
                        BufferNavigator::new(w, "doc").batched(limit)
                    },
                    |mut nav| materialize(&mut nav),
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_relational_batching, bench_tree_batching, bench_nested_scan);
criterion_main!(benches);
