//! E8 — ablation of the operator caches §3 calls out: the nested-loop
//! join's inner cache and groupBy's scan buffer (`G_prev` and per-group
//! member lists) — plus the E17
//! cold-vs-warm contrast of the shared cross-query fragment cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mix_bench::{homes_schools_registry, plan_for, FIG3_QUERY};
use mix_buffer::{
    BufferNavigator, FillPolicy, FragmentCache, TreeWrapper,
};
use mix_core::{Engine, EngineConfig, SourceRegistry};
use mix_nav::explore::materialize;
use mix_wrappers::gen;

fn bench_caches(c: &mut Criterion) {
    let plan = plan_for(FIG3_QUERY);
    let mut group = c.benchmark_group("cache_ablation");
    group.sample_size(10);
    let n = 60;
    for (name, join_cache, group_cache) in [
        ("both_on", true, true),
        ("join_off", false, true),
        ("group_off", true, false),
        ("both_off", false, false),
    ] {
        let config = EngineConfig { join_cache, group_cache, ..EngineConfig::default() };
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, &config| {
            b.iter_batched(
                || homes_schools_registry(2, n, 10),
                |reg| {
                    let mut e = Engine::with_config(plan.clone(), &reg, config).unwrap();
                    materialize(&mut e)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Cold vs warm sessions over the shared fragment cache: a warm session
/// answers the same Fig. 3 view without any wrapper exchanges, so the
/// spread between the two bars is the wire cost the cache saves.
fn bench_fragment_cache(c: &mut Criterion) {
    let plan = plan_for(FIG3_QUERY);
    let session = |cache: &FragmentCache| -> Engine {
        let mut sources = SourceRegistry::new();
        for (name, tree) in [
            ("homesSrc", gen::homes_doc(42, 40, 8)),
            ("schoolsSrc", gen::schools_doc(43, 40, 8)),
        ] {
            let mut inner = TreeWrapper::new(FillPolicy::Chunked { n: 4 });
            inner.add(name, std::sync::Arc::new(mix_xml::Document::from_tree(&tree)));
            let nav = BufferNavigator::new(inner, name).with_fragment_cache(cache.clone());
            sources.add_navigator(name, nav);
        }
        Engine::new(plan.clone(), &sources).unwrap()
    };
    let mut group = c.benchmark_group("fragment_cache");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("cold"), |b| {
        b.iter_batched(
            FragmentCache::new,
            |cache| materialize(&mut session(&cache)),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function(BenchmarkId::from_parameter("warm"), |b| {
        b.iter_batched(
            || {
                // Pre-fill the cache with one cold pass; the measured
                // session then runs entirely against cached fragments.
                let cache = FragmentCache::new();
                materialize(&mut session(&cache));
                cache
            },
            |cache| materialize(&mut session(&cache)),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_caches, bench_fragment_cache);
criterion_main!(benches);
