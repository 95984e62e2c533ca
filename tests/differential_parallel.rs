//! Property-based differential testing of the concurrent engine: the
//! parallel paths — per-source warm-up exchanges and background prefetch
//! workers — must be pure *scheduling* changes. On randomly generated
//! documents and multi-source queries, a parallel run and a sequential run
//! must produce byte-identical answers; on full walks they must also
//! report identical per-source command counts and identical wire traffic
//! (the fill-once discipline dedupes everything the concurrent paths
//! front-run); and a traced concurrent run's rollup must still reconcile
//! exactly with its own traffic counters. The full-walk case also runs
//! with every other opt-in axis on at once (recorder, metrics, shared
//! fragment cache, batched fills, view catalog) against all of them off.

use mix::buffer::{ConcurrentPrefetcher, SlowWrapper};
use mix::prelude::*;
use mix::wrappers::gen::random_tree;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const LABELS: &[&str] = &["a", "b", "c", "x"];

/// Queries over three sources whose *full* walk provably touches every
/// source: each binds a source root (`_` consumes exactly the root
/// label), so no source can be skipped by an empty binding list and the
/// warm-up's priming work is always a subset of the walk's.
fn total_queries() -> Vec<&'static str> {
    vec![
        "CONSTRUCT <out> <m> $A <n> $B $C {$C} </n> {$B} </m> {$A} </out> {} \
         WHERE s0 _ $A AND s1 _ $B AND s2 _ $C",
        "CONSTRUCT <out> <m> $C <n> $A $B {$B} </n> {$A} </m> {$C} </out> {} \
         WHERE s0 _ $A AND s1 _ $B AND s2 _ $C",
    ]
}

/// Deeper multi-source queries (selections, joins) where a source *can*
/// contribute nothing; used for answer-equivalence only, since the
/// warm-up may then prime fragments a sequential walk never needs.
fn partial_queries() -> Vec<&'static str> {
    vec![
        "CONSTRUCT <out> <m> $A <n> $B $C {$C} </n> {$B} </m> {$A} </out> {} \
         WHERE s0 _._ $A AND s1 _._ $B AND s2 _._ $C",
        "CONSTRUCT <out> <m> $A $B {$B} </m> {$A} </out> {} \
         WHERE s0 _._ $A AND s1 _._ $B AND s2 _._ $C AND $A = $C",
        "CONSTRUCT <out> <g> $W <h> $B {$B} </h> </g> {$W} </out> {} \
         WHERE s0 _._ $V AND $V _ $W AND s1 _._ $B AND s2 _ $C",
    ]
}

/// Every opt-in axis the engine and its buffers have, switched on at
/// once: one recorder, one registry and one fragment cache shared by all
/// sources, batched fills, four threads, a (still empty) view catalog.
struct AllOn {
    sink: TraceSink,
    metrics: MetricsRegistry,
    cache: FragmentCache,
}

/// Build a three-source engine over buffered LXP wrappers — with nothing
/// on but `threads`, or with every axis of `all_on` — returning the
/// engine plus each source's wrapper-level exchange counter.
fn build(
    trees: &[Tree; 3],
    query: &str,
    threads: usize,
    all_on: Option<&AllOn>,
) -> (Engine, Vec<Arc<AtomicU64>>) {
    let plan = translate(&parse_query(query).unwrap()).unwrap();
    let mut reg = SourceRegistry::new();
    let mut wires = Vec::new();
    for (i, tree) in trees.iter().enumerate() {
        // One uri per source: the shared cache keys fragments by it.
        let uri = format!("doc{i}");
        let mut wrapper = TreeWrapper::new(FillPolicy::NodeAtATime);
        wrapper.add(uri.as_str(), Arc::new(mix::xml::Document::from_tree(tree)));
        let slow = SlowWrapper::new(wrapper, Duration::ZERO);
        wires.push(slow.exchange_counter());
        let mut nav = BufferNavigator::new(slow, uri);
        if let Some(on) = all_on {
            nav = nav
                .with_trace(on.sink.clone())
                .with_metrics(on.metrics.clone())
                .with_fragment_cache(on.cache.clone())
                .batched(4);
        }
        reg.add_buffer(format!("s{i}"), nav);
    }
    if all_on.is_some() {
        reg.set_view_catalog(ViewCatalog::new());
    }
    let config =
        EngineConfig { threads, semantic_cache: all_on.is_some(), ..EngineConfig::default() };
    (Engine::with_config(plan, &reg, config).unwrap(), wires)
}

/// Per-source wire traffic, reduced to the exactly-comparable counters:
/// `(requests, fills, batched_holes, bytes_received)` per source name.
type TrafficKey = Vec<(String, Option<(u64, u64, u64, u64)>)>;

fn traffic_key(engine: &Engine) -> TrafficKey {
    engine
        .traffic()
        .into_iter()
        .map(|(n, s)| {
            (n, s.map(|s| (s.requests, s.fills, s.batched_holes, s.bytes_received)))
        })
        .collect()
}

fn wire_counts(wires: &[Arc<AtomicU64>]) -> Vec<u64> {
    wires.iter().map(|w| w.load(Ordering::Relaxed)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn parallel_warm_up_is_invisible_on_full_walks(
        s0 in 0u64..4_000,
        s1 in 0u64..4_000,
        s2 in 0u64..4_000,
        n in 1usize..14,
        qidx in 0usize..2,
    ) {
        let trees =
            [random_tree(s0, n, LABELS), random_tree(s1, n, LABELS), random_tree(s2, n, LABELS)];
        let query = total_queries()[qidx];

        let (mut seq, seq_wires) = build(&trees, query, 1, None);
        let seq_answer = materialize(&mut seq);

        let (mut par, par_wires) = build(&trees, query, 4, None);
        let par_answer = materialize(&mut par);
        prop_assert!(par.overlap().entered() > 0, "warm-up ran");

        prop_assert_eq!(par_answer.to_string(), seq_answer.to_string());
        // The engine's per-source command counts, the buffers' traffic
        // counters, and the wrappers' wire exchange counts must all be
        // identical: the warm-up only *re-schedules* work.
        prop_assert_eq!(par.stats().per_source, seq.stats().per_source);
        prop_assert_eq!(traffic_key(&par), traffic_key(&seq));
        prop_assert_eq!(wire_counts(&par_wires), wire_counts(&seq_wires));

        // All axes on at once ≡ all off: the same answer from the same
        // source commands, fragments and bytes — in no more exchanges,
        // since coalescing exchanges is all batching is for.
        let on = AllOn {
            sink: TraceSink::enabled(1 << 18),
            metrics: MetricsRegistry::enabled(),
            cache: FragmentCache::new(),
        };
        let (mut all, all_wires) = build(&trees, query, 4, Some(&on));
        prop_assert_eq!(materialize(&mut all).to_string(), seq_answer.to_string());
        prop_assert!(!on.sink.is_empty() && !on.metrics.is_empty() && !on.cache.is_empty());
        prop_assert_eq!(all.stats().per_source, seq.stats().per_source);
        let payload = |e: &Engine| -> Vec<_> {
            traffic_key(e).into_iter().map(|(n, s)| (n, s.map(|(_, f, h, b)| (f, h, b)))).collect()
        };
        prop_assert_eq!(payload(&all), payload(&seq));
        let (all_wires, seq_wires) = (wire_counts(&all_wires), wire_counts(&seq_wires));
        prop_assert!(all_wires.iter().zip(&seq_wires).all(|(a, s)| a <= s));
    }

    #[test]
    fn parallel_answers_match_sequential_on_selective_queries(
        s0 in 0u64..4_000,
        s1 in 0u64..4_000,
        s2 in 0u64..4_000,
        n in 1usize..14,
        qidx in 0usize..3,
    ) {
        let trees =
            [random_tree(s0, n, LABELS), random_tree(s1, n, LABELS), random_tree(s2, n, LABELS)];
        let query = partial_queries()[qidx];
        let (mut seq, _) = build(&trees, query, 1, None);
        let (mut par, _) = build(&trees, query, 4, None);
        prop_assert_eq!(
            materialize(&mut par).to_string(),
            materialize(&mut seq).to_string()
        );
    }

    #[test]
    fn prefetch_workers_are_transparent_and_account_every_fill(
        seed in 0u64..10_000,
        nodes in 1usize..40,
        workers in 1usize..5,
        chunk in 1usize..5,
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        let policy = FillPolicy::Chunked { n: chunk };

        let mut seq_nav = BufferNavigator::new(TreeWrapper::single(&tree, policy), "doc");
        let seq_answer = materialize(&mut seq_nav);
        let seq_fills = seq_nav.stats().snapshot().fills;

        let prefetcher = ConcurrentPrefetcher::new(TreeWrapper::single(&tree, policy), workers);
        let mut nav = BufferNavigator::new(prefetcher, "doc");
        let answer = materialize(&mut nav);

        prop_assert_eq!(answer.to_string(), seq_answer.to_string());
        prop_assert_eq!(nav.stats().snapshot().fills, seq_fills,
            "the buffer above the prefetcher issues the same fills");

        // After quiescing the workers, the prefetcher's own accounting
        // must cover exactly the sequential fill set: every client fill
        // was either a cache hit or a miss, each hole exactly once.
        let prefetcher = nav.into_wrapper();
        prefetcher.quiesce();
        prop_assert_eq!(prefetcher.hits() + prefetcher.misses(), seq_fills);
    }

    #[test]
    fn prefetch_workers_are_transparent_under_injected_faults(
        seed in 0u64..5_000,
        nodes in 1usize..30,
        fault_seed in 0u64..1_000,
        workers in 1usize..5,
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        // Generous retry budget, breaker disabled: with a 10% fault rate
        // and 10 attempts, degradation is practically impossible, so both
        // runs must converge to the same bytes even though their retry
        // schedules differ.
        let policy = RetryPolicy { max_attempts: 10, breaker_threshold: 0, ..RetryPolicy::default() };
        let faulty = || {
            FaultyWrapper::new(
                TreeWrapper::single(&tree, FillPolicy::NodeAtATime),
                FaultConfig::transient(fault_seed, 0.1),
            )
        };

        let mut seq_nav = BufferNavigator::with_retry(faulty(), "doc", policy);
        let seq_answer = materialize(&mut seq_nav);

        let prefetcher = ConcurrentPrefetcher::new(faulty(), workers);
        let mut nav = BufferNavigator::with_retry(prefetcher, "doc", policy);
        let answer = materialize(&mut nav);
        prop_assert_eq!(answer.to_string(), seq_answer.to_string());
    }

    #[test]
    fn trace_rollup_reconciles_exactly_under_concurrency(
        s0 in 0u64..4_000,
        s1 in 0u64..4_000,
        s2 in 0u64..4_000,
        n in 1usize..14,
        qidx in 0usize..2,
    ) {
        let trees =
            [random_tree(s0, n, LABELS), random_tree(s1, n, LABELS), random_tree(s2, n, LABELS)];
        let plan = translate(&parse_query(total_queries()[qidx]).unwrap()).unwrap();

        // Three traced, buffered sources sharing one recorder ring.
        let sink = TraceSink::enabled(1 << 18);
        let mut reg = SourceRegistry::new();
        for (i, tree) in trees.iter().enumerate() {
            let nav = BufferNavigator::new(
                TreeWrapper::single(tree, FillPolicy::NodeAtATime),
                "doc",
            )
            .with_trace(sink.clone());
            reg.add_buffer(format!("s{i}"), nav);
        }
        let config = EngineConfig { threads: 4, ..EngineConfig::default() };
        let doc = VirtualDocument::new(Engine::with_config(plan, &reg, config).unwrap());
        let _ = materialize(&mut *doc.engine().lock().unwrap());

        let mut traffic = (0, 0, 0);
        for (_, snap) in doc.engine().lock().unwrap().traffic() {
            if let Some(s) = snap {
                traffic.0 += s.requests;
                traffic.1 += s.batched_holes;
                traffic.2 += s.wasted_bytes;
            }
        }
        let log = doc.trace();
        prop_assert_eq!(log.dropped(), 0);
        prop_assert!(log.rollup().matches_traffic(traffic),
            "concurrently emitted fill events must still account for the traffic exactly");
    }
}
