//! Property-based differential testing of the flight recorder: tracing is
//! pure observation. On randomly generated documents, queries, and partial
//! navigation programs, a traced engine and an untraced engine must produce
//! byte-identical answers and identical wire traffic — and on top of that
//! the traced run's rollup must reconcile exactly with its own counters.

use mix::prelude::*;
use mix::wrappers::gen::random_tree;
use proptest::prelude::*;

const LABELS: &[&str] = &["a", "b", "c", "x"];

/// Queries exercising different operator cascades over one source `src`.
fn query_pool() -> Vec<&'static str> {
    vec![
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src _ $V",
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src _._ $V",
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src (a|b)._ $V",
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src _.a*.b $V",
        "CONSTRUCT <out> $W {$W} </out> {} WHERE src _._ $V AND $V a $W",
        r#"CONSTRUCT <out> $V {$V} </out> {} WHERE src _._ $V AND $V _ $W AND $W = "a""#,
        "CONSTRUCT <out> <g> $W $V {$V} </g> {$W} </out> {} \
         WHERE src _._ $V AND $V _ $W",
        "CONSTRUCT <out> <p> $V $W {$W} </p> {$V} </out> {} \
         WHERE src _._ $V AND src _._ $W AND $V = $W",
        "CONSTRUCT <out> <p> $V $W {$W} </p> {$V} </out> {} \
         WHERE src _._ $V AND src _._ $W AND $V < $W",
        "CONSTRUCT <out> <p> $A $B {$B} </p> {$A} </out> {} \
         WHERE src _ $V AND $V _ $A AND src _ $W AND $W _ $B AND $V = $W AND $A < $B",
    ]
}

/// Build an engine over a buffered, chunk-filling wrapper for `tree`.
/// With `traced`, the buffer and the engine share one recorder sink.
fn build(tree: &Tree, query: &str, chunk: usize, traced: bool) -> VirtualDocument {
    let plan = translate(&parse_query(query).unwrap()).unwrap();
    let nav = BufferNavigator::new(
        TreeWrapper::single(tree, FillPolicy::Chunked { n: chunk }),
        "doc",
    );
    let nav = if traced { nav.with_trace(TraceSink::enabled(1 << 18)) } else { nav };
    let mut reg = SourceRegistry::new();
    reg.add_buffer("src", nav);
    VirtualDocument::new(Engine::new(plan, &reg).unwrap())
}

fn traffic_totals(doc: &VirtualDocument) -> (u64, u64, u64) {
    let mut t = (0, 0, 0);
    for (_, snap) in doc.engine().lock().unwrap().traffic() {
        if let Some(s) = snap {
            t.0 += s.requests;
            t.1 += s.batched_holes;
            t.2 += s.wasted_bytes;
        }
    }
    t
}

/// A client-level navigation step.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Down,
    Right,
    Fetch,
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![Just(Cmd::Down), Just(Cmd::Right), Just(Cmd::Fetch)]
}

/// Run a partial navigation program from the root, restarting from the
/// root when navigation falls off the tree. Returns the observation log.
fn run_program(doc: &VirtualDocument, prog: &[Cmd]) -> Vec<String> {
    let mut log = Vec::new();
    let mut cur = doc.root();
    for cmd in prog {
        match cmd {
            Cmd::Down => match cur.down() {
                Some(next) => cur = next,
                None => {
                    log.push("·d".to_string());
                    cur = doc.root();
                }
            },
            Cmd::Right => match cur.right() {
                Some(next) => cur = next,
                None => {
                    log.push("·r".to_string());
                    cur = doc.root();
                }
            },
            Cmd::Fetch => log.push(cur.label().to_string()),
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn tracing_never_changes_the_materialized_answer(
        seed in 0u64..10_000,
        nodes in 1usize..40,
        qidx in 0usize..10,
        chunk in 1usize..6,
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        let query = query_pool()[qidx];

        let traced = build(&tree, query, chunk, true);
        let plain = build(&tree, query, chunk, false);

        let a = materialize(&mut *traced.engine().lock().unwrap());
        let b = materialize(&mut *plain.engine().lock().unwrap());
        prop_assert_eq!(a.to_string(), b.to_string(), "answers must be byte-identical");

        // Identical command counts and identical wire traffic: the
        // recorder observed the run without perturbing it.
        prop_assert_eq!(traced.stats().total(), plain.stats().total());
        prop_assert_eq!(traffic_totals(&traced), traffic_totals(&plain));

        // And the trace accounts for that traffic exactly.
        let log = traced.trace();
        prop_assert_eq!(log.dropped(), 0);
        prop_assert!(log.rollup().matches_traffic(traffic_totals(&traced)));
    }

    #[test]
    fn tracing_never_changes_partial_navigation(
        seed in 0u64..10_000,
        nodes in 1usize..30,
        qidx in 0usize..10,
        prog in proptest::collection::vec(arb_cmd(), 1..40),
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        let query = query_pool()[qidx];

        let traced = build(&tree, query, 3, true);
        let plain = build(&tree, query, 3, false);

        let seen_traced = run_program(&traced, &prog);
        let seen_plain = run_program(&plain, &prog);
        prop_assert_eq!(seen_traced, seen_plain);
        prop_assert_eq!(traced.stats().total(), plain.stats().total());
        prop_assert_eq!(traffic_totals(&traced), traffic_totals(&plain));

        // Each client command in the program opened a span.
        let log = traced.trace();
        prop_assert_eq!(log.dropped(), 0);
        prop_assert!(log.spans().len() as usize >= 1);
        prop_assert!(log.rollup().matches_traffic(traffic_totals(&traced)));
    }
}
