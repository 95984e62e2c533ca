//! Property-based differential testing: on randomly generated documents
//! and a family of generated queries, fully navigating the lazy engine
//! must equal the eager evaluator's answer — and must be insensitive to
//! cache configuration and buffer fill policy. The random-order lanes
//! send commands to earlier handles in any order, as a client may.

use mix::nav::explore::materialize_at;
use mix::nav::{Axis, DocNavigator};
use mix::prelude::*;
use mix::wrappers::gen::{self, random_tree};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::time::Duration;

const LABELS: &[&str] = &["a", "b", "c", "x"];

/// A pool of structurally diverse query templates over one source `src`.
fn query_pool() -> Vec<&'static str> {
    vec![
        // Plain collection at various depths.
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src _ $V",
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src _._ $V",
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src a $V",
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src _.a $V",
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src (a|b)._ $V",
        // Recursive paths.
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src _.a*.b $V",
        "CONSTRUCT <out> $V {$V} </out> {} WHERE src _._*.c $V",
        // Chained variable paths.
        "CONSTRUCT <out> $W {$W} </out> {} WHERE src _._ $V AND $V a $W",
        "CONSTRUCT <out> $W {$W} </out> {} WHERE src _ $V AND $V b*._ $W",
        // Selection.
        r#"CONSTRUCT <out> $V {$V} </out> {} WHERE src _._ $V AND $V _ $W AND $W = "a""#,
        // Grouping by a value.
        "CONSTRUCT <out> <g> $W $V {$V} </g> {$W} </out> {} \
         WHERE src _._ $V AND $V _ $W",
        // Self-join on labels.
        "CONSTRUCT <out> <p> $V $W {$W} </p> {$V} </out> {} \
         WHERE src _._ $V AND src _._ $W AND $V = $W",
        // Tree-pattern form (footnote 6) of a chained path.
        "CONSTRUCT <out> $W {$W} </out> {} WHERE <a> $V: <b> $W </b> </a> IN src",
        // Nested grouping with a literal.
        r#"CONSTRUCT <out> <g> "k:" $W $V {$V} </g> {$W} </out> {}
           WHERE src _._ $V AND $V _ $W"#,
        // Inequality selection.
        r#"CONSTRUCT <out> $V {$V} </out> {} WHERE src _._ $V AND $V _ $W AND $W != "a""#,
        // Variable-labeled construction.
        "CONSTRUCT <out> <$W> $V {$V} </$W> {$W} </out> {} \
         WHERE src _._ $V AND $V _ $W",
        // Theta join: the one predicate shape that scans the inner cache.
        "CONSTRUCT <out> <p> $V $W {$W} </p> {$V} </out> {} \
         WHERE src _._ $V AND src _._ $W AND $V < $W",
        // Equi-join with a second cross-input condition.
        "CONSTRUCT <out> <p> $A $B {$B} </p> {$A} </out> {} \
         WHERE src _ $V AND $V _ $A AND src _ $W AND $W _ $B AND $V = $W AND $A < $B",
        // Cross product: two branches with no comparison between them.
        "CONSTRUCT <out> <p> $V $W {$W} </p> {$V} </out> {} WHERE src _.a $V AND src _.b $W",
    ]
}

/// SplitMix64's finaliser: the peek oracle's walk is a pure function of
/// its case.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The peek oracle: a random-order walk over the lazy answer of pool
/// query `qidx` in which every `d`/`r` is peeked first. Wherever the
/// engine says it knows the answer, the command must return the same
/// node (same label, same materialised subtree) or the same end, and the
/// peek itself must move no wrapper exchange, no source-nav counter and
/// no trace event. `config` picks the source: a plain tree (`config % 4
/// == 0`), else a buffer over a wrapper shipping node-at-a-time or in
/// chunks of 1–3, with batch 1–8, pending cap 1–2 and the fragment cache
/// on or off. Returns how many peeks knew their answer.
fn peek_oracle(seed: u64, nodes: usize, qidx: usize, config: u64) -> Result<u64, String> {
    let tree = random_tree(seed, nodes, LABELS);
    let plan = translate(&parse_query(query_pool()[qidx]).unwrap()).unwrap();
    let sink = TraceSink::enabled(1 << 16);
    let mut reg = SourceRegistry::new();
    let exchanges = if config.is_multiple_of(4) {
        reg.add_tree("src", &tree);
        None
    } else {
        // A chunk ships whole subtrees, so its holes sit only between
        // siblings; node-at-a-time also leaves one below every inner node.
        let policy = match (config >> 2) % 4 {
            0 => FillPolicy::NodeAtATime,
            chunk => FillPolicy::Chunked { n: chunk as usize },
        };
        let wrapper = SlowWrapper::new(TreeWrapper::single(&tree, policy), Duration::ZERO);
        let exchanges = wrapper.exchange_counter();
        let mut nav = BufferNavigator::new(wrapper, "doc")
            .batched(1 + (config >> 4) as usize % 8)
            .pending_cap(1 + (config >> 7) as usize % 2)
            .with_trace(sink.clone());
        if config >> 8 & 1 == 1 {
            nav = nav.with_fragment_cache(FragmentCache::new());
        }
        reg.add_buffer("src", nav);
        Some(exchanges)
    };
    let mut engine = Engine::new(plan, &reg).map_err(|e| e.to_string())?;
    engine.set_trace_sink(sink.clone());
    let work = |engine: &Engine| {
        let log = TraceLog::from_sink(&sink);
        let wire = exchanges.as_ref().map(|e| e.load(Ordering::Relaxed));
        (engine.stats().total(), wire, log.len() as u64 + log.dropped())
    };
    let mut reached = vec![engine.root()];
    let (mut rng, mut known) = (mix64(seed ^ config << 20 ^ qidx as u64), 0);
    for step in 0..60 {
        rng = mix64(rng);
        // Half the time the node reached last: the frontier, where the
        // holes are.
        let pick = match rng >> 48 & 1 {
            0 => reached.len() - 1,
            _ => (rng % reached.len() as u64) as usize,
        };
        let at = reached[pick].clone();
        // Both axes of the node, in a random order: a node just reached
        // sits next to the holes a misread would answer wrongly.
        let mut axes = [Axis::Down, Axis::Right];
        if rng >> 32 & 1 == 1 {
            axes.reverse();
        }
        for axis in axes {
            let before = work(&engine);
            let peeked = engine.peek(&at, axis);
            let after = work(&engine);
            if after != before {
                return Err(format!("step {step}: the peek did work: {before:?} -> {after:?}"));
            }
            let got = match axis {
                Axis::Down => engine.down(&at),
                Axis::Right => engine.right(&at),
            };
            if let Some(expected) = peeked {
                known += 1;
                let same = match (&expected, &got) {
                    (None, None) => true,
                    (Some(x), Some(y)) => {
                        // Materialising fills every hole below, which
                        // leaves little for later peeks not to know: one
                        // case in three.
                        engine.fetch(x) == engine.fetch(y)
                            && ((rng >> 40) % 3 != 0
                                || materialize_at(&mut engine, x) == materialize_at(&mut engine, y))
                    }
                    _ => false,
                };
                if !same {
                    return Err(format!(
                        "step {step}: {axis:?} peeked {:?}, answered {:?}",
                        expected.map(|x| engine.fetch(&x)),
                        got.as_ref().map(|y| engine.fetch(y)),
                    ));
                }
            }
            reached.extend(got);
        }
    }
    Ok(known)
}

#[test]
fn peek_oracle_holds_and_knows_answers() {
    // Fixed cases, so the oracle is known to check something on both
    // kinds of source.
    let (mut tree_known, mut buffer_known) = (0, 0);
    for case in 0..128u64 {
        let config = mix64(case) % 1024;
        let known = peek_oracle(case, 1 + case as usize % 39, case as usize % 19, config)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        if config.is_multiple_of(4) {
            tree_known += known;
        } else {
            buffer_known += known;
        }
    }
    assert!(tree_known >= 500, "a plain tree knows every answer: {tree_known}");
    assert!(buffer_known >= 500, "buffers know what they hold: {buffer_known}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn a_known_peek_is_what_the_command_answers(
        seed in 0u64..10_000,
        nodes in 1usize..40,
        qidx in 0usize..19,
        config in 0u64..1024,
    ) {
        let outcome = peek_oracle(seed, nodes, qidx, config);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn lazy_matches_eager_on_random_documents(
        seed in 0u64..10_000,
        nodes in 1usize..40,
        qidx in 0usize..19,
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        let query = query_pool()[qidx];
        let plan = translate(&parse_query(query).unwrap()).unwrap();

        let mut reg = SourceRegistry::new();
        reg.add_tree("src", &tree);
        let expected = eager::eval(&plan, &reg);

        let mut reg2 = SourceRegistry::new();
        reg2.add_tree("src", &tree);
        let mut engine = Engine::new(plan, &reg2).unwrap();
        let got = materialize(&mut engine);
        prop_assert_eq!(Ok(got), expected.map_err(|e| e.message));
    }

    #[test]
    fn cache_configuration_is_observationally_equivalent(
        seed in 0u64..5_000,
        nodes in 1usize..30,
        qidx in 0usize..19,
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        let query = query_pool()[qidx];
        let plan = translate(&parse_query(query).unwrap()).unwrap();

        let mut results = Vec::new();
        for config in [
            EngineConfig::default(),
            EngineConfig { join_cache: false, group_cache: false, ..EngineConfig::default() },
            EngineConfig::with_select(),
        ] {
            let mut reg = SourceRegistry::new();
            reg.add_tree("src", &tree);
            let mut engine = Engine::with_config(plan.clone(), &reg, config).unwrap();
            results.push(materialize(&mut engine));
        }
        prop_assert_eq!(&results[0], &results[1]);
        prop_assert_eq!(&results[0], &results[2]);
    }

    #[test]
    fn rewriting_preserves_results(
        seed in 0u64..5_000,
        nodes in 1usize..30,
        qidx in 0usize..19,
    ) {
        // Rewritten plans must produce the same answer. The only rule
        // that can permute binding order on these queries is the join
        // swap; compare answers with order-insensitive children when a
        // swap occurred, exactly otherwise.
        let tree = random_tree(seed, nodes, LABELS);
        let query = query_pool()[qidx];
        let initial = translate(&parse_query(query).unwrap()).unwrap();
        let mut rewritten = initial.clone();
        let stats = rewrite(&mut rewritten, NcCapabilities::minimal());

        let mut reg = SourceRegistry::new();
        reg.add_tree("src", &tree);
        let a = eager::eval(&initial, &reg).unwrap();
        let mut reg2 = SourceRegistry::new();
        reg2.add_tree("src", &tree);
        let mut engine = Engine::new(rewritten, &reg2).unwrap();
        let b = materialize(&mut engine);
        if stats.join_swaps == 0 && stats.gd_pushdowns == 0 {
            prop_assert_eq!(a, b);
        } else {
            let mut ca: Vec<String> = a.children().iter().map(|c| c.canonical()).collect();
            let mut cb: Vec<String> = b.children().iter().map(|c| c.canonical()).collect();
            ca.sort();
            cb.sort();
            prop_assert_eq!(a.label(), b.label());
            prop_assert_eq!(ca, cb);
        }
    }

    #[test]
    fn buffered_sources_are_transparent(
        seed in 0u64..5_000,
        nodes in 1usize..30,
        chunk in 1usize..7,
    ) {
        // The same query over (a) a plain document, (b) the document
        // behind a buffer + chunked wrapper must agree: the buffer layer
        // is invisible to the mediator.
        let tree = random_tree(seed, nodes, LABELS);
        let query = "CONSTRUCT <out> $V {$V} </out> {} WHERE src _._ $V";
        let plan = translate(&parse_query(query).unwrap()).unwrap();

        let mut plain = SourceRegistry::new();
        plain.add_tree("src", &tree);
        let mut e1 = Engine::new(plan.clone(), &plain).unwrap();
        let direct = materialize(&mut e1);

        let mut buffered = SourceRegistry::new();
        buffered.add_navigator(
            "src",
            BufferNavigator::new(
                TreeWrapper::single(&tree, FillPolicy::Chunked { n: chunk }),
                "doc",
            ),
        );
        let mut e2 = Engine::new(plan, &buffered).unwrap();
        let via_buffer = materialize(&mut e2);
        prop_assert_eq!(direct, via_buffer);
    }
}

/// E19's six served templates over `homesSrc`, `schoolsSrc` and a filter
/// list in `src`.
const TEMPLATES: [&str; 6] = [
    "CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H",
    "CONSTRUCT <picked> $X {$X} </picked> {} WHERE src items.wanted $X",
    "CONSTRUCT <sc> $S {$S} </sc> {} WHERE schoolsSrc schools.school $S",
    "CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home.zip._ $Z",
    "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X",
    "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {} \
     WHERE homesSrc homes.home $H AND $H zip._ $V1 \
     AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2",
];

/// One command: `d`, `r`, `f` or `select`, the earlier handle it goes
/// to, and (for `select`) which label it asks for — both picks are taken
/// modulo what exists when the command runs.
#[derive(Debug, Clone, Copy)]
struct Cmd {
    verb: u8,
    handle: usize,
    label: usize,
}

fn arb_program() -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(
        (0u8..4, 0usize..1 << 16, 0usize..1 << 16)
            .prop_map(|(verb, handle, label)| Cmd { verb, handle, label }),
        1..60,
    )
}

/// Run `program` on `nav`, each command to a random handle reached
/// earlier (the root included), and the same step on the eager `answer`
/// through `DocNavigator`: every `d`/`r`/`select` must reach a node where
/// the answer has one, and every `f` read the same label. Then every
/// handle reached, last first, must still read its label, and a walk
/// from the root the whole answer.
fn random_order_matches<N: Navigator>(
    nav: &mut N,
    answer: &Tree,
    program: &[Cmd],
) -> Result<(), String> {
    let mut labels: Vec<Label> = answer.iter_dfs().map(|t| t.label().clone()).collect();
    labels.push(Label::from("no-such-label"));
    let mut oracle = DocNavigator::from_tree(answer);
    let (mut got, mut want) = (vec![nav.root()], vec![oracle.root()]);
    for (step, cmd) in program.iter().enumerate() {
        let i = cmd.handle % got.len();
        let (g, w) = (got[i].clone(), want[i]);
        let (g, w) = match cmd.verb {
            0 => (nav.down(&g), oracle.down(&w)),
            1 => (nav.right(&g), oracle.right(&w)),
            2 => {
                let (g, w) = (nav.fetch(&g), oracle.fetch(&w));
                if g != w {
                    return Err(format!("step {step}: f of handle {i} read {g}, not {w}"));
                }
                continue;
            }
            _ => {
                let pred = LabelPred::equals(labels[cmd.label % labels.len()].clone());
                (nav.select(&g, &pred), oracle.select(&w, &pred))
            }
        };
        match (g, w) {
            (Some(g), Some(w)) => {
                got.push(g);
                want.push(w);
            }
            (None, None) => {}
            (g, _) => {
                let reached = if g.is_some() { "a node" } else { "no node" };
                return Err(format!("step {step}: verb {} from handle {i} reached {reached}", cmd.verb));
            }
        }
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate().rev() {
        let (g, w) = (nav.fetch(g), oracle.fetch(w));
        if g != w {
            return Err(format!("handle {i} reads {g}, not {w}, after the program"));
        }
    }
    let walked = materialize(nav);
    if walked != *answer {
        return Err(format!("after the program the answer reads {walked}, not {answer}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn random_order_matches_eager_under_every_engine_config(
        seed in 0u64..10_000,
        nodes in 1usize..40,
        qidx in 0usize..19,
        config in 0usize..3,
        program in arb_program(),
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        let plan = translate(&parse_query(query_pool()[qidx]).unwrap()).unwrap();
        let mut reg = SourceRegistry::new();
        reg.add_tree("src", &tree);
        let answer = eager::eval(&plan, &reg).unwrap();
        let config = [
            EngineConfig::default(),
            EngineConfig { join_cache: false, group_cache: false, ..EngineConfig::default() },
            EngineConfig::with_select(),
        ][config];
        let mut engine = Engine::with_config(plan, &reg, config).unwrap();
        let outcome = random_order_matches(&mut engine, &answer, &program);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn random_order_matches_eager_over_buffers(
        seed in 0u64..10_000,
        nodes in 1usize..40,
        qidx in 0usize..19,
        chunk in 0usize..4,
        batch in 1usize..9,
        cap in 1usize..3,
        select in prop_oneof![Just(false), Just(true)],
        program in arb_program(),
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        let plan = translate(&parse_query(query_pool()[qidx]).unwrap()).unwrap();
        let mut plain = SourceRegistry::new();
        plain.add_tree("src", &tree);
        let answer = eager::eval(&plan, &plain).unwrap();
        let policy = match chunk {
            0 => FillPolicy::NodeAtATime,
            n => FillPolicy::Chunked { n },
        };
        let nav = BufferNavigator::new(TreeWrapper::single(&tree, policy), "doc")
            .batched(batch)
            .pending_cap(cap);
        let mut reg = SourceRegistry::new();
        reg.add_buffer("src", nav);
        let config = if select { EngineConfig::with_select() } else { EngineConfig::default() };
        let mut engine = Engine::with_config(plan, &reg, config).unwrap();
        let outcome = random_order_matches(&mut engine, &answer, &program);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn random_order_matches_eager_over_a_stacked_engine(
        seed in 0u64..10_000,
        nodes in 1usize..40,
        lower in 0usize..19,
        upper in 0usize..19,
        program in arb_program(),
    ) {
        // The upper query is a pool query over the lower engine's answer.
        let tree = random_tree(seed, nodes, LABELS);
        let lower_plan = translate(&parse_query(query_pool()[lower]).unwrap()).unwrap();
        let upper_query = query_pool()[upper].replace("src", "lower");
        let upper_plan = translate(&parse_query(&upper_query).unwrap()).unwrap();
        let mut src = SourceRegistry::new();
        src.add_tree("src", &tree);
        let mut eager_lower = SourceRegistry::new();
        eager_lower.add_tree("lower", &eager::eval(&lower_plan, &src).unwrap());
        let answer = eager::eval(&upper_plan, &eager_lower).unwrap();

        let mut reg = SourceRegistry::new();
        reg.add_navigator("lower", HandleTable::new(Engine::new(lower_plan, &src).unwrap()));
        let mut engine = Engine::new(upper_plan, &reg).unwrap();
        let outcome = random_order_matches(&mut engine, &answer, &program);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn random_order_matches_eager_in_parallel(
        seed in 0u64..1_000,
        q in 0usize..TEMPLATES.len(),
        chunked in prop_oneof![Just(false), Just(true)],
        program in arb_program(),
    ) {
        let plan = translate(&parse_query(TEMPLATES[q]).unwrap()).unwrap();
        let policy = if chunked { FillPolicy::Chunked { n: 2 } } else { FillPolicy::NodeAtATime };
        let trees = [
            ("homesSrc", gen::homes_doc(seed, 12, 4)),
            ("schoolsSrc", gen::schools_doc(seed.wrapping_add(1), 10, 4)),
            ("src", gen::filter_doc(12, 3)),
        ];
        let (mut plain, mut reg) = (SourceRegistry::new(), SourceRegistry::new());
        for (name, tree) in &trees {
            plain.add_tree(*name, tree);
            let prefetcher = ConcurrentPrefetcher::new(TreeWrapper::single(tree, policy), 1);
            reg.add_buffer(*name, BufferNavigator::new(prefetcher, "doc"));
        }
        let answer = eager::eval(&plan, &plain).unwrap();
        let config = EngineConfig { threads: 4, ..EngineConfig::default() };
        let mut engine = Engine::with_config(plan, &reg, config).unwrap();
        let outcome = random_order_matches(&mut engine, &answer, &program);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
