//! Property-based differential testing: on randomly generated documents
//! and a family of generated queries, fully navigating the lazy engine
//! must equal the eager evaluator's answer — and must be insensitive to
//! cache configuration and buffer fill policy.

use mix::algebra::rewrite::insert_eager_steps;
use mix::prelude::*;
use mix::wrappers::gen::random_tree;
use proptest::prelude::*;

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
    fn eager_steps_preserve_results(
        seed in 0u64..5_000,
        nodes in 1usize..30,
        qidx in 0usize..19,
    ) {
        let tree = random_tree(seed, nodes, LABELS);
        let query = query_pool()[qidx];
        let mut plan = translate(&parse_query(query).unwrap()).unwrap();
        let mut reg = SourceRegistry::new();
        reg.add_tree("src", &tree);
        let expected = eager::eval(&plan, &reg).unwrap();

        let _ = insert_eager_steps(&mut plan);
        let mut reg2 = SourceRegistry::new();
        reg2.add_tree("src", &tree);
        let mut engine = Engine::new(plan, &reg2).unwrap();
        prop_assert_eq!(materialize(&mut engine), expected);
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
