//! Property tests for the buffer component (experiment E10): under any
//! fill policy and any navigation order, the buffered view is
//! indistinguishable from direct navigation, and the maintained open tree
//! always *represents* the underlying document (Def. 4).

use mix_buffer::fragment::tree_represents;
use mix_buffer::{
    BufferNavigator, ConcurrentPrefetcher, FaultConfig, FaultyWrapper, FillPolicy, HealthStatus,
    RetryPolicy, TreeWrapper,
};
use mix_nav::explore::materialize;
use mix_nav::{Cmd, DocNavigator, NavProgram};
use mix_xml::Tree;
use proptest::prelude::*;

/// Small random trees.
fn arb_tree() -> impl Strategy<Value = Tree> {
    let label = prop_oneof![Just("a"), Just("b"), Just("c"), Just("x"), Just("long-label")];
    label.clone().prop_map(Tree::leaf).prop_recursive(4, 24, 4, move |inner| {
        (label.clone(), proptest::collection::vec(inner, 0..4))
            .prop_map(|(l, children)| Tree::node(l, children))
    })
}

fn arb_policy() -> impl Strategy<Value = FillPolicy> {
    prop_oneof![
        Just(FillPolicy::NodeAtATime),
        (1usize..5).prop_map(|n| FillPolicy::Chunked { n }),
        Just(FillPolicy::WholeSubtree),
        (1usize..6).prop_map(|max_nodes| FillPolicy::SizeThreshold { max_nodes }),
    ]
}

/// Random straight-line navigation programs (chains resume from the
/// produced pointer; `run` tolerates ⊥).
fn arb_program() -> impl Strategy<Value = NavProgram> {
    proptest::collection::vec(
        prop_oneof![Just(Cmd::Down), Just(Cmd::Right), Just(Cmd::Fetch)],
        0..20,
    )
    .prop_map(NavProgram::chain)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn buffered_navigation_matches_direct(
        tree in arb_tree(),
        policy in arb_policy(),
        prog in arb_program(),
    ) {
        let mut direct = DocNavigator::from_tree(&tree);
        let mut buffered =
            BufferNavigator::new(TreeWrapper::single(&tree, policy), "doc");

        let a = prog.run(&mut direct);
        let b = prog.run(&mut buffered);
        // Same ⊥-pattern and same fetched labels.
        let a_defined: Vec<bool> = a.ptrs.iter().map(Option::is_some).collect();
        let b_defined: Vec<bool> = b.ptrs.iter().map(Option::is_some).collect();
        prop_assert_eq!(a_defined, b_defined);
        prop_assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn open_tree_always_represents_the_document(
        tree in arb_tree(),
        policy in arb_policy(),
        prog in arb_program(),
    ) {
        let mut buffered =
            BufferNavigator::new(TreeWrapper::single(&tree, policy), "doc");
        let _ = prog.run(&mut buffered);
        // Def. 4: the maintained open tree can be completed to the source
        // tree by substituting its holes.
        if let Some(open) = buffered.open_tree() {
            prop_assert!(
                tree_represents(&open, &tree),
                "open tree {} does not represent {}",
                open,
                tree
            );
        }
    }

    #[test]
    fn full_materialization_closes_the_open_tree(
        tree in arb_tree(),
        policy in arb_policy(),
    ) {
        let mut buffered =
            BufferNavigator::new(TreeWrapper::single(&tree, policy), "doc");
        let got = materialize(&mut buffered);
        prop_assert_eq!(&got, &tree);
        let open = buffered.open_tree().expect("connected after navigation");
        // Everything explored: no holes remain except possibly trailing
        // empty ones the protocol already proved empty.
        let closed = open.to_tree();
        prop_assert_eq!(closed.as_ref(), Some(&tree));
    }

    #[test]
    fn retries_absorb_any_transient_fault_schedule(
        tree in arb_tree(),
        policy in arb_policy(),
        seed in 0u64..u64::MAX,
        rate_millis in 0u64..500,
    ) {
        // Under ANY seeded schedule of transient faults (up to a 50% fault
        // rate on both the handshake and every fill), retries make the
        // buffered view equal to the underlying tree — the fault layer is
        // invisible to a client that navigates everything.
        let rate = rate_millis as f64 / 1000.0;
        let wrapper = FaultyWrapper::new(
            TreeWrapper::single(&tree, policy),
            FaultConfig::transient(seed, rate),
        );
        let retry = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
        let mut buffered = BufferNavigator::with_retry(wrapper, "doc", retry);
        let got = materialize(&mut buffered);
        prop_assert_eq!(&got, &tree);
        // Nothing degraded: every fault was retried away.
        let snap = buffered.health().snapshot();
        prop_assert_eq!(snap.degraded_ops, 0);
        prop_assert_eq!(buffered.health().status(), HealthStatus::Healthy);
        // And the open tree still closes to the exact document.
        let closed = buffered.open_tree().expect("connected").to_tree();
        prop_assert_eq!(closed.as_ref(), Some(&tree));
    }

    #[test]
    fn faulty_navigation_matches_direct_navigation(
        tree in arb_tree(),
        policy in arb_policy(),
        prog in arb_program(),
        seed in 0u64..u64::MAX,
    ) {
        // A fixed 30% transient-fault rate under an arbitrary navigation
        // program: same ⊥-pattern, same labels as a direct DOM walk.
        let mut direct = DocNavigator::from_tree(&tree);
        let wrapper = FaultyWrapper::new(
            TreeWrapper::single(&tree, policy),
            FaultConfig::transient(seed, 0.3),
        );
        let retry = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
        let mut buffered = BufferNavigator::with_retry(wrapper, "doc", retry);
        let a = prog.run(&mut direct);
        let b = prog.run(&mut buffered);
        let a_defined: Vec<bool> = a.ptrs.iter().map(Option::is_some).collect();
        let b_defined: Vec<bool> = b.ptrs.iter().map(Option::is_some).collect();
        prop_assert_eq!(a_defined, b_defined);
        prop_assert_eq!(a.labels, b.labels);
        prop_assert_eq!(buffered.health().status(), HealthStatus::Healthy);
    }

    #[test]
    fn batched_fills_match_one_hole_fills(
        tree in arb_tree(),
        policy in arb_policy(),
        prog in arb_program(),
        batch_limit in 2usize..8,
        budget in 0usize..6,
    ) {
        // The tentpole's differential property: for ANY navigation
        // sequence, coalescing known holes into fill_many exchanges (with
        // any wrapper-side continuation budget) observes exactly what
        // one-hole-at-a-time fills observe, and the open tree still
        // represents the document.
        let mut plain =
            BufferNavigator::new(TreeWrapper::single(&tree, policy), "doc");
        let mut batched = BufferNavigator::new(
            TreeWrapper::single(&tree, policy).with_batch_budget(budget),
            "doc",
        )
        .batched(batch_limit);
        let a = prog.run(&mut plain);
        let b = prog.run(&mut batched);
        let a_defined: Vec<bool> = a.ptrs.iter().map(Option::is_some).collect();
        let b_defined: Vec<bool> = b.ptrs.iter().map(Option::is_some).collect();
        prop_assert_eq!(a_defined, b_defined);
        prop_assert_eq!(a.labels, b.labels);
        // The spliced open tree (pending replies excluded) still
        // represents the document (Def. 4).
        if let Some(open) = batched.open_tree() {
            prop_assert!(tree_represents(&open, &tree), "open tree {} vs {}", open, tree);
        }
    }

    #[test]
    fn batched_fills_match_under_fault_schedules(
        tree in arb_tree(),
        policy in arb_policy(),
        prog in arb_program(),
        batch_limit in 2usize..8,
        budget in 0usize..6,
        seed in 0u64..u64::MAX,
        rate_millis in 0u64..400,
    ) {
        // Same differential property with a seeded transient-fault
        // schedule underneath: a batch fails or survives as a unit, and
        // retries make batched navigation observationally identical to
        // unbatched navigation over the same faulty source.
        let rate = rate_millis as f64 / 1000.0;
        let retry = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
        let mut plain = BufferNavigator::with_retry(
            FaultyWrapper::new(
                TreeWrapper::single(&tree, policy),
                FaultConfig::transient(seed, rate),
            ),
            "doc",
            retry,
        );
        let mut batched = BufferNavigator::with_retry(
            FaultyWrapper::new(
                TreeWrapper::single(&tree, policy).with_batch_budget(budget),
                FaultConfig::transient(seed, rate),
            ),
            "doc",
            retry,
        )
        .batched(batch_limit);
        let a = prog.run(&mut plain);
        let b = prog.run(&mut batched);
        let a_defined: Vec<bool> = a.ptrs.iter().map(Option::is_some).collect();
        let b_defined: Vec<bool> = b.ptrs.iter().map(Option::is_some).collect();
        prop_assert_eq!(a_defined, b_defined);
        prop_assert_eq!(a.labels, b.labels);
        prop_assert_eq!(batched.health().status(), HealthStatus::Healthy);
    }

    #[test]
    fn prefetching_never_changes_observations(
        tree in arb_tree(),
        policy in arb_policy(),
        prog in arb_program(),
        workers in 0usize..4,
    ) {
        let mut plain =
            BufferNavigator::new(TreeWrapper::single(&tree, policy), "doc");
        let mut pf = BufferNavigator::new(
            ConcurrentPrefetcher::new(TreeWrapper::single(&tree, policy), workers),
            "doc",
        );
        let a = prog.run(&mut plain);
        let b = prog.run(&mut pf);
        prop_assert_eq!(a.labels, b.labels);
        let a_defined: Vec<bool> = a.ptrs.iter().map(Option::is_some).collect();
        let b_defined: Vec<bool> = b.ptrs.iter().map(Option::is_some).collect();
        prop_assert_eq!(a_defined, b_defined);
        // Once the workers are quiescent the prefetcher's books are
        // stable: the buffer above it issued the same exchanges as the
        // plain one, each answered as a hit or a miss.
        let exchanges = pf.stats().snapshot().requests;
        prop_assert_eq!(exchanges, plain.stats().snapshot().requests);
        let prefetcher = pf.into_wrapper();
        prefetcher.quiesce();
        prop_assert_eq!(prefetcher.hits() + prefetcher.misses(), exchanges);
    }
}
