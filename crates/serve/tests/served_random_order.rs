//! Random-order navigation over the wire. `materialize` walks in
//! document order, but a client may send a command to *any* handle it
//! obtained earlier (§3: a command "may involve any previously
//! encountered pointer"). Each case opens one served session and sends
//! random `d`/`r`/`f`/`select` commands, each to a random earlier handle
//! (the root included, and nodes whose labels the client holds
//! locally), and compares every reply with the same step on the eager
//! answer tree through `DocNavigator`.

use mix_algebra::translate;
use mix_buffer::{FillPolicy, FragmentCache, MetricsRegistry};
use mix_core::{eager, SourceRegistry};
use mix_nav::{DocNavigator, LabelPred, Navigator};
use mix_serve::{pipe, FetchOutcome, SessionSources, VxdClient, VxdServer};
use mix_wrappers::gen;
use mix_xmas::parse_query;
use mix_xml::Tree;
use proptest::prelude::*;

/// The six served templates (E19's) over `homesSrc`, `schoolsSrc` and a
/// filter list in `src`.
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

/// Pool queries (recursion, grouping, a self-join, variable labels) over
/// a random tree in `src`.
const POOL: [&str; 4] = [
    "CONSTRUCT <out> $V {$V} </out> {} WHERE src _._*.c $V",
    "CONSTRUCT <out> <g> $W $V {$V} </g> {$W} </out> {} WHERE src _._ $V AND $V _ $W",
    "CONSTRUCT <out> <p> $V $W {$W} </p> {$V} </out> {} \
     WHERE src _._ $V AND src _._ $W AND $V = $W",
    "CONSTRUCT <out> <$W> $V {$V} </$W> {$W} </out> {} WHERE src _._ $V AND $V _ $W",
];

/// The sources query `q` (an index into `TEMPLATES` then `POOL`) reads.
fn sources(q: usize, seed: u64) -> Vec<(&'static str, Tree)> {
    if q < TEMPLATES.len() {
        vec![
            ("homesSrc", gen::homes_doc(seed, 12, 4)),
            ("schoolsSrc", gen::schools_doc(seed.wrapping_add(1), 10, 4)),
            ("src", gen::filter_doc(12, 3)),
        ]
    } else {
        vec![("src", gen::random_tree(seed, 30, &["a", "b", "c", "x"]))]
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn served_random_order_navigation_matches_the_eager_answer(
        q in 0usize..TEMPLATES.len() + POOL.len(),
        seed in 0u64..1_000,
        chunked in prop_oneof![Just(false), Just(true)],
        program in arb_program(),
    ) {
        let query = TEMPLATES.iter().chain(&POOL).nth(q).unwrap();
        let plan = translate(&parse_query(query).unwrap()).unwrap();
        let trees = sources(q, seed);
        let policy = if chunked { FillPolicy::Chunked { n: 2 } } else { FillPolicy::NodeAtATime };

        let mut registry = SourceRegistry::new();
        let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::default());
        for (name, tree) in &trees {
            registry.add_tree(*name, tree);
            pool.add_tree(*name, tree, policy);
        }
        let answer = eager::eval(&plan, &registry).unwrap();
        let mut labels: Vec<String> =
            answer.iter_dfs().map(|t| t.label().as_str().to_string()).collect();
        labels.push("no-such-label".to_string());
        let mut oracle = DocNavigator::from_tree(&answer);

        let mut server = VxdServer::new(pool);
        server.add_template_plan("q", plan);
        let (client_end, server_end) = pipe();
        let server2 = server.clone();
        let conn = std::thread::spawn(move || server2.serve_connection(server_end));
        let mut client = VxdClient::new(client_end);
        let open = client.open("q").unwrap();
        let s = open.session;

        let mut served = vec![open.root];
        let mut expected = vec![oracle.root()];
        for cmd in program {
            let i = cmd.handle % served.len();
            let (h, e) = (served[i], expected[i]);
            let label = &labels[cmd.label % labels.len()];
            let (got, want) = match cmd.verb {
                0 => (client.down(s, h).unwrap(), oracle.down(&e)),
                1 => (client.right(s, h).unwrap(), oracle.right(&e)),
                2 => {
                    let want = oracle.fetch(&e);
                    match client.fetch_checked(s, h).unwrap() {
                        FetchOutcome::Complete(got) => {
                            prop_assert_eq!(got.as_str(), want.as_str(), "f of handle {}", h);
                        }
                        degraded => prop_assert!(false, "degraded fetch: {:?}", degraded),
                    }
                    continue;
                }
                _ => (
                    client.select(s, h, label).unwrap(),
                    oracle.select(&e, &LabelPred::equals(label.as_str())),
                ),
            };
            prop_assert_eq!(got.is_some(), want.is_some(), "verb {} from handle {}", cmd.verb, h);
            if let (Some(got), Some(want)) = (got, want) {
                served.push(got);
                expected.push(want);
            }
        }
        client.close(s).unwrap();
        drop(client);
        conn.join().unwrap();
    }
}
