//! The differential acceptance test: a mediated view served over the
//! DOM-VXD wire is **byte-identical** to the same view navigated
//! in-process, and costs exactly the same number of LXP wire exchanges —
//! the serving layer adds framing, not semantics and not traffic. A `d`/`r`
//! reply ships the reached node and the nodes the server already knows
//! around it (its buffers' open tree, its operators' state), so only the
//! root's `f` is a frame, and a `d`/`r` is one only where neither knows
//! the answer.

use mix_algebra::translate;
use mix_buffer::{FillPolicy, FragmentCache, MetricsRegistry, SlowWrapper, TreeWrapper};
use mix_core::{Engine, EngineConfig};
use mix_nav::explore::materialize;
use mix_serve::{pipe, FetchOutcome, SessionSources, VxdClient, VxdServer};
use mix_xmas::parse_query;
use mix_xml::term::parse_term;
use mix_xml::Tree;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";
const SOURCE: &str = "items[a[x[1],y[2]],b[3],c[4,5],d,e[f[g[6]]]]";

/// A transport that counts the request frames a client sends through it
/// (`write_frame` flushes once per frame).
struct CountedFrames<S> {
    inner: S,
    frames: Arc<AtomicU64>,
}

impl<S: Read> Read for CountedFrames<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Write> Write for CountedFrames<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
}

/// A pool over one counted source: the counter sees every LXP exchange
/// that actually crossed the (simulated) wire.
fn counted_pool() -> (SessionSources, Arc<AtomicU64>) {
    let tree = parse_term(SOURCE).unwrap();
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("src", Arc::new(mix_xml::Document::from_tree(&tree)));
    let slow = SlowWrapper::new(inner, Duration::ZERO);
    let exchanges = slow.exchange_counter();
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_wrapper("src", slow);
    (pool, exchanges)
}

/// Materialize a full subtree through the wire client, mirroring
/// `mix_nav::explore::materialize` verb-for-verb (fetch, then children
/// via down/right) so the exchange counts are comparable.
fn client_materialize<S: Read + Write>(
    client: &mut VxdClient<S>,
    session: u64,
    node: u64,
) -> Tree {
    let label = match client.fetch_checked(session, node).unwrap() {
        FetchOutcome::Complete(l) => l,
        FetchOutcome::Degraded { sources, .. } => {
            panic!("differential run must not degrade (sources: {sources:?})")
        }
    };
    let mut children = Vec::new();
    let mut cur = client.down(session, node).unwrap();
    while let Some(c) = cur {
        children.push(client_materialize(client, session, c));
        cur = client.right(session, c).unwrap();
    }
    Tree::node(label, children)
}

#[test]
fn served_view_is_byte_identical_and_costs_the_same_exchanges() {
    // In-process run.
    let (pool, exchanges) = counted_pool();
    let plan = translate(&parse_query(QUERY).unwrap()).unwrap();
    let mut engine =
        Engine::with_config(plan, &pool.registry_for_session(), EngineConfig::default()).unwrap();
    let direct = materialize(&mut engine).to_string();
    let direct_exchanges = exchanges.load(Ordering::Relaxed);
    drop(engine);

    // Served run over a fresh, identically-constructed pool.
    let (pool, exchanges) = counted_pool();
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));

    let frames = Arc::new(AtomicU64::new(0));
    let counted = CountedFrames { inner: client_end, frames: Arc::clone(&frames) };
    let mut client = VxdClient::new(counted);
    let open = client.open("q").unwrap();
    let answer = client_materialize(&mut client, open.session, open.root);
    let served = answer.to_string();
    let served_exchanges = exchanges.load(Ordering::Relaxed);
    client.close(open.session).unwrap();
    drop(client); // disconnect ends the connection loop
    conn.join().unwrap();

    assert_eq!(served, direct, "the wire adds framing, not semantics");
    assert_eq!(
        served_exchanges, direct_exchanges,
        "the wire adds framing, not LXP traffic"
    );
    assert!(direct_exchanges > 0, "the differential run exercised the source");
    // Every non-root label came with a reply, so the only `f` frame is the
    // root's. `d(root)` crosses, and so does `r` of each answer member:
    // the next member of the answer's list is the operator's to find.
    // Below a member every node is a source node, which `NodeAtATime`
    // ships shallow: its children and its right siblings are holes until
    // filled, so `d` of an inner node and `r` of a non-last sibling cross
    // (10 here), and a leaf's `d` and a last sibling's `r` do not.
    let members = answer.children();
    let holes: u64 = members.iter().map(hole_commands).sum();
    assert_eq!(holes, 10);
    assert_eq!(
        frames.load(Ordering::Relaxed),
        1 + 1 + 1 + members.len() as u64 + holes + 1,
        "open + f(root) + d(root) + r per member + a d/r per hole + close"
    );
    assert_eq!(frames.load(Ordering::Relaxed), 19);
}

/// The walk's `d`/`r` commands below `t`, a source subtree shipped one
/// shallow node per fill, that meet a hole: `d` of every inner node and
/// `r` of every child but the last.
fn hole_commands(t: &Tree) -> u64 {
    let kids = t.children();
    let own = u64::from(!kids.is_empty()) + kids.len().saturating_sub(1) as u64;
    own + kids.iter().map(hole_commands).sum::<u64>()
}

#[test]
fn select_and_end_cross_the_wire_like_in_process() {
    let (pool, _) = counted_pool();
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));

    let mut client = VxdClient::new(client_end);
    let open = client.open("q").unwrap();
    // The root's children are the source items a..e; select walks to `b`.
    let first = client.down(open.session, open.root).unwrap().expect("root has children");
    let b = client
        .select(open.session, first, "b")
        .unwrap()
        .expect("a sibling labeled b exists");
    assert_eq!(client.fetch(open.session, b).unwrap(), "b");
    // And a select with no match is a clean End, not an error.
    assert_eq!(client.select(open.session, first, "no-such-label").unwrap(), None);
    // Past the last sibling: End.
    let mut cur = first;
    while let Some(n) = client.right(open.session, cur).unwrap() {
        cur = n;
    }
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
}

#[test]
fn interleaved_sessions_on_one_connection_answer_independently() {
    // Session multiplexing in action: two sessions on ONE connection,
    // verbs strictly interleaved, answers independent and correct.
    let (pool, _) = counted_pool();
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));

    let mut client = VxdClient::new(client_end);
    let s1 = client.open("q").unwrap();
    let s2 = client.open("q").unwrap();
    assert_ne!(s1.session, s2.session);
    assert_eq!(server.session_count(), 2);

    // Advance session 1 two steps, session 2 one step, then fetch both:
    // handle tables are private, so the same handle values name
    // different nodes per session.
    let c1 = client.down(s1.session, s1.root).unwrap().unwrap();
    let c1b = client.right(s1.session, c1).unwrap().unwrap();
    let c2 = client.down(s2.session, s2.root).unwrap().unwrap();
    assert_eq!(client.fetch(s1.session, c1b).unwrap(), "b");
    assert_eq!(client.fetch(s2.session, c2).unwrap(), "a");

    // A handle from one session is meaningless in the other, whatever
    // the verb.
    let unknown = |r: Result<(), mix_serve::ClientError>| {
        matches!(
            r,
            Err(mix_serve::ClientError::Server { code: mix_serve::ErrorCode::UnknownHandle, .. })
        )
    };
    assert!(unknown(client.fetch(s2.session, c1b).map(drop)));
    assert!(unknown(client.down(s2.session, c1b).map(drop)));
    assert!(unknown(client.right(s2.session, c1b).map(drop)));
    assert!(unknown(client.select(s2.session, c1b, "b").map(drop)));

    client.close(s1.session).unwrap();
    client.close(s2.session).unwrap();
    assert_eq!(server.session_count(), 0);
    drop(client);
    conn.join().unwrap();
}

/// The paper's Figure 3 view: homes with the schools of their zip code.
const FIG3: &str = "\
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2";

/// `d(root)`, `f` of the first answer, then a depth-first walk from it
/// of `budget` commands, fetching every node it reaches.
fn fig3_walk<S: Read + Write>(client: &mut VxdClient<S>, session: u64, root: u64, budget: usize) {
    let first = client.down(session, root).unwrap().expect("fig3 has an answer");
    client.fetch(session, first).unwrap();
    let (mut path, mut budget) = (vec![first], budget);
    while budget > 0 {
        budget -= 1;
        match client.down(session, *path.last().unwrap()).unwrap() {
            Some(child) => path.push(child),
            None => loop {
                if budget == 0 {
                    return;
                }
                budget -= 1;
                match client.right(session, *path.last().unwrap()).unwrap() {
                    Some(sibling) => {
                        *path.last_mut().unwrap() = sibling;
                        break;
                    }
                    None => {
                        path.pop();
                        if path.is_empty() {
                            return;
                        }
                    }
                }
            },
        }
        if budget > 0 {
            budget -= 1;
            client.fetch(session, *path.last().unwrap()).unwrap();
        }
    }
}

#[test]
fn a_fig3_walk_crosses_the_wire_three_times_and_numbers_what_it_shipped() {
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree("homesSrc", &mix_wrappers::gen::homes_doc(7, 60, 8), FillPolicy::NodeAtATime);
    pool.add_tree("schoolsSrc", &mix_wrappers::gen::schools_doc(8, 40, 8), FillPolicy::NodeAtATime);
    let mut server = VxdServer::new(pool);
    server.add_template("fig3", FIG3).unwrap();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let frames = Arc::new(AtomicU64::new(0));
    let mut client = VxdClient::new(CountedFrames { inner: client_end, frames: Arc::clone(&frames) });

    let open = client.open("fig3").unwrap();
    fig3_walk(&mut client, open.session, open.root, 24);
    let ids = server
        .metrics()
        .snapshot()
        .total("mix_serve_session_ids_total");
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
    // Open, `d(root)`, close. `d(root)` ships every node the walk
    // reaches, since the engine peeks its operators' own state:
    // `med_home`; its first child, the home, whole (the created
    // element's children are its concatenation, whose first member is
    // the home; the engine's join read it: seven nodes); and the home's
    // right sibling, the group list's first school, with what the buffer
    // holds of it (four nodes). The 24 commands after the first answer
    // end inside that school, so no other verb crosses.
    assert_eq!(frames.load(Ordering::Relaxed), 3, "open, d(root), close");
    assert_eq!(ids, 1 + (1 + 7 + 4), "the root's id, and one per node d(root) shipped");
    assert_eq!(
        server.metrics().snapshot().total("mix_serve_session_ids_total"),
        0,
        "the series goes with its session"
    );
}
