//! The differential acceptance test: a mediated view served over the
//! DOM-VXD wire is **byte-identical** to the same view navigated
//! in-process, and costs exactly the same number of LXP wire exchanges —
//! the serving layer adds framing, not semantics and not traffic. Labels
//! travel with the nodes `d`/`r` reach, so only the root's `f` is a frame.

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
    // The walk sends one `d` per node and one `r` per non-root node. Every
    // non-root label came with the `d`/`r` that reached its node, so the
    // only `f` frame is the root's.
    let nodes = answer.size() as u64;
    let (downs, rights) = (nodes, nodes - 1);
    assert_eq!(
        frames.load(Ordering::Relaxed),
        1 + 1 + downs + rights + 1,
        "open + f(root) + d/r + close: no frame per non-root `f`"
    );
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
