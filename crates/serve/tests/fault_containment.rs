//! Fault containment through the serving stack: a deliberately-panicked
//! session is force-closed and answered with a typed error while its
//! neighbours keep navigating; degraded answers cross the wire as
//! `DegradedLabel` (a remote client can never mistake a degraded empty
//! label for a real one); malformed frames get typed errors without
//! killing the connection; a label no frame can carry is a typed error,
//! not a dead connection; and all of it holds over real TCP.

use mix_buffer::{
    FaultConfig, FaultyWrapper, FillPolicy, FragmentCache, MetricsRegistry, SampleValue,
    TreeWrapper,
};
use mix_serve::codec::{write_frame, FrameStream, Link, Reply, Request, ShippedNode, Verb};
use mix_serve::{
    pipe, ClientError, ErrorCode, FetchOutcome, SessionSources, VxdClient, VxdServer,
    MAX_SHIPPED_NODES,
};
use mix_core::{TraceKind, TraceSink};
use mix_xml::term::parse_term;
use mix_xml::Tree;
use std::io::Write;
use std::sync::Arc;

const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";

fn healthy_server() -> VxdServer {
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree(
        "src",
        &parse_term("items[a[1],b[2],c[3]]").unwrap(),
        FillPolicy::NodeAtATime,
    );
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    server.add_panic_template("toxic", QUERY).unwrap();
    server
}

#[test]
fn a_panicked_session_is_contained_and_neighbours_survive() {
    let server = healthy_server();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);

    // A healthy session and a booby-trapped one, same connection.
    let good = client.open("q").unwrap();
    let bad = client.open("toxic").unwrap();
    assert_eq!(server.session_count(), 2);

    // The toxic fetch panics server-side: typed Internal error back,
    // session force-closed, connection alive.
    let err = client.fetch(bad.session, bad.root).unwrap_err();
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::Internal, .. }),
        "panic surfaces as a typed Internal error: {err}"
    );
    assert_eq!(server.session_count(), 1, "the panicked session is gone");

    // Its id is dead now — typed UnknownSession, not a hang or crash.
    let err = client.down(bad.session, bad.root).unwrap_err();
    assert!(matches!(err, ClientError::Server { code: ErrorCode::UnknownSession, .. }));

    // The neighbour session never noticed.
    let child = client.down(good.session, good.root).unwrap().expect("root has children");
    assert_eq!(client.fetch(good.session, child).unwrap(), "a");
    client.close(good.session).unwrap();

    // The panic left no per-session series behind.
    let leaked = server
        .metrics()
        .snapshot()
        .samples
        .into_iter()
        .filter(|s| s.labels.iter().any(|(k, _)| k == "session"))
        .count();
    assert_eq!(leaked, 0);

    drop(client);
    conn.join().unwrap();
}

#[test]
fn degraded_answers_cross_the_wire_as_degraded() {
    // A source that dies permanently after its very first request: the
    // engine's warm-up get_root succeeds, every fill after it fails, so
    // fetching the root label degrades underneath the session.
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    let tree = parse_term("items[a[1],b[2]]").unwrap();
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("src", Arc::new(mix_xml::Document::from_tree(&tree)));
    pool.add_wrapper("src", FaultyWrapper::new(inner, FaultConfig::outage_after(1)));
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();

    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);

    let open = client.open("q").unwrap();
    let outcome = client.fetch_checked(open.session, open.root).unwrap();
    match outcome {
        FetchOutcome::Degraded { label, sources } => {
            assert_eq!(label, "all", "the plausible label the unchecked API would serve");
            assert_eq!(sources, ["src"], "the guilty source is named over the wire");
        }
        FetchOutcome::Complete(l) => panic!("a dead source must degrade, got complete {l:?}"),
    }
    // The unchecked convenience hides it — which is exactly why the wire
    // carries the distinction.
    assert_eq!(client.fetch(open.session, open.root).unwrap(), "all");

    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
}

#[test]
fn malformed_frames_get_typed_errors_without_dropping_the_connection() {
    let server = healthy_server();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));

    // Drive the raw frame layer so we can inject garbage payloads.
    let mut frames = FrameStream::new(client_end);

    // Unknown opcode.
    let mut bad = Request::new(0, Verb::Close).encode();
    bad[8] = 0x7F;
    write_frame(frames_stream(&mut frames), &bad).unwrap();
    let reply = frames.recv_reply().unwrap();
    assert!(matches!(reply, Reply::Error { code: ErrorCode::BadFrame, .. }), "{reply:?}");

    // Truncated body.
    write_frame(frames_stream(&mut frames), &[0x01, 0x02]).unwrap();
    let reply = frames.recv_reply().unwrap();
    assert!(matches!(reply, Reply::Error { code: ErrorCode::BadFrame, .. }), "{reply:?}");

    // The connection survived both: a well-formed Open still works.
    frames
        .send_request(&Request::new(0, Verb::Open { template: "q".into() }))
        .unwrap();
    assert!(matches!(frames.recv_reply().unwrap(), Reply::Opened { .. }));

    drop(frames);
    conn.join().unwrap();
}

/// Borrow the transport under a `FrameStream` to write raw bytes.
fn frames_stream<S: std::io::Read + Write>(frames: &mut FrameStream<S>) -> &mut S {
    frames.stream_mut()
}

#[test]
fn everything_holds_over_real_tcp() {
    let server = healthy_server();
    let handle = server.serve_tcp("127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    // Two concurrent connections, each multiplexing two sessions.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).unwrap();
                let mut client = VxdClient::new(stream);
                let s1 = client.open("q").unwrap();
                let s2 = client.open("q").unwrap();
                for s in [s1, s2] {
                    let mut cur = client.down(s.session, s.root).unwrap();
                    let mut labels = Vec::new();
                    while let Some(n) = cur {
                        labels.push(client.fetch(s.session, n).unwrap());
                        cur = client.right(s.session, n).unwrap();
                    }
                    assert_eq!(labels, ["a", "b", "c"]);
                    client.close(s.session).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    assert_eq!(server.session_count(), 0);
    handle.shutdown();
}

#[test]
fn a_label_no_frame_can_carry_is_a_typed_error_not_a_dead_connection() {
    // A 70,000-byte PCDATA leaf: longer than any `str` field.
    let big = "x".repeat(70_000);
    let tree = Tree::node("items", vec![Tree::node("a", vec![Tree::leaf(big.as_str())])]);
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree("src", &tree, FillPolicy::NodeAtATime);
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    let sessions = || -> u64 {
        server
            .metrics()
            .snapshot()
            .samples
            .into_iter()
            .find(|s| s.name == "mix_serve_sessions")
            .map(|s| match s.value {
                SampleValue::Gauge(v) => v,
                other => panic!("mix_serve_sessions is not a gauge: {other:?}"),
            })
            .expect("the sessions gauge is registered")
    };
    let baseline = sessions();

    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);
    let open = client.open("q").unwrap();
    let a = client.down(open.session, open.root).unwrap().expect("the view holds `a`");
    // `d` to the leaf succeeds: the node ships without its label.
    let leaf = client.down(open.session, a).unwrap().expect("`a` holds the leaf");
    let err = client.fetch(open.session, leaf).unwrap_err();
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::LabelTooLong, .. }),
        "an over-long label is a typed error: {err}"
    );
    // The connection and the session are still served.
    assert_eq!(client.right(open.session, leaf).unwrap(), None);
    assert_eq!(client.fetch(open.session, a).unwrap(), "a");
    assert_eq!(sessions(), baseline + 1);
    client.close(open.session).unwrap();
    assert_eq!(sessions(), baseline, "close returns the sessions gauge to baseline");
    drop(client);
    conn.join().expect("the connection thread did not panic");
}

#[test]
fn the_server_cuts_a_node_list_to_what_one_frame_carries() {
    // Under `p`, twenty 60,000-byte labels: more than one frame holds.
    // Under `q`, one label longer than a `str` field. Under `r`, forty
    // short ones: more than one reply ships.
    let wide = "w".repeat(60_000);
    let big = "x".repeat(70_000);
    let p = Tree::node("p", (0..20).map(|_| Tree::leaf(wide.as_str())).collect());
    let q = Tree::node("q", vec![Tree::leaf(big.as_str())]);
    let r = Tree::node("r", (0..40).map(|i| Tree::leaf(format!("{i}"))).collect());
    let tree = Tree::node("items", vec![p, q, r]);
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree("src", &tree, FillPolicy::WholeSubtree);
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    let Reply::Opened { session, root } =
        server.handle(&Request::new(0, Verb::Open { template: "q".into() }))
    else {
        panic!("the template opens");
    };
    let shipped = |reply: Reply| match reply {
        Reply::Nodes { nodes } => nodes,
        other => panic!("a node list, not {other:?}"),
    };
    let encodes_whole = |nodes: &Vec<ShippedNode>| {
        let reply = Reply::Nodes { nodes: nodes.clone() };
        reply.fits() && Reply::decode(&reply.encode()) == Ok(reply)
    };

    let at_p = shipped(server.handle(&Request::new(session, Verb::Down { node: root })));
    assert!(encodes_whole(&at_p));
    let cut = at_p.len() - 1;
    assert!((15..20).contains(&cut), "{cut} wide labels fill the frame");
    assert_eq!(at_p[cut].right, Link::Unknown, "the first label left out is unknown");
    assert!(at_p[1..].iter().all(|n| n.label == wide));

    let p_node = at_p[0].handle;
    let at_q = shipped(server.handle(&Request::new(session, Verb::Right { node: p_node })));
    assert_eq!(at_q.len(), 1, "an over-long label ships with no node");
    assert_eq!(at_q[0].label, "q");
    assert_eq!(at_q[0].down, Link::Unknown);

    let q_node = at_q[0].handle;
    let at_r = shipped(server.handle(&Request::new(session, Verb::Right { node: q_node })));
    assert!(encodes_whole(&at_r));
    assert_eq!(at_r.len(), MAX_SHIPPED_NODES, "a reply ships at most {MAX_SHIPPED_NODES}");
    assert_eq!(at_r[MAX_SHIPPED_NODES - 1].right, Link::Unknown);
}

#[test]
fn a_degraded_label_is_not_shipped_and_its_fetch_crosses_the_wire() {
    // `<$L>` takes its label from `$L`'s subtree, so fetching it fills
    // that subtree. The source goes down after its 4th request: the `d`
    // to the first element still succeeds, its label fetch degrades.
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    let tree = parse_term("items[a[t[u[1],v[2]]],b[t[w[3]]]]").unwrap();
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("src", Arc::new(mix_xml::Document::from_tree(&tree)));
    pool.add_wrapper("src", FaultyWrapper::new(inner, FaultConfig::outage_after(4)));
    let mut server = VxdServer::new(pool);
    server
        .add_template(
            "q",
            "CONSTRUCT <all> <$L> $X {$X} </$L> {$L} </all> {} WHERE src items._ $X AND $X t $L",
        )
        .unwrap();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));

    // Raw frames, to see the reply itself: a bare `Node`.
    let mut frames = FrameStream::new(client_end);
    frames.send_request(&Request::new(0, Verb::Open { template: "q".into() })).unwrap();
    let Reply::Opened { session, root } = frames.recv_reply().unwrap() else {
        panic!("the session opens")
    };
    frames.send_request(&Request::new(session, Verb::Down { node: root })).unwrap();
    let reply = frames.recv_reply().unwrap();
    let Reply::Node { handle } = reply else {
        panic!("a degraded label is not shipped: {reply:?}")
    };

    // The client holds no label for it: its `f` sends a frame and the
    // degradation crosses the wire.
    let mut client = VxdClient::new(frames.into_inner()).with_trace(TraceSink::enabled(1_024));
    let sink = client.trace_sink();
    match client.fetch_checked(session, handle).unwrap() {
        FetchOutcome::Degraded { sources, .. } => assert_eq!(sources, ["src"]),
        FetchOutcome::Complete(l) => panic!("a dead source must degrade, got complete {l:?}"),
    }
    let f_frames = sink
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::WireRequest { verb: "f" }))
        .count();
    assert_eq!(f_frames, 1, "the fetch crossed the wire");

    client.close(session).unwrap();
    drop(client);
    conn.join().unwrap();
}
