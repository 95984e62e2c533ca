//! Fault containment through the serving stack: a deliberately-panicked
//! session is force-closed and answered with a typed error while its
//! neighbours keep navigating, and a panic while `Open` answers `d(root)`
//! opens no session; degraded answers cross the wire as `DegradedLabel`
//! (a remote client can never mistake a degraded empty label for a real
//! one), and an `Open` whose `d(root)` degraded names the sources;
//! malformed frames get typed errors without killing the connection; a
//! label no frame can carry is a typed error, not a dead connection; and
//! all of it holds over real TCP.
//!
//! `close` does not wait for its reply, so a test reads server state
//! after a `close` only past the next exchange on that connection: the
//! stream is ordered, so by then the server has served the `close`.

use mix_buffer::{
    FaultConfig, FaultyWrapper, FillPolicy, Fragment, FragmentCache, HoleId, LxpError,
    LxpWrapper, MetricsRegistry, SampleValue, TreeWrapper,
};
use mix_serve::codec::{
    write_frame, FirstAnswer, FrameError, FrameStream, Link, Reply, Request, ShippedNode, Verb,
};
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

/// `<$L>` takes its label from `$L`'s subtree, so fetching it fills that
/// subtree.
const LABELLED: &str =
    "CONSTRUCT <all> <$L> $X {$X} </$L> {$L} </all> {} WHERE src items._ $X AND $X t $L";

/// A source for [`LABELLED`] that goes down after its 4th request: the
/// `d(root)` to the first element succeeds, its label fetch degrades.
fn failing_labels_server() -> VxdServer {
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    let tree = parse_term("items[a[t[u[1],v[2]]],b[t[w[3]]]]").unwrap();
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("src", Arc::new(mix_xml::Document::from_tree(&tree)));
    pool.add_wrapper("src", FaultyWrapper::new(inner, FaultConfig::outage_after(4)));
    let mut server = VxdServer::new(pool);
    server.add_template("q", LABELLED).unwrap();
    server
}

/// Per-session metric series still registered.
fn session_series(server: &VxdServer) -> usize {
    server
        .metrics()
        .snapshot()
        .samples
        .into_iter()
        .filter(|s| s.labels.iter().any(|(k, _)| k == "session"))
        .count()
}

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
    let err = client.fetch(good.session, good.root).unwrap_err();
    assert!(matches!(err, ClientError::Server { code: ErrorCode::UnknownSession, .. }));

    // The panic left no per-session series behind.
    assert_eq!(session_series(&server), 0);

    drop(client);
    conn.join().unwrap();
}

/// A source whose fills panic; the engine's build asks it only for its
/// root.
struct PanickingFills(TreeWrapper);

impl LxpWrapper for PanickingFills {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        self.0.get_root(uri)
    }

    fn fill(&mut self, _: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        panic!("injected fill panic")
    }
}

#[test]
fn a_panic_while_open_answers_d_root_opens_no_session() {
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("bad", Arc::new(mix_xml::Document::from_tree(&parse_term("items[a]").unwrap())));
    pool.add_wrapper("bad", PanickingFills(inner));
    pool.add_tree("src", &parse_term("items[a[1]]").unwrap(), FillPolicy::NodeAtATime);
    let mut server = VxdServer::new(pool);
    server.add_template("toxic", "CONSTRUCT <all> $X {$X} </all> {} WHERE bad items._ $X").unwrap();
    server.add_template("q", QUERY).unwrap();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    // Traced, so a leaked flight-recorder series would show too.
    let mut client = VxdClient::new(client_end).with_trace(TraceSink::enabled(1_024));

    let err = client.open("toxic").unwrap_err();
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::Internal, .. }),
        "the panic surfaces as a typed Internal error: {err}"
    );
    assert_eq!(server.session_count(), 0, "no session was opened");
    assert_eq!(session_series(&server), 0, "nor any per-session series");
    let totals = server.metrics().snapshot();
    assert_eq!(totals.total("mix_serve_session_panics_total"), 1);
    assert_eq!(totals.total("mix_serve_sessions_opened_total"), 0);
    assert_eq!(totals.value("mix_serve_verb_errors_total", &[("verb", "d")]), Some(1));

    // The connection is still served.
    let open = client.open("q").unwrap();
    let a = client.down(open.session, open.root).unwrap().expect("the view holds `a`");
    assert_eq!(client.fetch(open.session, a).unwrap(), "a");
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
}

#[test]
fn degraded_answers_cross_the_wire_as_degraded() {
    // The open's `d(root)` reaches the first element, whose label
    // degrades: the open ships nothing of it and names the source.
    let server = failing_labels_server();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);

    let open = client.open("q").unwrap();
    assert_eq!(open.degraded, ["src"], "the open names the source that degraded");
    // So `d(root)` crosses, and reaches the element bare: its `f` crosses
    // too, and the degradation with it.
    let first = client.down(open.session, open.root).unwrap().expect("the view holds `a`");
    let outcome = client.fetch_checked(open.session, first).unwrap();
    let FetchOutcome::Degraded { label, sources } = outcome else {
        panic!("a dead source must degrade, got {outcome:?}")
    };
    assert_eq!(sources, ["src"], "the guilty source is named over the wire");
    // The unchecked convenience hides it — which is exactly why the wire
    // carries the distinction.
    assert_eq!(client.fetch(open.session, first).unwrap(), label);
    assert_eq!(
        server.metrics().snapshot().total("mix_serve_degraded_replies_total"),
        3,
        "the open and both fetches"
    );

    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
}

/// A source that fails every fill of one hole and answers all others.
struct DeadHole {
    inner: TreeWrapper,
    dead: &'static str,
}

impl LxpWrapper for DeadHole {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        self.inner.get_root(uri)
    }

    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        if hole == self.dead {
            return Err(LxpError::SourceError("injected dead hole".into()));
        }
        self.inner.fill(hole)
    }
}

#[test]
fn an_open_whose_d_root_degraded_ships_nothing_though_the_reached_label_is_complete() {
    // `d(root)` asks for `a`'s children (the hole `src|c|1|0`), which
    // degrade, and still reaches `<g>`. Its label is a constant, so the
    // label fetches of the shipment degrade nothing: only a comparison
    // over the whole `d(root)` sees the loss.
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    let tree = parse_term("items[a[1,2],b[3]]").unwrap();
    inner.add("src", Arc::new(mix_xml::Document::from_tree(&tree)));
    pool.add_wrapper("src", DeadHole { inner, dead: "src|c|1|0" });
    let mut server = VxdServer::new(pool);
    server
        .add_template("q", "CONSTRUCT <all> <g> $X </g> {$X} </all> {} WHERE src items._ $X")
        .unwrap();

    let open = Request::new(0, Verb::Open { template: "q".into() });
    let Reply::Opened { first, .. } = server.handle(&open) else {
        panic!("the template opens");
    };
    assert_eq!(first, FirstAnswer::Unknown { degraded: vec!["src".to_string()] });

    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);
    let open = client.open("q").unwrap();
    assert_eq!(open.degraded, ["src"]);
    let g = client.down(open.session, open.root).unwrap().expect("the view holds `g`");
    let label = client.fetch_checked(open.session, g).unwrap();
    assert_eq!(label, FetchOutcome::Complete("g".into()));
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

/// Close a session against a peer that answers the `close` with `late`,
/// and return the error of the next call. The peer answers that call
/// and one more, whose reply the function checks.
fn error_after_a_late_close_reply(late: Vec<u8>) -> ClientError {
    let (client_end, peer_end) = pipe();
    let peer = std::thread::spawn(move || {
        let mut frames = FrameStream::new(peer_end);
        let opened = |session| Reply::Opened { session, root: 1, first: FirstAnswer::End };
        frames.recv_request().unwrap().unwrap();
        frames.send_reply(&opened(1)).unwrap();
        let close = frames.recv_request().unwrap().unwrap();
        assert_eq!(close.verb, Verb::Close);
        write_frame(frames.stream_mut(), &late).unwrap();
        for session in [2, 3] {
            frames.recv_request().unwrap().unwrap();
            frames.send_reply(&opened(session)).unwrap();
        }
    });
    let mut client = VxdClient::new(client_end);
    let open = client.open("q").unwrap();
    client.close(open.session).unwrap();
    let err = client.open("q").unwrap_err();
    // The failed call read its own reply, so this one gets its own.
    assert_eq!(client.open("q").unwrap().session, 3);
    peer.join().unwrap();
    err
}

#[test]
fn a_late_close_reply_that_is_no_close_reply_is_returned_by_the_next_call() {
    // A frame that decodes to no reply.
    let err = error_after_a_late_close_reply(vec![0x7F]);
    assert!(matches!(err, ClientError::Frame(FrameError::UnknownTag(0x7F))), "{err}");
    // A reply no `close` can get.
    let err = error_after_a_late_close_reply(Reply::End.encode());
    assert!(matches!(err, ClientError::UnexpectedReply(_)), "{err}");
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
                // Past this exchange the server has served both closes.
                assert!(client.open("nonesuch").is_err());
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
    let leaf_first = Tree::node("items", vec![Tree::leaf(big.as_str())]);
    pool.add_tree("flat", &leaf_first, FillPolicy::NodeAtATime);
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    server.add_template("flat", "CONSTRUCT <all> $X {$X} </all> {} WHERE flat items._ $X").unwrap();
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
    assert!(client.fetch(open.session, a).is_err(), "the session is gone");
    assert_eq!(sessions(), baseline, "close returns the sessions gauge to baseline");

    // The first answer is the leaf: `Opened` leaves `d(root)` unknown, so
    // the `d` crosses and reaches the leaf bare.
    let flat = client.open("flat").unwrap();
    assert!(flat.degraded.is_empty(), "nothing degraded");
    let leaf = client.down(flat.session, flat.root).unwrap().expect("the view holds the leaf");
    let err = client.fetch(flat.session, leaf).unwrap_err();
    assert!(matches!(err, ClientError::Server { code: ErrorCode::LabelTooLong, .. }), "{err}");
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
    let Reply::Opened { session, root, .. } =
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
    let server = failing_labels_server();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));

    // Raw frames, to see the reply itself: a bare `Node`.
    let mut frames = FrameStream::new(client_end);
    frames.send_request(&Request::new(0, Verb::Open { template: "q".into() })).unwrap();
    let reply = frames.recv_reply().unwrap();
    let Reply::Opened { session, root, first } = reply else {
        panic!("the session opens: {reply:?}")
    };
    assert_eq!(first, FirstAnswer::Unknown { degraded: vec!["src".into()] });
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
