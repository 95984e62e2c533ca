//! The cross-process flight-recorder differentials.
//!
//! PR 3's oracle was `trace rollup ≡ engine traffic` inside one process;
//! this file extends it across the DOM-VXD wire:
//!
//! 1. a traced served walk and a traced in-process walk of the same view
//!    produce the **same wire rollup** (requests, batched holes, wasted
//!    bytes — framing adds no traffic and tracing observes all of it);
//! 2. the merged client+server trace reconciles with the wire itself:
//!    `#wire-request == #wire-span == frames sent`, where a command the
//!    client answers from what the server shipped sends no frame and
//!    records nothing;
//! 3. served answers are **byte-identical** with tracing on and off —
//!    propagation is pure observation;
//! 4. under injected faults, every degraded served answer is pinpointed
//!    by the merged trace to the client span that suffered it, with the
//!    server-side source cascade re-parented underneath — the `d(root)`
//!    an `open` answers included.

use mix_algebra::translate;
use mix_buffer::{
    FaultConfig, FaultyWrapper, FillPolicy, FragmentCache, MetricsRegistry, TreeWrapper,
};
use mix_core::{Engine, EngineConfig, TraceKind, TraceLog, TraceSink};
use mix_nav::explore::materialize;
use mix_serve::{pipe, FetchOutcome, SessionSources, VxdClient, VxdServer};
use mix_xmas::parse_query;
use mix_xml::term::parse_term;
use mix_xml::Tree;
use std::io::{Read, Write};
use std::sync::Arc;

const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";
const SOURCE: &str = "items[a[x[1],y[2]],b[3],c[4,5],d,e[f[g[6]]]]";

fn pool() -> SessionSources {
    let tree = parse_term(SOURCE).unwrap();
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree("src", &tree, FillPolicy::NodeAtATime);
    pool
}

/// Materialize through the wire, mirroring `materialize` verb-for-verb.
fn client_materialize<S: Read + Write>(
    client: &mut VxdClient<S>,
    session: u64,
    node: u64,
) -> Tree {
    let label = client.fetch(session, node).unwrap();
    let mut children = Vec::new();
    let mut cur = client.down(session, node).unwrap();
    while let Some(c) = cur {
        children.push(client_materialize(client, session, c));
        cur = client.right(session, c).unwrap();
    }
    Tree::node(label, children)
}

/// Run one traced served walk; return the answer, the merged trace, the
/// client's own trace, and how many request frames the server received.
fn traced_served_walk() -> (String, TraceLog, TraceLog, u64) {
    let mut server = VxdServer::new(pool());
    server.add_template("q", QUERY).unwrap();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));

    let mut client = VxdClient::new(client_end).with_trace(TraceSink::enabled(65_536));
    let client_sink = client.trace_sink();
    let open = client.open("q").unwrap();
    let served = client_materialize(&mut client, open.session, open.root).to_string();
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();

    // The server retains closed traced sessions' rings (bounded), so the
    // merge can run after the client hung up.
    let server_log = server.session_trace(open.session).expect("closed trace retained");
    let client_log = TraceLog::from_sink(&client_sink);
    assert_eq!(client_log.dropped(), 0);
    assert_eq!(server_log.dropped(), 0);
    // Frames received = the server's own count of the verbs it served,
    // plus its closes: each open served one `d`, its `d(root)`, in its
    // own `Open` frame.
    let served_totals = server.metrics().snapshot();
    let frames = ["verb_requests", "sessions_closed"]
        .iter()
        .map(|name| served_totals.total(&format!("mix_serve_{name}_total")))
        .sum();
    let merged = TraceLog::merge_remote(&client_log, &server_log);
    (served, merged, client_log, frames)
}

#[test]
fn merged_served_trace_matches_the_inprocess_trace_rollup() {
    // In-process traced twin.
    let plan = translate(&parse_query(QUERY).unwrap()).unwrap();
    let twin_pool = pool();
    let twin_sink = TraceSink::enabled(65_536);
    let mut engine = Engine::with_config(
        plan,
        &twin_pool.registry_for_session_traced(&twin_sink),
        EngineConfig::default(),
    )
    .unwrap();
    let direct = materialize(&mut engine).to_string();
    let twin = TraceLog::from_sink(&twin_sink);
    assert_eq!(twin.dropped(), 0);
    let twin_rollup = twin.rollup();
    assert!(twin_rollup.requests > 0, "the walk exercised the wire");

    let (served, merged, _, _) = traced_served_walk();
    assert_eq!(served, direct, "tracing adds observation, not semantics");

    // The merged rollup reproduces the in-process twin's wire arithmetic
    // exactly — serving and tracing both add zero traffic.
    let r = merged.rollup();
    assert_eq!(r.requests, twin_rollup.requests);
    assert_eq!(r.batched_holes, twin_rollup.batched_holes);
    assert_eq!(r.wasted_bytes, twin_rollup.wasted_bytes);
    assert_eq!(r.fills, twin_rollup.fills);
    assert_eq!(r.nodes, twin_rollup.nodes);
    assert_eq!(r.bytes, twin_rollup.bytes);
    assert_eq!(r.degradations, 0);
}

#[test]
fn merged_trace_reconciles_with_wire_traffic() {
    let (served, merged, client_log, frames) = traced_served_walk();
    // Open + navs + close, one client span each: a local command begins
    // none.
    assert_eq!(client_log.spans().len() as u64, frames, "one client span per frame");
    // The walk fetched every node, but only the root's label crossed the
    // wire: the rest came with the `d`/`r` replies.
    let f_frames = client_log
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::WireRequest { verb: "f" }))
        .count();
    let nodes = mix_xml::term::parse_term(&served).unwrap().size();
    assert!(nodes > 1);
    assert_eq!(f_frames, 1, "{nodes} fetches, one `f` frame: the root's");
    let r = merged.rollup();
    // Every frame the client sent was linked server-side, and nothing
    // was linked that wasn't sent: the cross-process oracle.
    assert_eq!(r.wire_requests, frames, "client recorded one wire-request per frame");
    assert_eq!(r.wire_spans, frames, "server linked every frame's span");
    // Every server-side event landed under a client span or a fresh
    // warm-up span — and each client nav span contains its own link.
    let rows = merged.span_stats();
    let linked = rows.iter().filter(|s| s.serves_client_span == Some(s.span)).count() as u64;
    assert_eq!(linked, frames, "each client span serves itself in the merged view");
    // Every source cascade — the labels a `d`/`r` ships included — sits
    // under the client command that caused it.
    for row in rows.iter().filter(|s| s.source_commands > 0 || s.requests > 0) {
        assert_eq!(
            row.serves_client_span,
            Some(row.span),
            "span {} ({}) did source work outside a wire-linked span",
            row.span,
            row.command
        );
    }
}

#[test]
fn served_answers_are_byte_identical_with_tracing_on_and_off() {
    let run = |traced: bool| -> String {
        let mut server = VxdServer::new(pool());
        server.add_template("q", QUERY).unwrap();
        let (client_end, server_end) = pipe();
        let server2 = server.clone();
        let conn = std::thread::spawn(move || server2.serve_connection(server_end));
        let mut client = VxdClient::new(client_end);
        if traced {
            client = client.with_trace(TraceSink::enabled(65_536));
        }
        let open = client.open("q").unwrap();
        let served = client_materialize(&mut client, open.session, open.root).to_string();
        client.close(open.session).unwrap();
        drop(client);
        conn.join().unwrap();
        served
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn degraded_answers_are_pinpointed_to_merged_spans() {
    // `<$L>` takes its label from `$L`'s subtree, and the source dies
    // after its 4th request: the open's `d(root)` reaches the first
    // element but its label degrades, so the open ships nothing and the
    // client's `d(root)` and `f` of that element cross (same shape as
    // fault_containment's wire test, now with the flight recorder
    // running on both ends).
    let tree = parse_term("items[a[t[u[1],v[2]]],b[t[w[3]]]]").unwrap();
    let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
    inner.add("src", Arc::new(mix_xml::Document::from_tree(&tree)));
    let faulty = FaultyWrapper::new(inner, FaultConfig::outage_after(4));
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_wrapper("src", faulty);
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

    let mut client = VxdClient::new(client_end).with_trace(TraceSink::enabled(65_536));
    let client_sink = client.trace_sink();
    let open = client.open("q").unwrap();
    assert_eq!(open.degraded, ["src"], "the open names the source that degraded");
    let open_span = client_sink.current_span();

    // Walk breadth-first, fetching every reachable node; record the
    // client span of each degraded answer.
    let mut degraded_spans: Vec<u64> = Vec::new();
    let mut queue = vec![open.root];
    while let Some(node) = queue.pop() {
        match client.fetch_checked(open.session, node).unwrap() {
            FetchOutcome::Complete(_) => {}
            FetchOutcome::Degraded { sources, .. } => {
                assert_eq!(sources, vec!["src".to_string()], "the failed source is named");
                degraded_spans.push(client_sink.current_span());
            }
        }
        let mut cur = client.down(open.session, node).unwrap();
        while let Some(c) = cur {
            queue.push(c);
            cur = client.right(open.session, c).unwrap();
        }
    }
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();

    assert!(!degraded_spans.is_empty(), "the outage degraded at least one answer");

    let server_log = server.session_trace(open.session).expect("closed trace retained");
    let merged = TraceLog::merge_remote(&TraceLog::from_sink(&client_sink), &server_log);
    let rows = merged.span_stats();
    // Every degraded served answer is pinpointed: its client span, in the
    // merged cascade, carries the server-side degradation and the wire
    // link proving which frame it served.
    for span in &degraded_spans {
        let row = rows.iter().find(|s| s.span == *span).expect("span row exists");
        assert_eq!(row.command, "f", "degradations happened on fetches");
        assert!(row.degradations >= 1, "span {span} shows its degradation");
        assert_eq!(row.serves_client_span, Some(*span), "span {span} is wire-linked");
    }
    // So is the open's: its `d(root)` degraded under the client's `open`.
    let row = rows.iter().find(|s| s.span == open_span).expect("the open's row exists");
    assert_eq!(row.command, "open");
    assert!(row.degradations >= 1, "the open's span shows its degradation");
    assert_eq!(row.serves_client_span, Some(open_span), "the open is wire-linked");
    // And the merged rollup still reconciles with the wire under faults.
    let r = merged.rollup();
    let frames = TraceLog::from_sink(&client_sink).spans().len() as u64;
    assert_eq!(r.wire_requests, frames);
    assert_eq!(r.wire_spans, frames);
    assert!(r.degradations >= degraded_spans.len() as u64);
}
