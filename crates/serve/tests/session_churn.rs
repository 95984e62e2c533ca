//! Session teardown under churn: open → navigate → close, 200 times,
//! must return every per-session resource to baseline. Gauges fall back
//! to zero, per-session metric series are unregistered (the registry
//! cannot grow without bound), and the shared fragment cache stops
//! inserting once the working set is warm — sessions *share* the cache,
//! they don't each refill it.
//!
//! `close` does not wait for its reply, so server state is read after a
//! `close` only past the next exchange on that connection: the stream is
//! ordered, so by then the server has served the `close`.

use mix_buffer::{FillPolicy, FragmentCache, MetricsRegistry, SampleValue};
use mix_serve::{
    pipe, ClientError, ErrorCode, OpenSession, SessionSources, VxdClient, VxdServer,
};
use mix_xml::term::parse_term;
use std::io::{Read, Write};

const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";

fn server() -> VxdServer {
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree(
        "src",
        &parse_term("items[a[1],b[2],c[3],d[4]]").unwrap(),
        FillPolicy::NodeAtATime,
    );
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    server
}

/// `f(root)` of a closed session is `UnknownSession`. The reply to the
/// `close` is read before this one, so past it the server has served
/// the `close`.
fn assert_gone<S: Read + Write>(client: &mut VxdClient<S>, s: &OpenSession) {
    let err = client.fetch(s.session, s.root).unwrap_err();
    assert!(matches!(err, ClientError::Server { code: ErrorCode::UnknownSession, .. }), "{err}");
}

#[test]
fn two_hundred_session_churn_returns_to_baseline() {
    let server = server();
    let metrics = server.metrics();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);

    let gauge = |name: &str| {
        metrics
            .snapshot()
            .samples
            .into_iter()
            .find(|s| s.name == name)
            .map(|s| match s.value {
                SampleValue::Gauge(v) => v,
                other => panic!("{name} is not a gauge: {other:?}"),
            })
            .expect("the sessions gauge is registered")
    };

    // One warm-up cycle over the same walk the churn rounds make
    // establishes the steady-state baseline: registry size with zero
    // sessions open, and the fully-warm cache contents.
    let s = client.open("q").unwrap();
    let mut cur = client.down(s.session, s.root).unwrap();
    while let Some(n) = cur {
        let _ = client.fetch(s.session, n).unwrap();
        cur = client.right(s.session, n).unwrap();
    }
    client.close(s.session).unwrap();
    assert_gone(&mut client, &s);
    let baseline_series = metrics.len();
    let baseline_cache = server.cache().stats();
    assert_eq!(gauge("mix_serve_sessions"), 0);

    for round in 0..200 {
        let s = client.open("q").unwrap();
        assert_eq!(gauge("mix_serve_sessions"), 1, "round {round}");
        // Navigate enough to touch buffers and the cache.
        let mut cur = client.down(s.session, s.root).unwrap();
        while let Some(n) = cur {
            let _ = client.fetch(s.session, n).unwrap();
            cur = client.right(s.session, n).unwrap();
        }
        client.close(s.session).unwrap();
        assert_gone(&mut client, &s);

        // Closed session: gauge back to zero, its per-session series
        // unregistered, nothing leaked into the registry.
        assert_eq!(gauge("mix_serve_sessions"), 0, "round {round}");
        assert_eq!(
            metrics.len(),
            baseline_series,
            "round {round}: per-session series must not accumulate"
        );
    }

    assert_eq!(server.session_count(), 0);
    let end_cache = server.cache().stats();
    assert_eq!(
        end_cache.insertions, baseline_cache.insertions,
        "a warm working set inserts nothing across 200 sessions"
    );
    assert!(
        end_cache.hits > baseline_cache.hits,
        "churned sessions were answered from the shared cache"
    );

    drop(client);
    conn.join().unwrap();
}

#[test]
fn disconnect_force_closes_every_session_the_connection_owned() {
    let server = server();
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);

    for _ in 0..5 {
        let _ = client.open("q").unwrap();
    }
    assert_eq!(server.session_count(), 5);

    // Vanish without closing anything.
    drop(client);
    conn.join().unwrap();
    assert_eq!(server.session_count(), 0, "a vanished client must not leak sessions");

    // And the per-session series went with them.
    let leaked = server
        .metrics()
        .snapshot()
        .samples
        .into_iter()
        .filter(|s| s.labels.iter().any(|(k, _)| k == "session"))
        .count();
    assert_eq!(leaked, 0, "no per-session series survive their sessions");
}

#[test]
fn session_limit_is_a_typed_error_not_a_crash() {
    let pool = {
        let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
        pool.add_tree("src", &parse_term("items[a[1]]").unwrap(), FillPolicy::NodeAtATime);
        pool
    };
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    let server = server.with_max_sessions(2);

    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);

    let a = client.open("q").unwrap();
    let _b = client.open("q").unwrap();
    let err = client.open("q").unwrap_err();
    assert!(matches!(
        err,
        mix_serve::ClientError::Server { code: mix_serve::ErrorCode::SessionLimit, .. }
    ));
    // Closing one frees a slot.
    client.close(a.session).unwrap();
    let _c = client.open("q").unwrap();

    drop(client);
    conn.join().unwrap();
}

#[test]
fn back_to_back_closes_over_tcp_do_not_deadlock() {
    let server = server();
    let handle = server.serve_tcp("127.0.0.1:0").unwrap();
    let mut client = VxdClient::new(std::net::TcpStream::connect(handle.local_addr()).unwrap());
    let sessions: Vec<_> = (0..8).map(|_| client.open("q").unwrap()).collect();
    assert_eq!(server.session_count(), 8);
    for s in &sessions {
        client.close(s.session).unwrap();
    }
    // Past this exchange the server has served every close.
    let open = client.open("q").unwrap();
    assert_eq!(server.session_count(), 1);
    client.close(open.session).unwrap();
    drop(client);
    handle.shutdown();
}
