//! The live scrape plane over real TCP: `/metrics` must round-trip
//! through the strict in-tree `PromText` parser (the same oracle CI's
//! `scrape-smoke` job gates on), `/healthz` must flip to 503 when a
//! source's circuit breaker opens, `/sessions` must show live sessions,
//! and `/slow` entries must carry span ids that `why` can explain.

use mix_buffer::{
    FillPolicy, FragmentCache, LxpError, MetricsRegistry, RetryPolicy, RetryState,
};
use mix_core::{PromText, TraceSink};
use mix_serve::server::CLOSED_TRACE_CAPACITY;
use mix_serve::{pipe, SessionSources, VxdClient, VxdServer, WhyAnswer, VERB_LABELS};
use mix_xml::term::parse_term;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";

fn pool() -> SessionSources {
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree(
        "src",
        &parse_term("items[a[1],b[2],c[3]]").unwrap(),
        FillPolicy::NodeAtATime,
    );
    pool
}

/// One curl-shaped GET: returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: scrape\r\nConnection: close\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn metrics_scrape_round_trips_through_the_strict_parser() {
    let mut server = VxdServer::new(pool());
    server.add_template("q", QUERY).unwrap();

    // One traced session, every verb exercised, still open at scrape time
    // — live scraping must not require quiescence.
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end).with_trace(TraceSink::enabled(4096));
    let open = client.open("q").unwrap();
    let mut cur = client.down(open.session, open.root).unwrap();
    while let Some(n) = cur {
        client.fetch(open.session, n).unwrap();
        client.select(open.session, n, "nope").unwrap();
        cur = client.right(open.session, n).unwrap();
    }

    let http = server.serve_http("127.0.0.1:0").unwrap();
    let (status, body) = http_get(http.local_addr(), "/metrics");
    assert_eq!(status, 200);

    // The strict parser is the oracle: structure, ordering, histogram
    // bucket monotonicity — a lenient scrape would hide all of it.
    let parsed = PromText::parse(&body).expect("scrape output is strictly well-formed");
    let family = |name: &str| {
        parsed
            .families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("family {name} missing from scrape"))
    };

    // Per-verb RED series: every verb labelled, every label a known verb.
    let requests = family("mix_serve_verb_requests_total");
    let verbs: Vec<&str> = requests
        .series
        .iter()
        .filter_map(|s| s.labels.iter().find(|(k, _)| k == "verb").map(|(_, v)| v.as_str()))
        .collect();
    for verb in VERB_LABELS {
        assert!(verbs.contains(&verb), "verb {verb} has no request series");
    }
    family("mix_serve_verb_errors_total");
    let latency = family("mix_serve_nav_latency_ns");
    assert_eq!(latency.kind, "histogram");
    assert!(
        latency.series.iter().all(|s| s.labels.iter().any(|(k, _)| k == "verb")),
        "every latency sample is verb-labelled"
    );

    // The traced session's flight-recorder drop counter is on the scrape
    // surface, labelled with its session id.
    let dropped = family("mix_trace_dropped_total");
    let label = (String::from("session"), open.session.to_string());
    assert!(
        dropped.series.iter().any(|s| s.labels.contains(&label)),
        "the live traced session exports its drop counter"
    );
    assert!(dropped.series.iter().all(|s| s.value == 0.0), "nothing dropped here");

    // Close the session: its labelled series are swept, and the scrape
    // still parses strictly.
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
    let (status, body) = http_get(http.local_addr(), "/metrics");
    assert_eq!(status, 200);
    let parsed = PromText::parse(&body).expect("post-close scrape still strict");
    assert!(
        !parsed.families.iter().any(|f| f.name == "mix_trace_dropped_total"),
        "per-session series do not outlive their session"
    );

    http.shutdown();
}

#[test]
fn healthz_flips_to_503_when_a_breaker_opens() {
    let pool = pool();
    // The pool hands out the same shared health cells `/healthz`
    // aggregates — the breaker flip below is what the retry layer does
    // after `breaker_threshold` consecutive source failures.
    let health = pool.health().remove(0).1;
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    let http = server.serve_http("127.0.0.1:0").unwrap();

    let (status, body) = http_get(http.local_addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("src"), "{body}");

    health.set_breaker(true);
    let (status, body) = http_get(http.local_addr(), "/healthz");
    assert_eq!(status, 503, "an unavailable source is a failing health check");
    assert!(body.contains("Unavailable"), "{body}");

    health.set_breaker(false);
    let (status, _) = http_get(http.local_addr(), "/healthz");
    assert_eq!(status, 200, "closing the breaker restores the check");

    http.shutdown();
}

#[test]
fn healthz_recovers_after_a_successful_half_open_probe() {
    let pool = pool();
    // The pool hands out the same shared health cell `/healthz`
    // aggregates; drive it through the real retry layer so this covers
    // the whole flap cycle, not just the `set_breaker` flips.
    let health = pool.health().remove(0).1;
    let mut server = VxdServer::new(pool);
    server.add_template("q", QUERY).unwrap();
    let http = server.serve_http("127.0.0.1:0").unwrap();

    let policy = RetryPolicy {
        max_attempts: 1,
        breaker_threshold: 1,
        half_open_after: 2,
        ..RetryPolicy::default()
    };
    let mut state = RetryState::new();

    // The source fails: the breaker opens and /healthz goes 503.
    let r = state.run(&policy, &health, || -> Result<(), LxpError> {
        Err(LxpError::SourceError("flap".into()))
    });
    assert!(r.is_err());
    assert!(state.is_open());
    let (status, body) = http_get(http.local_addr(), "/healthz");
    assert_eq!(status, 503, "an open breaker is a failing health check");
    assert!(body.contains("Unavailable"), "{body}");

    // The source recovers. The first open call is a paced rejection —
    // the check stays red — but the next is the half-open probe, and its
    // success must flip /healthz back to 200 without any manual reset.
    // (The regression: a recovered source stuck at 503 forever.)
    let ok = || -> Result<(), LxpError> { Ok(()) };
    assert!(state.run(&policy, &health, ok).is_err(), "paced rejection while open");
    let (status, _) = http_get(http.local_addr(), "/healthz");
    assert_eq!(status, 503, "still quarantined until the probe runs");
    assert!(state.run(&policy, &health, ok).is_ok(), "the half-open probe succeeds");
    assert!(!state.is_open());
    let (status, body) = http_get(http.local_addr(), "/healthz");
    assert_eq!(status, 200, "a successful probe restores the health check");
    assert!(!body.contains("Unavailable"), "{body}");

    http.shutdown();
}

/// Open one traced session over `server`, fetch once, close it, and
/// return `(session id, the fetch's slow-log server span)`.
fn traced_session_span(server: &VxdServer) -> (u64, u64) {
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end).with_trace(TraceSink::enabled(4096));
    let open = client.open("q").unwrap();
    client.fetch(open.session, open.root).unwrap();
    let span = server
        .slow_navs()
        .iter()
        .find(|s| s.session == open.session && s.verb == "f")
        .expect("threshold 0 records the fetch")
        .server_span;
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
    (open.session, span)
}

#[test]
fn why_types_every_empty_answer_and_names_trace_eviction() {
    let mut server = VxdServer::new(pool());
    server.add_template("q", QUERY).unwrap();
    // Threshold 0: every navigation lands in the slow log.
    server.set_slow_nav_threshold(0);

    let (session, span) = traced_session_span(&server);
    assert!(span > 0, "traced sessions record real spans");

    // Just closed: the retained ring still explains the span; a span the
    // ring never recorded and a session never opened are each typed.
    assert!(matches!(server.why(session, span), WhyAnswer::Explained(_)));
    assert_eq!(server.why(session, u64::MAX), WhyAnswer::UnknownSpan);
    assert_eq!(server.why(u64::MAX, span), WhyAnswer::UnknownSession);

    // Churn CLOSED_TRACE_CAPACITY more traced sessions through: the
    // first ring ages out of the bounded buffer, and the slow-log entry
    // that outlived it now answers TraceEvicted — the regression was a
    // silently-empty answer indistinguishable from "nothing recorded".
    for _ in 0..CLOSED_TRACE_CAPACITY {
        traced_session_span(&server);
    }
    assert_eq!(server.why(session, span), WhyAnswer::TraceEvicted);

    // An untraced session's verbs record no spans at all: that is
    // Untraced — live or closed — never TraceEvicted.
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end);
    let open = client.open("q").unwrap();
    assert_eq!(server.why(open.session, 0), WhyAnswer::Untraced);
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
    assert_eq!(server.why(open.session, 0), WhyAnswer::Untraced);
}

#[test]
fn sessions_table_shows_live_sessions_and_slow_log_explains_spans() {
    let mut server = VxdServer::new(pool());
    server.add_template("q", QUERY).unwrap();
    // Threshold 0: every navigation is "slow" — deterministic log entries.
    server.set_slow_nav_threshold(0);
    let http = server.serve_http("127.0.0.1:0").unwrap();

    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end).with_trace(TraceSink::enabled(4096));
    let open = client.open("q").unwrap();
    client.fetch(open.session, open.root).unwrap();

    // While the session is open it is on the live table, marked traced.
    let (status, body) = http_get(http.local_addr(), "/sessions");
    assert_eq!(status, 200);
    let row = body
        .lines()
        .find(|l| l.starts_with(&open.session.to_string()))
        .unwrap_or_else(|| panic!("session {} not in table:\n{body}", open.session));
    assert!(row.contains('q'), "{row}");
    assert!(row.trim_end().ends_with("true"), "traced flag shown: {row}");

    // The slow log recorded the fetch, with both span ids.
    let slow = server.slow_navs();
    let nav = slow
        .iter()
        .find(|s| s.session == open.session && s.verb == "f")
        .expect("threshold 0 records the fetch");
    assert!(nav.client_span.is_some(), "traced request carries the client span");
    let (status, body) = http_get(http.local_addr(), "/slow");
    assert_eq!(status, 200);
    assert!(body.contains("verb=f"), "{body}");
    assert!(body.contains("client_span="), "{body}");

    // `why <span>` explains the slow entry from the session's recorder.
    let explanation = server.why(open.session, nav.server_span);
    assert!(
        matches!(&explanation, WhyAnswer::Explained(text) if !text.is_empty()),
        "the slow span is explainable: {explanation:?}"
    );

    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();

    let (_, body) = http_get(http.local_addr(), "/sessions");
    assert!(
        !body.lines().any(|l| l.starts_with(&open.session.to_string())),
        "closed sessions leave the table:\n{body}"
    );
    http.shutdown();
}

#[test]
fn an_opens_d_root_is_served_as_a_d_in_the_red_series_and_the_slow_log() {
    let mut server = VxdServer::new(pool());
    server.add_template("q", QUERY).unwrap();
    server.set_slow_nav_threshold(0);
    let (client_end, server_end) = pipe();
    let server2 = server.clone();
    let conn = std::thread::spawn(move || server2.serve_connection(server_end));
    let mut client = VxdClient::new(client_end).with_trace(TraceSink::enabled(4096));
    let open = client.open("q").unwrap();

    // The open served `d(root)`, and no frame asked for it.
    let totals = server.metrics().snapshot();
    let d = [("verb", "d")];
    assert_eq!(totals.value("mix_serve_verb_requests_total", &d), Some(1));
    assert_eq!(totals.histogram("mix_serve_nav_latency_ns", &d).map(|h| h.count), Some(1));
    let session = open.session.to_string();
    let commands = totals.value("mix_serve_session_commands_total", &[("session", &session)]);
    assert_eq!(commands, Some(1));

    // It is in the slow log as a `d` of the session, linked to the
    // client's `open` span, and `why` explains its server span.
    let slow = server.slow_navs();
    let nav = slow
        .iter()
        .find(|s| s.session == open.session)
        .expect("threshold 0 records the open's d(root)");
    assert_eq!(nav.verb, "d");
    assert!(nav.client_span.is_some());
    let explanation = server.why(open.session, nav.server_span);
    assert!(
        matches!(&explanation, WhyAnswer::Explained(text) if !text.is_empty()),
        "{explanation:?}"
    );
    client.close(open.session).unwrap();
    drop(client);
    conn.join().unwrap();
}
