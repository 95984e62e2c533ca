//! Serving quickstart: the mediated view over the wire.
//!
//! Starts a `VxdServer` on a loopback TCP socket with the paper's
//! running-example sources, opens two multiplexed sessions on one
//! connection, and navigates the virtual answer remotely — including a
//! degraded-fetch check (a remote client can tell "empty label" from
//! "sources down") and a clean teardown.
//!
//! Run with: `cargo run --example serve_quickstart`

use mix::prelude::*;
use mix::serve::FetchOutcome;
use mix::xml::term::parse_term;
use std::net::TcpStream;

fn main() {
    // Sessions share one wrapper connection per source, one fragment
    // cache, and one metrics registry; everything navigational (engine,
    // buffers, handle table) is private per session.
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree(
        "homesSrc",
        &parse_term(
            "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]]]",
        )
        .unwrap(),
        FillPolicy::NodeAtATime,
    );
    pool.add_tree(
        "schoolsSrc",
        &parse_term(
            "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],\
             school[dir[Hart],zip[91223]]]",
        )
        .unwrap(),
        FillPolicy::NodeAtATime,
    );

    // Query templates are parsed and translated once, at registration;
    // each Open instantiates the plan as a fresh per-session engine.
    let mut server = VxdServer::new(pool);
    server
        .add_template(
            "med_homes",
            "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
             WHERE homesSrc homes.home $H AND $H zip._ $V1
               AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2",
        )
        .expect("Figure 3 parses and translates");

    let handle = server.serve_tcp("127.0.0.1:0").expect("bind loopback");
    println!("serving DOM-VXD on {}", handle.local_addr());

    // One connection, two interleaved sessions: every request frame
    // carries its session id, so a single socket multiplexes them.
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut client = VxdClient::new(stream);

    let a = client.open("med_homes").expect("session a");
    let b = client.open("med_homes").expect("session b");
    println!("opened sessions {} and {} on one connection", a.session, b.session);

    // Session a walks the first med_home; session b independently reads
    // the root label — handles are private per session.
    let first = client.down(a.session, a.root).expect("down").expect("a med_home");
    println!("root label (session b): {}", client.fetch(b.session, b.root).unwrap());

    let mut child = client.down(a.session, first).expect("down");
    while let Some(node) = child {
        // fetch_checked preserves the engine's degraded-vs-empty
        // distinction across the wire.
        match client.fetch_checked(a.session, node).expect("fetch") {
            FetchOutcome::Complete(label) => println!("  session a sees: {label}"),
            FetchOutcome::Degraded { label, sources } => {
                println!("  partial answer {label}; sources down: {sources:?}")
            }
        }
        child = client.right(a.session, node).expect("right");
    }

    // `close` returns without waiting for its reply; the next exchange
    // on the connection reads it first.
    client.close(a.session).expect("close a");
    client.close(b.session).expect("close b");
    let c = client.open("med_homes").expect("session c");
    println!("sessions a and b closed; server still up: {} live session", server.session_count());
    client.close(c.session).expect("close c");

    handle.shutdown();
    println!("server shut down cleanly");
}
