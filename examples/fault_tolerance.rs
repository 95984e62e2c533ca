//! The `allbooks` scenario of `examples/bookstores.rs`, but the stores'
//! network is unreliable: every LXP request can fail transiently, and one
//! store eventually goes down for good.
//!
//! Demonstrates the fault-tolerance layer end to end:
//!
//! * transient faults (25% of all requests) are retried away inside the
//!   buffer — the integrated view is **identical** to the fault-free run;
//! * a permanent outage degrades to a partial answer, and the client reads
//!   which source failed and why from the DOM-side health surface — no
//!   panic anywhere in the path.
//!
//! Run with: `cargo run --example fault_tolerance`

use mix::prelude::*;
use mix::wrappers::gen::bookstore_doc;
use mix::wrappers::{Network, WebWrapper};
use std::sync::Arc;

const QUERY: &str = r#"
CONSTRUCT <allbooks>
            <offer> $T $P {$P} </offer> {$T}
          </allbooks> {}
WHERE amazon books.book $B AND $B title._ $T AND $B price._ $P
"#;

/// The bookstore source, optionally behind a fault injector.
fn build_sources(
    network: &Arc<Network>,
    n_books: usize,
    faults: Option<FaultConfig>,
    policy: RetryPolicy,
) -> SourceRegistry {
    let page_size = FillPolicy::Chunked { n: 20 };
    let mut amazon = WebWrapper::with_policy(network.clone(), page_size);
    amazon.add_page("amazon", &bookstore_doc(1, "amazon", n_books));

    let mut sources = SourceRegistry::new();
    match faults {
        Some(config) => {
            let nav = BufferNavigator::with_retry(
                FaultyWrapper::new(amazon, config),
                "amazon",
                policy,
            );
            sources.add_buffer("amazon", nav);
        }
        None => {
            sources.add_navigator("amazon", BufferNavigator::new(amazon, "amazon"));
        }
    }
    sources
}

fn answer_of(doc: &VirtualDocument) -> Tree {
    doc.root().to_tree()
}

fn health_report(doc: &VirtualDocument) {
    println!("  overall health: {}", doc.overall_health());
    for (name, snap) in doc.health() {
        match snap {
            Some(s) => println!(
                "  {name}: {} — {} retries, backoff cost {}, {} degraded ops{}",
                s.status,
                s.retries,
                s.backoff_cost,
                s.degraded_ops,
                s.last_error.map(|e| format!("\n    last error: {e}")).unwrap_or_default()
            ),
            None => println!("  {name}: (no health handle)"),
        }
    }
}

fn main() {
    let n_books = 120;
    let plan = translate(&parse_query(QUERY).unwrap()).unwrap();

    // ---- baseline: a healthy network ----------------------------------
    let network = Network::new(250, 1);
    let sources = build_sources(&network, n_books, None, RetryPolicy::default());
    let clean_doc = VirtualDocument::new(Engine::new(plan.clone(), &sources).unwrap());
    let clean = answer_of(&clean_doc);
    println!(
        "fault-free run: {} offers, {} answer nodes",
        clean.children().len(),
        clean.size()
    );

    // ---- 25% of all requests fail transiently -------------------------
    let network = Network::new(250, 1);
    let policy = RetryPolicy { max_attempts: 32, ..RetryPolicy::default() };
    let sources = build_sources(
        &network,
        n_books,
        Some(FaultConfig::transient(0xB00C, 0.25)),
        policy,
    );
    let doc = VirtualDocument::new(Engine::new(plan.clone(), &sources).unwrap());
    let flaky = answer_of(&doc);
    println!("\nflaky network (25% transient faults per request):");
    println!("  identical answer: {}", flaky == clean);
    health_report(&doc);
    assert_eq!(flaky, clean, "retries must absorb transient faults");
    assert_eq!(doc.overall_health(), HealthStatus::Healthy);

    // ---- the store goes down mid-browse -------------------------------
    let network = Network::new(250, 1);
    let policy = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
    let sources = build_sources(
        &network,
        n_books,
        Some(FaultConfig::outage_after(4)),
        policy,
    );
    let doc = VirtualDocument::new(Engine::new(plan, &sources).unwrap());
    let partial = answer_of(&doc);
    println!("\npermanent outage after 4 requests:");
    println!(
        "  partial answer: {} offers, {} of {} answer nodes before the store went dark",
        partial.children().len(),
        partial.size(),
        clean.size()
    );
    health_report(&doc);
    assert!(partial.size() < clean.size(), "the outage must truncate the answer");
    assert_ne!(doc.overall_health(), HealthStatus::Healthy);
}
