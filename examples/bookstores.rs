//! The `allbooks` scenario of the paper's introduction: an integrated view
//! over two booksellers where "a warehousing approach is not viable".
//!
//! Both stores are simulated Web sources behind LXP wrappers on a shared
//! network with per-request latency; the mediator integrates them into one
//! virtual `allbooks` view. The demo contrasts the §1 interaction pattern
//! — "issue a broad query, navigate the first few results and stop" —
//! under lazy evaluation against full materialization, in simulated
//! network cost.
//!
//! Run with: `cargo run --example bookstores`

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

fn build_sources(network: &Arc<Network>, n_books: usize) -> SourceRegistry {
    // Catalogs arrive paginated: 20 complete book entries per request,
    // like a search-result page (the bulk transfer of §4).
    let page_size = FillPolicy::Chunked { n: 20 };
    let mut amazon = WebWrapper::with_policy(network.clone(), page_size);
    amazon.add_page("amazon", &bookstore_doc(1, "amazon", n_books));
    // barnesandnoble: same machinery; integrated by stacking below.
    let mut bn = WebWrapper::with_policy(network.clone(), page_size);
    bn.add_page("bn", &bookstore_doc(2, "bn", n_books));

    let mut sources = SourceRegistry::new();
    sources.add_navigator("amazon", BufferNavigator::new(amazon, "amazon"));
    sources.add_navigator("bn", BufferNavigator::new(bn, "bn"));
    sources
}

fn main() {
    let n_books = 400;

    // ---- lazy: look at the first three offers, then stop --------------
    let network = Network::new(250, 1); // 250 cost units latency per request
    let sources = build_sources(&network, n_books);
    let plan = translate(&parse_query(QUERY).unwrap()).unwrap();
    let doc = VirtualDocument::new(Engine::new(plan.clone(), &sources).unwrap());

    let root = doc.root();
    println!("browsing the virtual allbooks view:");
    let mut offer = root.down();
    let mut shown = 0;
    while let Some(o) = offer {
        if shown == 3 {
            break;
        }
        let title = o.down().map(|t| t.to_tree().text()).unwrap_or_default();
        println!("  offer: {title}");
        shown += 1;
        offer = o.right();
    }
    let lazy_cost = network.stats();
    println!(
        "after 3 offers: {} requests, {} bytes, simulated cost {}",
        lazy_cost.requests, lazy_cost.bytes, lazy_cost.simulated_cost
    );

    // ---- eager baseline: materialize the full answer ------------------
    let network_eager = Network::new(250, 1);
    let sources_eager = build_sources(&network_eager, n_books);
    let full = eager::eval(&plan, &sources_eager).unwrap();
    let eager_cost = network_eager.stats();
    println!(
        "\neager full answer: {} offers; {} requests, {} bytes, simulated cost {}",
        full.children().len(),
        eager_cost.requests,
        eager_cost.bytes,
        eager_cost.simulated_cost
    );

    let speedup = eager_cost.simulated_cost as f64 / lazy_cost.simulated_cost.max(1) as f64;
    println!("\nlazy first-results cost advantage: {speedup:.1}x less simulated network time");

    // ---- cross-store integration: union via two queries ----------------
    // (One mediator view per store, composed by a higher-level mediator —
    //  the Figure 1 stacking.)
    let network2 = Network::new(250, 1);
    let sources2 = build_sources(&network2, 40);
    let q_bn = QUERY.replace("amazon books.book", "bn books.book");
    let plan_bn = translate(&parse_query(&q_bn).unwrap()).unwrap();
    let amazon_engine = Engine::new(plan.clone(), &sources2).unwrap();
    let bn_engine = Engine::new(plan_bn, &sources2).unwrap();

    let mut upper = SourceRegistry::new();
    upper.add_navigator("amazonView", HandleTable::new(amazon_engine));
    upper.add_navigator("bnView", HandleTable::new(bn_engine));
    let union_q = parse_query(
        "CONSTRUCT <all> $O {$O} </all> {} WHERE amazonView allbooks.offer $O",
    )
    .unwrap();
    // Integrate both stores' offers under one root.
    let union_q2 = parse_query(
        "CONSTRUCT <all> $O {$O} </all> {} WHERE bnView allbooks.offer $O",
    )
    .unwrap();
    let top_a = Engine::new(translate(&union_q).unwrap(), &upper).unwrap();
    let top_b = Engine::new(translate(&union_q2).unwrap(), &upper).unwrap();
    let mut a_nav = top_a;
    let mut b_nav = top_b;
    let a_tree = materialize(&mut a_nav);
    let b_tree = materialize(&mut b_nav);
    println!(
        "\nstacked mediators: amazon view has {} offers, bn view has {} offers",
        a_tree.children().len(),
        b_tree.children().len()
    );
}
