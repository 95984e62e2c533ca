//! End-to-end integration: XMAS text → algebra plan → lazy mediator tree →
//! client navigation, over all three wrapper families (relational, web,
//! OODB) and plain documents.

use mix::prelude::*;
use mix::wrappers::gen;
use mix::wrappers::{Network, ObjectStore, OodbWrapper, RelationalWrapper, WebWrapper};

#[test]
fn figure_3_over_plain_documents() {
    let mut sources = SourceRegistry::new();
    sources.add_term(
        "homesSrc",
        "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]]]",
    );
    sources.add_term(
        "schoolsSrc",
        "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],\
         school[dir[Hart],zip[91223]]]",
    );
    let q = parse_query(
        "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {} \
         WHERE homesSrc homes.home $H AND $H zip._ $V1 \
           AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2",
    )
    .unwrap();
    let plan = translate(&q).unwrap();
    let doc = VirtualDocument::new(Engine::new(plan, &sources).unwrap());
    let root = doc.root();
    let names: Vec<String> = root
        .children()
        .map(|mh| mh.down().unwrap().child("addr").unwrap().text())
        .collect();
    assert_eq!(names, ["La Jolla", "El Cajon"]);
}

#[test]
fn xmas_over_the_relational_wrapper() {
    // realestate.homes as a real database behind the LXP wrapper.
    let db = gen::homes_database(11, 500, 20);
    let buffered = BufferNavigator::new(RelationalWrapper::new(db, 50), "realestate");
    let stats = buffered.stats();
    let mut sources = SourceRegistry::new();
    sources.add_navigator("realestate", buffered);

    let q = parse_query(
        r#"CONSTRUCT <cheap> $R {$R} </cheap> {}
           WHERE realestate realestate.homes.row $R AND $R price._ $P AND $P < 350000"#,
    )
    .unwrap();
    let plan = translate(&q).unwrap();
    let doc = VirtualDocument::new(Engine::new(plan.clone(), &sources).unwrap());

    // First hit arrives after a handful of fills.
    let first = doc.root().down().expect("at least one cheap home");
    let price: i64 = first.child("price").unwrap().text().parse().unwrap();
    assert!(price < 350_000);
    assert!(stats.snapshot().fills < 6, "only a few chunks pulled: {:?}", stats.snapshot());

    // The full lazy answer equals the eager answer over a fresh wrapper.
    let db2 = gen::homes_database(11, 500, 20);
    let mut sources2 = SourceRegistry::new();
    sources2
        .add_navigator("realestate", BufferNavigator::new(RelationalWrapper::new(db2, 50), "realestate"));
    let expected = eager::eval(&plan, &sources2).unwrap();
    assert_eq!(doc.root().to_tree(), expected);
}

#[test]
fn xmas_over_the_web_wrapper() {
    let network = Network::new(10, 1);
    let mut site = WebWrapper::with_policy(network.clone(), FillPolicy::Chunked { n: 10 });
    site.add_page("amazon", &gen::bookstore_doc(3, "amazon", 120));
    let mut sources = SourceRegistry::new();
    sources.add_navigator("amazon", BufferNavigator::new(site, "amazon"));

    let q = parse_query(
        r#"CONSTRUCT <cheap_books> $T {$T} </cheap_books> {}
           WHERE amazon books.book $B AND $B title._ $T AND $B price._ $P AND $P < 40"#,
    )
    .unwrap();
    let plan = translate(&q).unwrap();
    let mut engine = Engine::new(plan, &sources).unwrap();
    let answer = materialize(&mut engine);
    assert_eq!(answer.label(), "cheap_books");
    assert!(!answer.children().is_empty());
    assert!(network.stats().requests > 0);
}

#[test]
fn xmas_over_the_oodb_wrapper() {
    let mut store = ObjectStore::new();
    let dept = store.create("department");
    store.set_attr(dept, "name", "databases");
    for (name, title) in [("Alice", "phd"), ("Bob", "ms"), ("Carol", "phd")] {
        let p = store.create("person");
        store.set_attr(p, "name", name);
        store.set_attr(p, "title", title);
        store.add_ref(dept, "member", p);
    }
    store.publish("hr", dept);
    let mut sources = SourceRegistry::new();
    sources.add_navigator("hr", BufferNavigator::new(OodbWrapper::new(store), "hr"));

    let q = parse_query(
        r#"CONSTRUCT <phds> $N {$N} </phds> {}
           WHERE hr department.member.person $P AND $P name._ $N
             AND $P title._ $T AND $T = "phd""#,
    )
    .unwrap();
    let plan = translate(&q).unwrap();
    let mut engine = Engine::new(plan, &sources).unwrap();
    let answer = materialize(&mut engine);
    assert_eq!(answer.to_string(), "phds[Alice,Carol]");
}

#[test]
fn heterogeneous_join_across_wrapper_families() {
    // Join a relational source with a plain-document source — the Figure 1
    // architecture in one query.
    let db = gen::homes_database(13, 100, 5);
    let mut sources = SourceRegistry::new();
    sources.add_navigator(
        "realestate",
        BufferNavigator::new(RelationalWrapper::new(db, 25), "realestate"),
    );
    sources.add_tree("schoolsSrc", &gen::schools_doc(14, 50, 5));

    let q = parse_query(
        r#"CONSTRUCT <matches> <m> $Z $D {$D} </m> {$Z} </matches> {}
           WHERE realestate realestate.homes.row $R AND $R zip._ $Z
             AND schoolsSrc schools.school $S AND $S zip._ $Z2 AND $S dir._ $D
             AND $Z = $Z2"#,
    )
    .unwrap();
    let plan = translate(&q).unwrap();

    let mut engine = Engine::new(plan.clone(), &sources).unwrap();
    let lazy = materialize(&mut engine);

    // Against the eager oracle over fresh sources.
    let db2 = gen::homes_database(13, 100, 5);
    let mut sources2 = SourceRegistry::new();
    sources2.add_navigator(
        "realestate",
        BufferNavigator::new(RelationalWrapper::new(db2, 25), "realestate"),
    );
    sources2.add_tree("schoolsSrc", &gen::schools_doc(14, 50, 5));
    let expected = eager::eval(&plan, &sources2).unwrap();
    assert_eq!(lazy, expected);
    assert!(!lazy.children().is_empty(), "the join produced matches");
}

#[test]
fn rewriting_then_lazy_execution_stays_correct() {
    let mut sources = SourceRegistry::new();
    sources.add_tree("homesSrc", &gen::homes_doc(5, 80, 8));
    sources.add_tree("schoolsSrc", &gen::schools_doc(6, 80, 8));
    let q = parse_query(
        r#"CONSTRUCT <out> <m> $H $S {$S} </m> {$H} </out> {}
           WHERE homesSrc homes.home $H AND $H zip._ $V1
             AND schoolsSrc schools.school $S AND $S zip._ $V2
             AND $V1 = $V2 AND $H price._ $P AND $P < 600000"#,
    )
    .unwrap();
    let initial = translate(&q).unwrap();
    let mut rewritten = initial.clone();
    rewrite(&mut rewritten, NcCapabilities::minimal());

    let expected = eager::eval(&initial, &sources).unwrap();
    let mut sources2 = SourceRegistry::new();
    sources2.add_tree("homesSrc", &gen::homes_doc(5, 80, 8));
    sources2.add_tree("schoolsSrc", &gen::schools_doc(6, 80, 8));
    let mut engine = Engine::new(rewritten, &sources2).unwrap();
    assert_eq!(materialize(&mut engine), expected);
}

#[test]
fn mediator_stacking_three_levels() {
    // wrapper → mediator → mediator (Figure 1's m_q1 over m_q2).
    let mut base = SourceRegistry::new();
    base.add_tree("homesSrc", &gen::homes_doc(21, 30, 3));

    let zips_view = translate(
        &parse_query(
            "CONSTRUCT <zips> $Z {$Z} </zips> {} \
             WHERE homesSrc homes.home $H AND $H zip._ $Z",
        )
        .unwrap(),
    )
    .unwrap();
    let level1 = Engine::new(zips_view, &base).unwrap();

    let mut mid = SourceRegistry::new();
    mid.add_navigator("zipsView", HandleTable::new(level1));
    let distinct_view = translate(
        &parse_query(
            "CONSTRUCT <distinct> <z> $Z </z> {$Z} </distinct> {} \
             WHERE zipsView zips._ $Z",
        )
        .unwrap(),
    )
    .unwrap();
    let level2 = Engine::new(distinct_view, &mid).unwrap();

    let mut top = SourceRegistry::new();
    top.add_navigator("distinctView", HandleTable::new(level2));
    let count_view = translate(
        &parse_query(
            "CONSTRUCT <out> $Z {$Z} </out> {} WHERE distinctView distinct.z._ $Z",
        )
        .unwrap(),
    )
    .unwrap();
    let mut level3 = Engine::new(count_view, &top).unwrap();
    let answer = materialize(&mut level3);

    // 3 distinct zips, deduplicated by the middle mediator's groupBy.
    assert_eq!(answer.label(), "out");
    assert_eq!(answer.children().len(), 3);
}

#[test]
fn composition_equals_stacking() {
    // §3 preprocessing: the composed plan q′ ∘ q over base sources must
    // answer exactly like a mediator stacked over the view's mediator.
    let view_q = parse_query(
        "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {} \
         WHERE homesSrc homes.home $H AND $H zip._ $V1 \
           AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2",
    )
    .unwrap();
    let view = translate(&view_q).unwrap();
    let query = translate(
        &parse_query(
            "CONSTRUCT <zips> $Z {$Z} </zips> {} \
             WHERE medview answer.med_home.home.zip._ $Z",
        )
        .unwrap(),
    )
    .unwrap();

    let mk_base = || {
        let mut reg = SourceRegistry::new();
        reg.add_tree("homesSrc", &gen::homes_doc(33, 40, 6));
        reg.add_tree("schoolsSrc", &gen::schools_doc(34, 40, 6));
        reg
    };

    // (a) Stacked: engine over engine.
    let lower = Engine::new(view.clone(), &mk_base()).unwrap();
    let mut upper_reg = SourceRegistry::new();
    upper_reg.add_navigator("medview", HandleTable::new(lower));
    let mut stacked = Engine::new(query.clone(), &upper_reg).unwrap();
    let stacked_answer = materialize(&mut stacked);

    // (b) Composed: one plan over the base sources.
    let composed = mix::algebra::compose(&query, "medview", &view).unwrap();
    assert_eq!(composed.source_names().len(), 2);
    let mut one = Engine::new(composed, &mk_base()).unwrap();
    let composed_answer = materialize(&mut one);

    assert_eq!(stacked_answer, composed_answer);
    assert!(!composed_answer.children().is_empty());

    // (c) And both agree with the eager oracle on the composed plan.
    let composed2 = mix::algebra::compose(&query, "medview", &view).unwrap();
    let oracle = eager::eval(&composed2, &mk_base()).unwrap();
    assert_eq!(oracle, composed_answer);
}

#[test]
fn auction_site_queries() {
    // A deeper, more heterogeneous document (XMark-style): recursive
    // description paths and grouped bid histories.
    let mut sources = SourceRegistry::new();
    sources.add_tree("auction", &gen::auction_doc(8, 30, 6));

    // All bid amounts over 900, grouped by bidder.
    let q = parse_query(
        r#"CONSTRUCT <big_spenders> <b> $W $A {$A} </b> {$W} </big_spenders> {}
           WHERE auction site.items.item.bids.bid $B
             AND $B bidder._ $W AND $B amount._ $A AND $A > 900"#,
    )
    .unwrap();
    let plan = translate(&q).unwrap();
    let expected = eager::eval(&plan, &sources).unwrap();
    let mut sources2 = SourceRegistry::new();
    sources2.add_tree("auction", &gen::auction_doc(8, 30, 6));
    let mut e = Engine::new(plan, &sources2).unwrap();
    assert_eq!(materialize(&mut e), expected);

    // Recursive text extraction below descriptions.
    let q2 = parse_query(
        "CONSTRUCT <texts> $T {$T} </texts> {} \
         WHERE auction site.items.item.description.parlist*.text._ $T",
    )
    .unwrap();
    let plan2 = translate(&q2).unwrap();
    let mut sources3 = SourceRegistry::new();
    sources3.add_tree("auction", &gen::auction_doc(8, 30, 6));
    let expected2 = eager::eval(&plan2, &sources3).unwrap();
    let mut sources4 = SourceRegistry::new();
    sources4.add_tree("auction", &gen::auction_doc(8, 30, 6));
    let mut e2 = Engine::new(plan2, &sources4).unwrap();
    let got2 = materialize(&mut e2);
    assert_eq!(got2, expected2);
    assert!(!got2.children().is_empty());
}
