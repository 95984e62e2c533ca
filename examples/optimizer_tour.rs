//! A tour of the plan-level machinery: translation, rewriting,
//! composition, an unbrowsable orderBy, and the browsability classifier
//! — the §3 *preprocessing/rewriting* phases end to end.
//!
//! Run with: `cargo run --example optimizer_tour`

use mix::algebra::rewrite::rewrite;
use mix::algebra::{compose, PlanNode};
use mix::prelude::*;
use mix::wrappers::gen;
use mix::xmas::Var;

fn main() {
    // ---- 1. translation (Fig. 4) ---------------------------------------
    let view_text = "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {} \
                     WHERE homesSrc homes.home $H AND $H zip._ $V1 \
                       AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2";
    let view = translate(&parse_query(view_text).unwrap()).unwrap();
    println!("== the Figure 4 view plan ==\n{view}");

    // ---- 2. rewriting on a join query -----------------------------------
    // The price filter is written after the join condition, so the initial
    // plan evaluates it above the join; rewriting pushes the
    // getDescendants and the select into the homes branch.
    let join_text = "CONSTRUCT <out> <m> $H $S {$S} </m> {$H} </out> {} \
                     WHERE homesSrc homes.home $H AND $H zip._ $V1 \
                       AND schoolsSrc schools.school $S AND $S zip._ $V2 \
                       AND $V1 = $V2 AND $H price._ $P AND $P < 400000";
    let initial = translate(&parse_query(join_text).unwrap()).unwrap();
    let mut pushed = initial.clone();
    let jstats = rewrite(&mut pushed, NcCapabilities::minimal());
    println!(
        "== rewriting the filtered join ==\nrewrites: {} select pushdowns, \
         {} getDescendants pushdowns, {} cross→join, {} swaps",
        jstats.select_pushdowns, jstats.gd_pushdowns, jstats.cross_to_join, jstats.join_swaps
    );
    let mk_small = || {
        let mut reg = SourceRegistry::new();
        reg.add_tree("homesSrc", &gen::homes_doc(17, 300, 30));
        reg.add_tree("schoolsSrc", &gen::schools_doc(18, 300, 30));
        reg
    };
    let cost = |plan: &Plan| {
        let mut e = Engine::new(plan.clone(), &mk_small()).unwrap();
        materialize(&mut e);
        e.stats().total().total()
    };
    println!(
        "full-navigation cost: initial {}, rewritten {}\n",
        cost(&initial),
        cost(&pushed)
    );

    // ---- 3. composition (q' ∘ q) ----------------------------------------
    let query_text = "CONSTRUCT <cheap_zips> $Z {$Z} </cheap_zips> {} \
                      WHERE medview answer.med_home.home $HH AND $HH zip._ $Z \
                        AND $HH price._ $P AND $P < 500000";
    let query = translate(&parse_query(query_text).unwrap()).unwrap();
    let composed = compose(&query, "medview", &view).expect("composition");
    println!("== composed q' ∘ q: {} operators, sources {:?} ==",
        composed.reachable().len(), composed.source_names());

    // ---- 4. browsability + execution ------------------------------------
    let report = classify(&composed, NcCapabilities::minimal());
    println!("composed plan browsability: {}", report.overall);

    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_tree("homesSrc", &gen::homes_doc(17, 400, 40));
        reg.add_tree("schoolsSrc", &gen::schools_doc(18, 400, 40));
        reg
    };
    let measure = |plan: &Plan| -> (u64, mix::xml::Tree) {
        let mut e = Engine::new(plan.clone(), &mk()).unwrap();
        let t = materialize(&mut e);
        (e.stats().total().total(), t)
    };
    let (navs_composed, _answer) = measure(&composed);
    println!("composed plan, full navigation: {navs_composed} source commands");

    // ---- 5. an unbrowsable step ------------------------------------------
    // Sort the answer zips: the orderBy makes the plan unbrowsable, since
    // it reads its whole input before the first answer.
    let mut sorted = composed.clone();
    let target = sorted
        .reachable()
        .into_iter()
        .find(|&id| matches!(sorted.node(id), PlanNode::GroupBy { .. }))
        .unwrap();
    let PlanNode::GroupBy { input, group, items } = sorted.node(target).clone() else {
        unreachable!()
    };
    let ob = sorted.add(PlanNode::OrderBy { input, keys: vec![Var::new("Z")] });
    *sorted.node_mut(target) = PlanNode::GroupBy { input: ob, group, items };
    sorted.validate().unwrap();
    println!("\nadded orderBy $Z: {}", classify(&sorted, NcCapabilities::minimal()).overall);
    let (navs_sorted, answer_sorted) = measure(&sorted);
    println!(
        "sorted answer: {} zips, first three: {:?} (cost {navs_sorted} navs)",
        answer_sorted.children().len(),
        answer_sorted
            .children()
            .iter()
            .take(3)
            .map(mix::xml::Tree::text)
            .collect::<Vec<_>>()
    );
    assert!(answer_sorted
        .children()
        .windows(2)
        .all(|w| w[0].text() <= w[1].text()));
}
