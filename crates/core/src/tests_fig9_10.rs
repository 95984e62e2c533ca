//! White-box tests of the transducer mappings in the paper's Figures 9
//! and 10, exercised through the engine's internal binding/value
//! interface (the same calls one lazy mediator makes on the one below).

use crate::ops::OpSpec;
use crate::{Engine, EngineConfig, SourceRegistry};
use mix_algebra::{GroupItem, Plan, PlanId, PlanNode};
use mix_xmas::{parse_path, LabelSpec, Var};

fn v(s: &str) -> Var {
    Var::new(s)
}

/// source → getDescendants(r._ → X) over `r[...]`.
fn gd_plan() -> (Plan, PlanId, PlanId) {
    let mut p = Plan::new();
    let s = p.add(PlanNode::Source { name: "src".into(), out: v("R") });
    let gd = p.add(PlanNode::GetDescendants {
        input: s,
        parent: v("R"),
        path: parse_path("r._").unwrap(),
        out: v("X"),
    });
    let td = p.add(PlanNode::TupleDestroy { input: gd, var: v("X") });
    p.set_root(td);
    (p, s, gd)
}

fn engine(plan: &Plan, term: &str) -> Engine {
    let mut reg = SourceRegistry::new();
    reg.add_term("src", term);
    Engine::with_config(plan.clone(), &reg, EngineConfig::default()).unwrap()
}

#[test]
fn source_exports_the_singleton_binding() {
    let (p, s, _) = gd_plan();
    engine(&p, "r[a,b]").nav(|n| {
        let b = n.first_binding(s).expect("bs[b[v[root]]]");
        assert!(n.next_binding(s, &b).is_none(), "singleton list");
        // Its value is the document node above the root element.
        let val = n.attr(s, &b, &v("R"));
        assert_eq!(n.val_fetch(&val), crate::values::DOC_LABEL);
        let root_elem = n.val_down(&val).unwrap();
        assert_eq!(n.val_fetch(&root_elem), "r");
        assert!(n.val_right(&val).is_none(), "document nodes have no siblings");
    });
}

#[test]
fn get_descendants_enumerates_in_document_order() {
    let (p, _, gd) = gd_plan();
    engine(&p, "r[a,b,c]").nav(|n| {
        let mut labels = Vec::new();
        let mut cur = n.first_binding(gd);
        while let Some(b) = cur {
            let node = n.attr(gd, &b, &v("X"));
            labels.push(n.val_fetch(&node).to_string());
            // The inherited variable is still reachable through the binding.
            let r = n.attr(gd, &b, &v("R"));
            assert_eq!(n.val_fetch(&r), crate::values::DOC_LABEL);
            cur = n.next_binding(gd, &b);
        }
        assert_eq!(labels, ["a", "b", "c"]);
    });
}

#[test]
fn get_descendants_binding_advance_is_incremental() {
    // Example 4's point: advancing from one match to the next issues a
    // bounded `r`/`f` pair per sibling, not a rescan from the start.
    let (p, _, gd) = gd_plan();
    engine(&p, "r[a,b,c,d,e,f,g,h]").nav(|n| {
        let b0 = n.first_binding(gd).unwrap();
        let before = n.e.stats().total().total();
        let b1 = n.next_binding(gd, &b0).unwrap();
        let step1 = n.e.stats().total().total() - before;
        let before = n.e.stats().total().total();
        let _b2 = n.next_binding(gd, &b1).unwrap();
        let step2 = n.e.stats().total().total() - before;
        assert!(step1 <= 4, "one advance costs {step1}");
        assert_eq!(step1, step2, "advances cost the same regardless of position");
    });
}

/// groupBy{K}, V→LVs over pairs ps[p[k[..],v[..]]…] (Example 8's shape).
fn group_plan() -> (Plan, PlanId) {
    let mut p = Plan::new();
    let s = p.add(PlanNode::Source { name: "src".into(), out: v("R") });
    let items = p.add(PlanNode::GetDescendants {
        input: s,
        parent: v("R"),
        path: parse_path("ps.p").unwrap(),
        out: v("P"),
    });
    let k = p.add(PlanNode::GetDescendants {
        input: items,
        parent: v("P"),
        path: parse_path("k._").unwrap(),
        out: v("K"),
    });
    let val = p.add(PlanNode::GetDescendants {
        input: k,
        parent: v("P"),
        path: parse_path("v._").unwrap(),
        out: v("V"),
    });
    let gb = p.add(PlanNode::GroupBy {
        input: val,
        group: vec![v("K")],
        items: vec![GroupItem { value: v("V"), out: v("LVs") }],
    });
    let td = p.add(PlanNode::TupleDestroy { input: gb, var: v("LVs") });
    p.set_root(td);
    (p, gb)
}

/// Example 8's instance, keyed 1,2,1,1,3 with values a…e.
const EX8: &str = "ps[p[k[1],v[a]],p[k[2],v[b]],p[k[1],v[c]],p[k[1],v[d]],p[k[3],v[e]]]";

#[test]
fn group_by_groups_in_first_occurrence_order() {
    // Fig. 10's 2nd mapping: r⟨b, p_g, G_prev⟩ scans for the next binding
    // whose group-by list is new.
    let (p, gb) = group_plan();
    engine(&p, EX8).nav(|n| {
        let g1 = n.first_binding(gb).unwrap();
        let k1 = n.attr(gb, &g1, &v("K"));
        assert_eq!(n.materialize_value(&k1).text(), "1");
        let g2 = n.next_binding(gb, &g1).unwrap();
        let k2 = n.attr(gb, &g2, &v("K"));
        assert_eq!(n.materialize_value(&k2).text(), "2");
        let g3 = n.next_binding(gb, &g2).unwrap();
        let k3 = n.attr(gb, &g3, &v("K"));
        assert_eq!(n.materialize_value(&k3).text(), "3");
        assert!(n.next_binding(gb, &g3).is_none());
    });
}

#[test]
fn group_member_right_is_next_pb_pg() {
    // Fig. 10's 8th mapping: from the member ⟨LS, p_b, p_g⟩, `r` scans the
    // input for the next binding with the same group-by list (skipping the
    // k=2 binding between the first and second k=1 members).
    let (p, gb) = group_plan();
    engine(&p, EX8).nav(|n| {
        let g1 = n.first_binding(gb).unwrap();
        let list = n.attr(gb, &g1, &v("LVs"));
        assert_eq!(n.val_fetch(&list), "list", "the special list label (§3)");
        let m1 = n.val_down(&list).unwrap();
        assert_eq!(n.val_fetch(&m1), "a");
        let m2 = n.val_right(&m1).unwrap();
        assert_eq!(n.val_fetch(&m2), "c", "skips the k=2 binding");
        let m3 = n.val_right(&m2).unwrap();
        assert_eq!(n.val_fetch(&m3), "d");
        assert!(n.val_right(&m3).is_none());
        // Members delegate `d` to the underlying value (leaves here).
        assert!(n.val_down(&m1).is_none());
    });
}

#[test]
fn group_by_gprev_buffer_bounds_rescans() {
    // Fig. 10's closing remark: with the buffered G_prev and member lists,
    // re-navigating a group's list costs no further source navigation
    // beyond the shared scan.
    let (p, gb) = group_plan();
    engine(&p, EX8).nav(|n| {
        let g1 = n.first_binding(gb).unwrap();
        let list = n.attr(gb, &g1, &v("LVs"));
        // Walk the member list once (this drives the shared scan).
        let mut m = n.val_down(&list);
        while let Some(node) = m {
            m = n.val_right(&node);
        }
        let after_first_walk = n.e.stats().total().total();
        // Walk it again: everything is in the scan cache.
        let mut m = n.val_down(&list);
        while let Some(node) = m {
            m = n.val_right(&node);
        }
        assert_eq!(
            n.e.stats().total().total(),
            after_first_walk,
            "second member walk re-navigates nothing"
        );
    });
}

/// createElement med_home over a wrapped value (Fig. 9's operator).
fn create_plan() -> (Plan, PlanId) {
    let mut p = Plan::new();
    let s = p.add(PlanNode::Source { name: "src".into(), out: v("R") });
    let gd = p.add(PlanNode::GetDescendants {
        input: s,
        parent: v("R"),
        path: parse_path("r._").unwrap(),
        out: v("X"),
    });
    let w = p.add(PlanNode::Wrap { input: gd, var: v("X"), out: v("LX") });
    let ce = p.add(PlanNode::CreateElement {
        input: w,
        label: LabelSpec::Const("med_home".into()),
        ch: v("LX"),
        out: v("E"),
    });
    let td = p.add(PlanNode::TupleDestroy { input: ce, var: v("E") });
    p.set_root(td);
    (p, ce)
}

#[test]
fn create_element_fetch_is_free() {
    // Fig. 9's 7th mapping: f⟨v, p_b⟩ ↦ "med_home" — produced locally.
    let (p, ce) = create_plan();
    engine(&p, "r[a[1],b[2]]").nav(|n| {
        let b = n.first_binding(ce).unwrap();
        let elem = n.attr(ce, &b, &v("E"));
        let before = n.e.stats().total().total();
        assert_eq!(n.val_fetch(&elem), "med_home");
        assert_eq!(n.val_fetch(&elem), "med_home");
        assert_eq!(n.e.stats().total().total(), before, "label fetches cost nothing");
    });
}

#[test]
fn create_element_down_descends_into_ch() {
    // Fig. 9's 6th mapping: d⟨v, p_b⟩ ↦ ⟨id, d(p_b.HLSs)⟩ — children come
    // from the ch attribute's list.
    let (p, ce) = create_plan();
    engine(&p, "r[a[1],b[2]]").nav(|n| {
        let b = n.first_binding(ce).unwrap();
        let elem = n.attr(ce, &b, &v("E"));
        let child = n.val_down(&elem).unwrap();
        assert_eq!(n.val_fetch(&child), "a");
        // The wrapped singleton has no siblings (Solo), per wrap semantics.
        assert!(n.val_right(&child).is_none());
        // And descending continues into the underlying source value.
        let inner = n.val_down(&child).unwrap();
        assert_eq!(n.val_fetch(&inner), "1");
    });
}

#[test]
fn create_element_binding_per_input_binding() {
    // "for each binding h of $H exactly one med_home tree is created".
    let (p, ce) = create_plan();
    engine(&p, "r[a,b,c]").nav(|n| {
        let mut count = 0;
        let mut cur = n.first_binding(ce);
        while let Some(b) = cur {
            count += 1;
            cur = n.next_binding(ce, &b);
        }
        assert_eq!(count, 3);
    });
}

#[test]
fn concatenate_merges_lists_in_order() {
    // concatenate rule 1: list ++ list.
    let mut p = Plan::new();
    let s = p.add(PlanNode::Source { name: "src".into(), out: v("R") });
    let g1 = p.add(PlanNode::GetDescendants {
        input: s,
        parent: v("R"),
        path: parse_path("r.x").unwrap(),
        out: v("X"),
    });
    let gb = p.add(PlanNode::GroupBy {
        input: g1,
        group: vec![],
        items: vec![GroupItem { value: v("X"), out: v("LX") }],
    });
    let c = p.add(PlanNode::Concatenate {
        input: gb,
        x: v("LX"),
        y: v("LX"),
        out: v("Z"),
    });
    let td = p.add(PlanNode::TupleDestroy { input: c, var: v("Z") });
    p.set_root(td);

    engine(&p, "r[x[1],x[2]]").nav(|n| {
        let b = n.first_binding(c).unwrap();
        let z = n.attr(c, &b, &v("Z"));
        assert_eq!(n.val_fetch(&z), "list");
        let t = n.materialize_value(&z);
        assert_eq!(t.to_string(), "list[x[1],x[2],x[1],x[2]]");
    });
}

#[test]
fn ops_table_is_consulted_not_the_plan() {
    // Regression guard for the preprocessing invariant: every operator's
    // navigation spec was compiled at engine construction (OpSpec), one per
    // plan node; the root's input and variable sit on the engine itself,
    // and each stateful operator owns one typed slot of OpState.
    let (p, gb) = group_plan();
    let e = engine(&p, EX8);
    assert_eq!(e.ops.len(), p.len());
    assert!(matches!(e.ops[p.root().index()], OpSpec::Root));
    assert_eq!((e.root_input, &e.root_var), (gb, &v("LVs")));
    let OpSpec::GroupBy(g) = &e.ops[gb.index()] else { panic!("groupBy spec") };
    assert_eq!((g.slot, e.state.groups.len()), (0, 1));
    assert!(e.state.joins.is_empty() && e.state.sorted.is_empty() && e.state.rows.is_empty());
}

#[test]
fn example_4_binding_advance_issues_r_f_until_a() {
    // Example 4, getDescendants_{X, r.a → Z}: "A command r(p_B) will result
    // in a series of commands p″ := r(p″); l := f(p″) until l becomes `a`
    // or p″ becomes ⊥."
    use mix_nav::{DocNavigator, Recorded, RecordingNavigator, Trace};

    let mut p = Plan::new();
    let s = p.add(PlanNode::Source { name: "src".into(), out: v("X") });
    let gd = p.add(PlanNode::GetDescendants {
        input: s,
        parent: v("X"),
        path: parse_path("r.a").unwrap(),
        out: v("Z"),
    });
    let td = p.add(PlanNode::TupleDestroy { input: gd, var: v("Z") });
    p.set_root(td);

    // X's document: r[a, b, c, a] — two matches with two non-matching
    // siblings between them.
    let trace = Trace::new();
    let mut reg = SourceRegistry::new();
    reg.add_navigator(
        "src",
        RecordingNavigator::new(DocNavigator::from_term("r[a[1],b[2],c[3],a[4]]"), trace.clone()),
    );
    Engine::new(p, &reg).unwrap().nav(|n| {

        let b0 = n.first_binding(gd).expect("first a");
        let z0 = n.attr(gd, &b0, &v("Z"));
        assert_eq!(n.val_fetch(&z0), "a");

        // Advance to the next binding and record exactly what hits the source.
        trace.clear();
        let b1 = n.next_binding(gd, &b0).expect("second a");
        let cmds = trace.commands();
        // Skipping b and c costs one r/f pair each, plus the r/f that lands on
        // (and identifies) the second `a` — no downs, no restarts.
        let rs = cmds.iter().filter(|c| **c == Recorded::R).count();
        let fs = cmds.iter().filter(|c| **c == Recorded::F).count();
        let ds = cmds.iter().filter(|c| **c == Recorded::D).count();
        assert_eq!(ds, 0, "no re-descending: {cmds:?}");
        assert_eq!(rs, 3, "r over b, c, and onto the second a: {cmds:?}");
        assert_eq!(fs, 3, "each candidate's label is tested: {cmds:?}");

        let z1 = n.attr(gd, &b1, &v("Z"));
        let t = n.materialize_value(&z1);
        assert_eq!(t.to_string(), "a[4]");
        assert!(n.next_binding(gd, &b1).is_none());
    });
}
