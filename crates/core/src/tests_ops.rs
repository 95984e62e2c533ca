//! Hand-built-plan tests for operators the XMAS surface syntax does not
//! emit directly: union, difference, project, orderBy — lazy vs eager on
//! each, plus laziness/eagerness properties.

use crate::ops::{GroupCache, OpSpec};
use crate::{eager, Engine, SourceRegistry};
use mix_algebra::{BindPred, GroupItem, Plan, PlanId, PlanNode};
use mix_nav::explore::materialize;
use mix_xmas::{parse_path, LabelSpec, Var};

fn v(s: &str) -> Var {
    Var::new(s)
}

/// The shared-scan cache of groupBy `gb`.
fn group_scan(e: &Engine, gb: PlanId) -> &GroupCache {
    let OpSpec::GroupBy(g) = &e.ops[gb.index()] else { panic!("not a groupBy") };
    &e.state.groups[g.slot]
}

/// source → getDescendants(path → $X) chain.
fn branch(p: &mut Plan, src: &str, path: &str, out: &str) -> PlanId {
    let root = v(&format!("root_{src}_{out}"));
    let s = p.add(PlanNode::Source { name: src.into(), out: root.clone() });
    p.add(PlanNode::GetDescendants {
        input: s,
        parent: root,
        path: parse_path(path).unwrap(),
        out: v(out),
    })
}

/// Wrap a binding producer into `<out> collect($X) </out>` + tupleDestroy.
fn finish(p: &mut Plan, input: PlanId, x: &str) -> PlanId {
    let gb = p.add(PlanNode::GroupBy {
        input,
        group: vec![],
        items: vec![GroupItem { value: v(x), out: v("LX") }],
    });
    let ce = p.add(PlanNode::CreateElement {
        input: gb,
        label: LabelSpec::Const("out".into()),
        ch: v("LX"),
        out: v("OUT"),
    });
    let td = p.add(PlanNode::TupleDestroy { input: ce, var: v("OUT") });
    p.set_root(td);
    td
}

fn check_lazy_eq_eager(plan: &Plan, mk: impl Fn() -> SourceRegistry) -> mix_xml::Tree {
    plan.validate().unwrap();
    let expected = eager::eval(plan, &mk()).unwrap();
    let mut engine = Engine::new(plan.clone(), &mk()).unwrap();
    let got = materialize(&mut engine);
    assert_eq!(got, expected);
    got
}

#[test]
fn union_concatenates_in_order() {
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "r._", "X");
    let pa = p.add(PlanNode::Project { input: a, keep: vec![v("X")] });
    let b = branch(&mut p, "s2", "r._", "X");
    let pb = p.add(PlanNode::Project { input: b, keep: vec![v("X")] });
    let u = p.add(PlanNode::Union { left: pa, right: pb });
    finish(&mut p, u, "X");

    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[a,b]");
        reg.add_term("s2", "r[c,d]");
        reg
    };
    let t = check_lazy_eq_eager(&p, mk);
    assert_eq!(t.to_string(), "out[a,b,c,d]");
}

#[test]
fn union_with_empty_sides() {
    for (s1, s2, expect) in [
        ("r", "r[x,y]", "out[x,y]"),
        ("r[x,y]", "r", "out[x,y]"),
        ("r", "r", "out"),
    ] {
        let mut p = Plan::new();
        let a = branch(&mut p, "s1", "r._", "X");
        let pa = p.add(PlanNode::Project { input: a, keep: vec![v("X")] });
        let b = branch(&mut p, "s2", "r._", "X");
        let pb = p.add(PlanNode::Project { input: b, keep: vec![v("X")] });
        let u = p.add(PlanNode::Union { left: pa, right: pb });
        finish(&mut p, u, "X");
        let mk = || {
            let mut reg = SourceRegistry::new();
            reg.add_term("s1", s1);
            reg.add_term("s2", s2);
            reg
        };
        let t = check_lazy_eq_eager(&p, mk);
        assert_eq!(t.to_string(), expect, "{s1} ∪ {s2}");
    }
}

#[test]
fn difference_subtracts_by_value() {
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "r._", "X");
    let pa = p.add(PlanNode::Project { input: a, keep: vec![v("X")] });
    let b = branch(&mut p, "s2", "r._", "X");
    let pb = p.add(PlanNode::Project { input: b, keep: vec![v("X")] });
    let d = p.add(PlanNode::Difference { left: pa, right: pb });
    finish(&mut p, d, "X");

    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[a,b,c,a]");
        reg.add_term("s2", "r[b]");
        reg
    };
    let t = check_lazy_eq_eager(&p, mk);
    // All occurrences of `b` are removed; duplicates on the left survive.
    assert_eq!(t.to_string(), "out[a,c,a]");
}

#[test]
fn difference_against_empty_right() {
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "r._", "X");
    let pa = p.add(PlanNode::Project { input: a, keep: vec![v("X")] });
    let b = branch(&mut p, "s2", "r._", "X");
    let pb = p.add(PlanNode::Project { input: b, keep: vec![v("X")] });
    let d = p.add(PlanNode::Difference { left: pa, right: pb });
    finish(&mut p, d, "X");
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[a,b]");
        reg.add_term("s2", "r");
        reg
    };
    assert_eq!(check_lazy_eq_eager(&p, mk).to_string(), "out[a,b]");
}

#[test]
fn order_by_sorts_numerically_then_textually() {
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "r._._", "X");
    let ob = p.add(PlanNode::OrderBy { input: a, keys: vec![v("X")] });
    finish(&mut p, ob, "X");
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[i[10],i[2],i[33],i[1]]");
        reg
    };
    let t = check_lazy_eq_eager(&p, mk);
    assert_eq!(t.to_string(), "out[1,2,10,33]", "numeric order, not lexicographic");

    let mut p2 = Plan::new();
    let a2 = branch(&mut p2, "s1", "r._._", "X");
    let ob2 = p2.add(PlanNode::OrderBy { input: a2, keys: vec![v("X")] });
    finish(&mut p2, ob2, "X");
    let mk2 = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[i[pear],i[apple],i[fig]]");
        reg
    };
    assert_eq!(check_lazy_eq_eager(&p2, mk2).to_string(), "out[apple,fig,pear]");
}

#[test]
fn order_by_is_stable_for_equal_keys() {
    // Bindings with equal keys keep input order (both evaluators sort
    // stably; the canonical tie-breaker only separates distinct values).
    let mut p = Plan::new();
    let src_root = v("R");
    let s = p.add(PlanNode::Source { name: "s1".into(), out: src_root.clone() });
    let items = p.add(PlanNode::GetDescendants {
        input: s,
        parent: src_root,
        path: parse_path("r._").unwrap(),
        out: v("I"),
    });
    let key = p.add(PlanNode::GetDescendants {
        input: items,
        parent: v("I"),
        path: parse_path("k._").unwrap(),
        out: v("K"),
    });
    let ob = p.add(PlanNode::OrderBy { input: key, keys: vec![v("K")] });
    finish(&mut p, ob, "I");
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term(
            "s1",
            "r[item[k[2],tag[w]],item[k[1],tag[x]],item[k[1],tag[y]],item[k[2],tag[z]]]",
        );
        reg
    };
    let t = check_lazy_eq_eager(&p, mk);
    let tags: Vec<String> =
        t.children().iter().map(|i| i.child("tag").unwrap().text()).collect();
    assert_eq!(tags, ["x", "y", "w", "z"]);
}

#[test]
fn project_restricts_attribute_access() {
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "r.item", "I");
    let k = p.add(PlanNode::GetDescendants {
        input: a,
        parent: v("I"),
        path: parse_path("k._").unwrap(),
        out: v("K"),
    });
    let proj = p.add(PlanNode::Project { input: k, keep: vec![v("K")] });
    finish(&mut p, proj, "K");
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[item[k[1]],item[k[2]]]");
        reg
    };
    assert_eq!(check_lazy_eq_eager(&p, mk).to_string(), "out[1,2]");
}

#[test]
fn order_by_over_a_join_is_lazy_eq_eager() {
    // orderBy reads its whole input inside its own slot; over a join that
    // input is pairs, sorted by the outer side's value.
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "r._._", "X");
    let b = branch(&mut p, "s2", "r._._", "Y");
    let j = p.add(PlanNode::Join { left: a, right: b, pred: BindPred::var_eq("X", "Y") });
    let ob = p.add(PlanNode::OrderBy { input: j, keys: vec![v("X")] });
    finish(&mut p, ob, "X");
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[i[3],i[1],i[2]]");
        reg.add_term("s2", "r[i[2],i[3],i[9]]");
        reg
    };
    assert_eq!(check_lazy_eq_eager(&p, mk).to_string(), "out[2,3]");
}

#[test]
fn deep_operator_stack() {
    // union over differences over selects — stress the pass-through
    // handle nesting.
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "r._", "X");
    let pa = p.add(PlanNode::Project { input: a, keep: vec![v("X")] });
    let b = branch(&mut p, "s2", "r._", "X");
    let pb = p.add(PlanNode::Project { input: b, keep: vec![v("X")] });
    let d1 = p.add(PlanNode::Difference { left: pa, right: pb });
    let c = branch(&mut p, "s3", "r._", "X");
    let pc = p.add(PlanNode::Project { input: c, keep: vec![v("X")] });
    let u = p.add(PlanNode::Union { left: d1, right: pc });
    let ob = p.add(PlanNode::OrderBy { input: u, keys: vec![v("X")] });
    finish(&mut p, ob, "X");
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[d,b,a,c]");
        reg.add_term("s2", "r[b]");
        reg.add_term("s3", "r[e,a]");
        reg
    };
    let t = check_lazy_eq_eager(&p, mk);
    assert_eq!(t.to_string(), "out[a,a,c,d,e]");
}

#[test]
fn engine_construction_errors() {
    // Unknown source name.
    let mut p = Plan::new();
    let s = p.add(PlanNode::Source { name: "ghost".into(), out: v("X") });
    let td = p.add(PlanNode::TupleDestroy { input: s, var: v("X") });
    p.set_root(td);
    let err = Engine::new(p, &SourceRegistry::new()).unwrap_err();
    assert!(err.message.contains("ghost"), "{err}");

    // Root that is not tupleDestroy.
    let mut p2 = Plan::new();
    let s2 = p2.add(PlanNode::Source { name: "src".into(), out: v("X") });
    p2.set_root(s2);
    let mut reg = SourceRegistry::new();
    reg.add_term("src", "r[a]");
    let err2 = Engine::new(p2, &reg).unwrap_err();
    assert!(err2.message.contains("tupleDestroy"), "{err2}");

    // Invalid plan (unknown variable).
    let mut p3 = Plan::new();
    let s3 = p3.add(PlanNode::Source { name: "src".into(), out: v("X") });
    let td3 = p3.add(PlanNode::TupleDestroy { input: s3, var: v("NOPE") });
    p3.set_root(td3);
    let mut reg3 = SourceRegistry::new();
    reg3.add_term("src", "r[a]");
    assert!(Engine::new(p3, &reg3).is_err());
}

#[test]
#[should_panic(expected = "no answer document")]
fn empty_binding_list_panics_at_the_root() {
    // A plan whose binding list is empty cannot export a root element.
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "nomatch", "X");
    let td = p.add(PlanNode::TupleDestroy { input: a, var: v("X") });
    p.set_root(td);
    let mut reg = SourceRegistry::new();
    reg.add_term("s1", "r[a]");
    let mut e = Engine::new(p, &reg).unwrap();
    let root = e.root();
    use mix_nav::Navigator;
    let _ = e.fetch(&root); // resolving the root finds no binding
}

#[test]
fn self_join_shares_one_source_connection() {
    // Two plan leaves naming the same source share a connection and its
    // counters (construction-time dedup).
    let mut p = Plan::new();
    let a = branch(&mut p, "s1", "r._", "X");
    let pa = p.add(PlanNode::Project { input: a, keep: vec![v("X")] });
    let b = branch(&mut p, "s1", "r._", "Y");
    let pb = p.add(PlanNode::Project { input: b, keep: vec![v("Y")] });
    let j = p.add(PlanNode::Join {
        left: pa,
        right: pb,
        pred: mix_algebra::BindPred::var_eq("X", "Y"),
    });
    finish(&mut p, j, "X");
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[a,b,a]");
        reg
    };
    let t = check_lazy_eq_eager(&p, mk);
    // a matches a (twice each way: positions 0,2 × 0,2) and b matches b.
    assert_eq!(t.children().len(), 5);
    let mut e = Engine::new(p, &mk()).unwrap();
    materialize(&mut e);
    assert_eq!(e.stats().per_source.len(), 1, "one shared connection");
}

#[test]
fn conjunctive_join_predicate_scans_the_inner_cache() {
    // `$ZX = $ZY AND $P < $Q` as ONE join predicate is not a single
    // equality, so the inner cache is scanned, not keyed. (Translation
    // never emits it: a second condition becomes a select above the join.)
    use mix_algebra::PredOperand::Var as V;
    let gd = |p: &mut Plan, input, parent: &str, path: &str, out: &str| {
        p.add(PlanNode::GetDescendants {
            input,
            parent: v(parent),
            path: parse_path(path).unwrap(),
            out: v(out),
        })
    };
    let mut p = Plan::new();
    let l = branch(&mut p, "s1", "r._", "X");
    let l = gd(&mut p, l, "X", "z._", "ZX");
    let l = gd(&mut p, l, "X", "p._", "P");
    let r = branch(&mut p, "s2", "r._", "Y");
    let r = gd(&mut p, r, "Y", "z._", "ZY");
    let r = gd(&mut p, r, "Y", "q._", "Q");
    let lt = BindPred::Cmp { left: V(v("P")), op: mix_nav::pred::CmpOp::Lt, right: V(v("Q")) };
    let pred = BindPred::var_eq("ZX", "ZY").and(lt);
    let j = p.add(PlanNode::Join { left: l, right: r, pred });
    finish(&mut p, j, "Q");
    let t = check_lazy_eq_eager(&p, || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[h[z[1],p[5]],h[z[2],p[9]]]");
        reg.add_term("s2", "r[s[z[1],q[7]],s[z[01],q[3]],s[z[2],q[9]]]");
        reg
    });
    // z 1 = 1 with 5 < 7; z 1 = 01 fails 5 < 3; z 2 = 2 fails 9 < 9.
    assert_eq!(t.to_string(), "out[7]");
}

#[test]
fn group_by_pulls_input_only_on_demand_when_members_interleave() {
    // Keys `a b a c b a`: every group discovery and member `r` extends the
    // shared scan one input binding at a time, only as far as it must.
    // The (bindings pulled, source navigations) pairs are those of the
    // linear member scan the member lists replaced.
    use mix_nav::Navigator;
    let mut p = Plan::new();
    let items = branch(&mut p, "s1", "r.i", "I");
    let k = p.add(PlanNode::GetDescendants {
        input: items,
        parent: v("I"),
        path: parse_path("k._").unwrap(),
        out: v("K"),
    });
    let val = p.add(PlanNode::GetDescendants {
        input: k,
        parent: v("I"),
        path: parse_path("v._").unwrap(),
        out: v("V"),
    });
    let gb = p.add(PlanNode::GroupBy {
        input: val,
        group: vec![v("K")],
        items: vec![GroupItem { value: v("V"), out: v("LV") }],
    });
    let ce = p.add(PlanNode::CreateElement {
        input: gb,
        label: LabelSpec::Const("g".into()),
        ch: v("LV"),
        out: v("G"),
    });
    finish(&mut p, ce, "G");
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term(
            "s1",
            "r[i[k[a],v[1]],i[k[b],v[2]],i[k[a],v[3]],i[k[c],v[4]],i[k[b],v[5]],i[k[a],v[6]]]",
        );
        reg
    };
    assert_eq!(check_lazy_eq_eager(&p, mk).to_string(), "out[g[1,3,6],g[2,5],g[4]]");

    let mut e = Engine::new(p, &mk()).unwrap();
    let step = |e: &mut Engine, what: &str, pulled: usize, navs: u64| {
        let got = (group_scan(e, gb).scanned.len(), e.stats().total().total());
        assert_eq!(got, (pulled, navs), "{what}: (bindings pulled, source navs)");
    };
    let member = |e: &mut Engine, h: &crate::VNode, value: &str| {
        assert_eq!(e.fetch(h), value);
    };
    let root = e.root();
    let ga = e.down(&root).unwrap();
    step(&mut e, "group a", 1, 15);
    let a1 = e.down(&ga).unwrap();
    member(&mut e, &a1, "1");
    step(&mut e, "a's first member", 1, 16);
    let a3 = e.right(&a1).unwrap();
    member(&mut e, &a3, "3");
    step(&mut e, "a's second member", 3, 57);
    let gb_ = e.right(&ga).unwrap();
    step(&mut e, "group b, already scanned", 3, 57);
    let gc = e.right(&gb_).unwrap();
    step(&mut e, "group c", 4, 77);
    let b2 = e.down(&gb_).unwrap();
    member(&mut e, &b2, "2");
    step(&mut e, "b's first member", 4, 78);
    let b5 = e.right(&b2).unwrap();
    member(&mut e, &b5, "5");
    step(&mut e, "b's second member", 5, 99);
    assert!(e.right(&b5).is_none());
    step(&mut e, "past b's last member", 6, 127);
    assert!(e.right(&gc).is_none());
    step(&mut e, "past the last group", 6, 127);
    // Handles of an earlier group still navigate after the scan is
    // exhausted, answered from the member lists alone.
    let a6 = e.right(&a3).unwrap();
    member(&mut e, &a6, "6");
    step(&mut e, "a's third member", 6, 128);
    assert!(e.right(&a6).is_none());
    let again = e.right(&a1).unwrap();
    member(&mut e, &again, "3");
    let c4 = e.down(&gc).unwrap();
    member(&mut e, &c4, "4");
    assert!(e.right(&c4).is_none());
    step(&mut e, "c's only member", 6, 130);
}

// ---- key memos: a key is computed once per binding that defines it ----

/// Translate a query; its groupBy with a non-empty key, if any.
fn keyed_plan(query: &str) -> (Plan, Option<PlanId>) {
    let plan = mix_algebra::translate(&mix_xmas::parse_query(query).unwrap()).unwrap();
    let gb = plan.reachable().into_iter().find(
        |&id| matches!(plan.node(id), PlanNode::GroupBy { group, .. } if !group.is_empty()),
    );
    (plan, gb)
}

/// Two registries, `s1` (homes) and `s2` (schools), from terms.
fn two_sources(s1: &'static str, s2: &'static str) -> impl Fn() -> SourceRegistry {
    move || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", s1);
        reg.add_term("s2", s2);
        reg
    }
}

/// Schools per home, grouped by home (Fig. 3's shape).
const BY_HOME: &str = "CONSTRUCT <out> <g> $H $S {$S} </g> {$H} </out> {}
    WHERE s1 r.h $H AND $H z._ $V1 AND s2 r.s $S AND $S z._ $V2 AND $V1 = $V2";

#[test]
fn equal_homes_share_a_group_though_their_keys_are_not_shared() {
    // The two `h[z[1]]` homes are distinct bindings, so the memo misses
    // on the second one — and its key, computed afresh, meets the first
    // home's in the key map: grouping stays by value.
    let mk = two_sources("r[h[z[1]],h[z[1]],h[z[2]]]", "r[s[z[1],n[a]],s[z[2],n[b]]]");
    let (plan, gb) = keyed_plan(BY_HOME);
    let t = check_lazy_eq_eager(&plan, &mk);
    assert_eq!(t.to_string(), "out[g[h[z[1]],s[z[1],n[a]],s[z[1],n[a]]],g[h[z[2]],s[z[2],n[b]]]]");
    let mut e = Engine::new(plan, &mk()).unwrap();
    materialize(&mut e);
    assert_eq!(group_scan(&e, gb.unwrap()).members, [vec![0, 1], vec![2]]);
}

#[test]
fn a_group_variable_from_the_inner_side_never_reuses_a_stale_key() {
    // Grouped by the school: consecutive join pairs share their outer
    // binding (the home) but not the binding that defines `$S`, so every
    // pair's key is its own.
    let mk = two_sources("r[h[z[1],n[x]],h[z[1],n[y]]]", "r[s[z[1],n[a]],s[z[1],n[b]]]");
    let (plan, _) = keyed_plan(
        "CONSTRUCT <out> <g> $S $H {$H} </g> {$S} </out> {}
         WHERE s1 r.h $H AND $H z._ $V1 AND s2 r.s $S AND $S z._ $V2 AND $V1 = $V2",
    );
    assert_eq!(
        check_lazy_eq_eager(&plan, &mk).to_string(),
        "out[g[s[z[1],n[a]],h[z[1],n[x]],h[z[1],n[y]]],\
         g[s[z[1],n[b]],h[z[1],n[x]],h[z[1],n[y]]]]"
    );
}

#[test]
fn group_memo_keeps_the_groups_and_the_pulls_of_interleaved_keys() {
    // Homes keyed `a b a`, each joining both schools: the memo answers the
    // second pair of each home, the third home's fresh key finds group a.
    // Bindings pulled at every step are those of the unmemoized scan; the
    // source navigations are lower by the group keys and outer join keys
    // no longer recomputed (26, 26, 42, 100, 100, 114, 114 without the
    // memos).
    use mix_nav::Navigator;
    let mk = two_sources(
        "r[h[k[a],z[1]],h[k[b],z[1]],h[k[a],z[1]]]",
        "r[s[z[1],n[1]],s[z[1],n[2]]]",
    );
    let (plan, gb) = keyed_plan(
        "CONSTRUCT <out> <g> $S {$S} </g> {$K} </out> {}
         WHERE s1 r.h $H AND $H k._ $K AND $H z._ $V1
           AND s2 r.s $S AND $S z._ $V2 AND $V1 = $V2",
    );
    let gb = gb.unwrap();
    let s = |n: u8| format!("s[z[1],n[{n}]]");
    assert_eq!(
        check_lazy_eq_eager(&plan, &mk).to_string(),
        format!("out[g[{0},{1},{0},{1}],g[{0},{1}]]", s(1), s(2))
    );

    let mut e = Engine::new(plan, &mk()).unwrap();
    let step = |e: &mut Engine, what: &str, pulled: usize, navs: u64| {
        let got = (group_scan(e, gb).scanned.len(), e.stats().total().total());
        assert_eq!(got, (pulled, navs), "{what}: (bindings pulled, source navs)");
    };
    let root = e.root();
    let ga = e.down(&root).unwrap();
    step(&mut e, "group a", 1, 26);
    let a1 = e.down(&ga).unwrap();
    step(&mut e, "a's first member", 1, 26);
    let a2 = e.right(&a1).unwrap();
    step(&mut e, "a's second member: memo hit", 2, 38);
    let a3 = e.right(&a2).unwrap();
    step(&mut e, "a's third member: b then a again", 5, 88);
    let gb_ = e.right(&ga).unwrap();
    step(&mut e, "group b, already scanned", 5, 88);
    assert!(e.right(&gb_).is_none());
    step(&mut e, "past the last group", 6, 96);
    let a4 = e.right(&a3).unwrap();
    assert!(e.right(&a4).is_none());
    let b1 = e.down(&gb_).unwrap();
    let b2 = e.right(&b1).unwrap();
    assert!(e.right(&b2).is_none());
    step(&mut e, "every member", 6, 96);
}

#[test]
fn keyed_join_materializes_the_outer_value_once_per_outer_binding() {
    // One home joining three schools, its join value a small subtree or
    // a deep one: after the first pair, each further pair costs the same
    // source navigations whatever the outer value's size — it is not
    // materialized again (once per pair, the steps were 15 and 21).
    use mix_nav::Navigator;
    let query = "CONSTRUCT <out> $S {$S} </out> {}
        WHERE s1 r.h $H AND $H z $V1 AND s2 r.s $S AND $S z $V2 AND $V1 = $V2";
    let schools = "r[s[z[1]],s[z[1]],s[z[1]]]";
    let mut steps = Vec::new();
    for home in ["r[h[z[1]]]", "r[h[z[c[d[1]]]]]"] {
        let mk = two_sources(home, schools);
        let (plan, _) = keyed_plan(query);
        assert_eq!(check_lazy_eq_eager(&plan, &mk).to_string(), "out[s[z[1]],s[z[1]],s[z[1]]]");
        let mut e = Engine::new(plan, &mk()).unwrap();
        let root = e.root();
        let mut navs = Vec::new();
        let mut cur = e.down(&root);
        while let Some(m) = cur {
            navs.push(e.stats().total().total());
            cur = e.right(&m);
        }
        navs.push(e.stats().total().total());
        steps.push(navs);
    }
    assert_eq!(steps, [vec![20, 30, 40, 46], vec![26, 36, 46, 52]]);
}
