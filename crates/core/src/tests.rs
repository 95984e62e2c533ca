//! Engine-level tests: the lazy mediator tree against the eager oracle,
//! plus the laziness guarantees the paper's architecture promises.

use crate::{eager, Engine, EngineConfig, SourceRegistry, VirtualDocument};
use mix_algebra::{rewrite, translate, NcCapabilities, Plan};
use mix_nav::explore::{first_k_children, materialize};
use mix_nav::{HandleTable, LabelPred, Navigator};
use mix_xmas::parse_query;

const FIG3: &str = r#"
    CONSTRUCT <answer>
                <med_home> $H $S {$S} </med_home> {$H}
              </answer> {}
    WHERE homesSrc homes.home $H AND $H zip._ $V1
      AND schoolsSrc schools.school $S AND $S zip._ $V2
      AND $V1 = $V2
"#;

fn example8_registry() -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    reg.add_term(
        "homesSrc",
        "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]]]",
    );
    reg.add_term(
        "schoolsSrc",
        "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],\
         school[dir[Hart],zip[91223]]]",
    );
    reg
}

fn plan_for(query: &str) -> Plan {
    translate(&parse_query(query).unwrap()).unwrap()
}

/// Lazy-vs-eager differential check for one query over one registry
/// builder (registries are rebuilt because engines own connections).
fn assert_lazy_matches_eager(query: &str, mk_registry: impl Fn() -> SourceRegistry) {
    let plan = plan_for(query);
    let expected = eager::eval(&plan, &mk_registry()).unwrap();
    let mut engine = Engine::new(plan, &mk_registry()).unwrap();
    let got = materialize(&mut engine);
    assert_eq!(got, expected, "query: {query}");
}

#[test]
fn figure_3_runs_lazily_end_to_end() {
    let plan = plan_for(FIG3);
    let mut engine = Engine::new(plan, &example8_registry()).unwrap();
    let answer = materialize(&mut engine);
    assert_eq!(
        answer.to_string(),
        "answer[\
           med_home[home[addr[La Jolla],zip[91220]],\
                    school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]]],\
           med_home[home[addr[El Cajon],zip[91223]],\
                    school[dir[Hart],zip[91223]]]]"
    );
}

#[test]
fn lazy_equals_eager_on_running_example() {
    assert_lazy_matches_eager(FIG3, example8_registry);
}

#[test]
fn root_handle_without_source_access() {
    let plan = plan_for(FIG3);
    let mut engine = Engine::new(plan, &example8_registry()).unwrap();
    let _root = engine.root();
    assert_eq!(engine.stats().total().total(), 0, "no source navigation for the root");
    // Even fetching the root label touches no source: the answer tag is
    // synthesized by createElement (Fig. 9's 7th mapping)… except the
    // binding machinery must confirm a binding exists, which does need the
    // sources. Fetch the label and check it is locally produced.
    let root = engine.root();
    assert_eq!(engine.fetch(&root), "answer");
}

#[test]
fn first_result_costs_less_than_full_result() {
    // The §1 scenario: the user navigates the first results and stops.
    // A collection view (groupBy with the trivial key) is truly lazy:
    // each member is served as soon as found.
    let n = 500;
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_tree("homesSrc", &mix_homes(n));
        reg
    };
    let collect = plan_for(
        "CONSTRUCT <all> $H {$H} </all> {} WHERE homesSrc homes.home $H",
    );
    let mut engine_first = Engine::new(collect.clone(), &mk()).unwrap();
    let root = engine_first.root();
    let first = engine_first.down(&root).unwrap();
    let _ = mix_nav::explore::materialize_at(&mut engine_first, &first);
    let first_cost = engine_first.stats().total().total();

    let mut engine_all = Engine::new(collect, &mk()).unwrap();
    let _ = materialize(&mut engine_all);
    let all_cost = engine_all.stats().total().total();
    assert!(
        first_cost * 20 < all_cost,
        "collect view: first result {first_cost} navs vs full {all_cost}"
    );

    // Fig. 3's med_home view groups by $H: producing even the *complete
    // first* med_home needs a full input pass (its school list must be
    // provably complete) — the browsable-but-unbounded behavior Def. 2
    // describes. First ≤ full still holds, and the full pass is linear,
    // not quadratic, thanks to the Fig. 10 buffering — in source
    // navigations and in the mediator's own work, since a member's next
    // one is looked up in its group's member list
    // (`crates/bench/tests/alloc_walks.rs` counts the latter).
    let mk2 = || {
        let mut reg = SourceRegistry::new();
        reg.add_tree("homesSrc", &mix_homes(200));
        reg.add_tree("schoolsSrc", &mix_schools(200));
        reg
    };
    let fig3 = plan_for(FIG3);
    let mut e_first = Engine::new(fig3.clone(), &mk2()).unwrap();
    let _ = first_k_children(&mut e_first, 1);
    let f = e_first.stats().total().total();
    let mut e_all = Engine::new(fig3, &mk2()).unwrap();
    let _ = materialize(&mut e_all);
    let a = e_all.stats().total().total();
    assert!(f <= a, "fig3 first {f} ≤ full {a}");
}

/// homes with distinct zips: home i has zip 91000+i.
fn mix_homes(n: usize) -> mix_xml::Tree {
    let children = (0..n)
        .map(|i| {
            mix_xml::term::parse_term(&format!(
                "home[addr[a{i}],zip[{}]]",
                91000 + i
            ))
            .unwrap()
        })
        .collect();
    mix_xml::Tree::node("homes", children)
}

fn mix_schools(n: usize) -> mix_xml::Tree {
    let children = (0..n)
        .map(|i| {
            mix_xml::term::parse_term(&format!(
                "school[dir[d{i}],zip[{}]]",
                91000 + i
            ))
            .unwrap()
        })
        .collect();
    mix_xml::Tree::node("schools", children)
}

#[test]
fn handles_stay_valid_like_the_paper_demands() {
    // "the client navigation may proceed from multiple nodes whose
    //  descendants or siblings have not been visited yet" (§1).
    let plan = plan_for(FIG3);
    let engine = Engine::new(plan, &example8_registry()).unwrap();
    let doc = VirtualDocument::new(engine);
    let root = doc.root();
    let mh1 = root.down().unwrap();
    let mh2 = mh1.right().unwrap();
    // Enter the *second* med_home first…
    let home2 = mh2.down().unwrap();
    assert_eq!(home2.child("addr").unwrap().text(), "El Cajon");
    // …then come back to the first, which must still work.
    let home1 = mh1.down().unwrap();
    assert_eq!(home1.child("addr").unwrap().text(), "La Jolla");
    let school1 = home1.right().unwrap();
    assert_eq!(school1.child("dir").unwrap().text(), "Smith");
}

#[test]
fn client_library_mirrors_dom() {
    let plan = plan_for(FIG3);
    let doc = VirtualDocument::new(Engine::new(plan, &example8_registry()).unwrap());
    let root = doc.root();
    assert_eq!(root.label(), "answer");
    let med_homes: Vec<_> = root.children().collect();
    assert_eq!(med_homes.len(), 2);
    assert_eq!(med_homes[0].label(), "med_home");
    // select on the virtual document.
    let first_child = root.down().unwrap();
    assert!(first_child.select(&LabelPred::equals("med_home")).is_some());
    assert!(first_child.select(&LabelPred::equals("nothing")).is_none());
    // to_tree materializes one subtree only.
    let t = med_homes[1].to_tree();
    assert_eq!(t.child("home").unwrap().child("zip").unwrap().text(), "91223");
}

#[test]
fn differential_simple_filter() {
    assert_lazy_matches_eager(
        r#"CONSTRUCT <hits> $H {$H} </hits> {}
           WHERE homesSrc homes.home $H AND $H addr._ $A AND $A = "La Jolla""#,
        example8_registry,
    );
}

#[test]
fn differential_empty_result() {
    assert_lazy_matches_eager(
        r#"CONSTRUCT <hits> $H {$H} </hits> {}
           WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z = 99999"#,
        example8_registry,
    );
}

#[test]
fn differential_numeric_comparison() {
    assert_lazy_matches_eager(
        r#"CONSTRUCT <low> $Z {$Z} </low> {}
           WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z <= 91220"#,
        example8_registry,
    );
}

#[test]
fn differential_cross_product() {
    assert_lazy_matches_eager(
        "CONSTRUCT <all> <pair> $H $S {$S} </pair> {$H} </all> {} \
         WHERE homesSrc homes.home $H AND schoolsSrc schools.school $S",
        example8_registry,
    );
}

#[test]
fn differential_recursive_path() {
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term(
            "cat",
            "catalog[part[name[p1],part[name[p2],part[name[p3]]],part[name[p4]]]]",
        );
        reg
    };
    assert_lazy_matches_eager(
        "CONSTRUCT <names> $N {$N} </names> {} WHERE cat catalog.part*.name $N",
        mk,
    );
}

#[test]
fn differential_wildcard_and_alternation() {
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("doc", "r[a[x[1],y[2]],b[x[3]],c[z[4]]]");
        reg
    };
    assert_lazy_matches_eager(
        "CONSTRUCT <out> $V {$V} </out> {} WHERE doc r.(a|b).x._ $V",
        mk,
    );
    assert_lazy_matches_eager("CONSTRUCT <out> $V {$V} </out> {} WHERE doc r._._ $V", mk);
}

#[test]
fn differential_variable_label_element() {
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("doc", "r[item[kind[fruit],name[apple]],item[kind[tool],name[saw]]]");
        reg
    };
    assert_lazy_matches_eager(
        "CONSTRUCT <out> <$K> $N {$N} </$K> {$K} </out> {} \
         WHERE doc r.item $I AND $I kind._ $K AND $I name._ $N",
        mk,
    );
}

#[test]
fn differential_group_of_groups() {
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term(
            "sales",
            "sales[s[region[west],city[sd],amt[3]],s[region[west],city[la],amt[5]],\
             s[region[east],city[ny],amt[7]]]",
        );
        reg
    };
    assert_lazy_matches_eager(
        "CONSTRUCT <report> <region> $R <sale> $C $A {$A} </sale> {$C} </region> {$R} </report> {} \
         WHERE sales sales.s $S AND $S region._ $R AND $S city._ $C AND $S amt._ $A",
        mk,
    );
}

#[test]
fn differential_literal_text_in_head() {
    assert_lazy_matches_eager(
        r#"CONSTRUCT <out> "heading" $H {$H} </out> {}
           WHERE homesSrc homes.home $H"#,
        example8_registry,
    );
}

#[test]
fn caches_do_not_change_results() {
    for config in [
        EngineConfig { join_cache: false, group_cache: false, ..EngineConfig::default() },
        EngineConfig { join_cache: true, group_cache: false, ..EngineConfig::default() },
        EngineConfig { join_cache: false, group_cache: true, ..EngineConfig::default() },
        EngineConfig::default(),
    ] {
        let plan = plan_for(FIG3);
        let expected = eager::eval(&plan, &example8_registry()).unwrap();
        let mut engine =
            Engine::with_config(plan, &example8_registry(), config).unwrap();
        assert_eq!(materialize(&mut engine), expected, "{config:?}");
    }
}

#[test]
fn join_cache_saves_source_navigations() {
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_tree("homesSrc", &mix_homes(30));
        reg.add_tree("schoolsSrc", &mix_schools(30));
        reg
    };
    let costs: Vec<u64> = [true, false]
        .into_iter()
        .map(|join_cache| {
            let plan = plan_for(FIG3);
            let config = EngineConfig { join_cache, group_cache: true, ..EngineConfig::default() };
            let mut engine = Engine::with_config(plan, &mk(), config).unwrap();
            materialize(&mut engine);
            engine.stats().total().total()
        })
        .collect();
    assert!(
        costs[0] * 2 < costs[1],
        "cached join {} navigations vs uncached {}",
        costs[0],
        costs[1]
    );
}

#[test]
fn rewritten_plans_agree_with_initial_plans() {
    let queries = [
        FIG3,
        r#"CONSTRUCT <hits> $H {$H} </hits> {}
           WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z = 91220"#,
    ];
    for q in queries {
        let initial = plan_for(q);
        let mut rewritten = initial.clone();
        rewrite::rewrite(&mut rewritten, NcCapabilities::minimal());
        let a = eager::eval(&initial, &example8_registry()).unwrap();
        let mut engine = Engine::new(rewritten, &example8_registry()).unwrap();
        assert_eq!(materialize(&mut engine), a, "query {q}");
    }
}

#[test]
fn engines_compose_as_sources() {
    // Figure 1: a mediator's virtual view is itself a source for a
    // higher-level mediator.
    let lower_plan = plan_for(
        r#"CONSTRUCT <zips> $Z {$Z} </zips> {}
           WHERE homesSrc homes.home $H AND $H zip._ $Z"#,
    );
    let lower = Engine::new(lower_plan, &example8_registry()).unwrap();

    let mut upper_reg = SourceRegistry::new();
    upper_reg.add_navigator("zipsSrc", HandleTable::new(lower));
    let upper_plan = plan_for(
        "CONSTRUCT <out> $Z {$Z} </out> {} WHERE zipsSrc zips._ $Z",
    );
    let mut upper = Engine::new(upper_plan, &upper_reg).unwrap();
    assert_eq!(materialize(&mut upper).to_string(), "out[91220,91223]");
}

#[test]
fn empty_source_produces_bare_root() {
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("homesSrc", "homes");
        reg
    };
    assert_lazy_matches_eager(
        "CONSTRUCT <answer> $H {$H} </answer> {} WHERE homesSrc homes.home $H",
        mk,
    );
    let plan = plan_for("CONSTRUCT <answer> $H {$H} </answer> {} WHERE homesSrc homes.home $H");
    let mut engine = Engine::new(plan, &mk()).unwrap();
    assert_eq!(materialize(&mut engine).to_string(), "answer");
}

#[test]
fn stats_attribute_to_the_right_source() {
    let plan = plan_for(FIG3);
    let mut engine = Engine::new(plan, &example8_registry()).unwrap();
    // Touch only the first med_home's home part.
    let root = engine.root();
    let mh = engine.down(&root).unwrap();
    let home = engine.down(&mh).unwrap();
    let _ = engine.fetch(&home);
    let stats = engine.stats();
    let homes = stats.per_source.iter().find(|(n, _)| n == "homesSrc").unwrap();
    assert!(homes.1.total() > 0, "homes source navigated");
}

#[test]
fn select_in_nc_bounds_the_filter_view() {
    // Example 1 + §2: the filter view's source navigations per client
    // navigation become bounded once NC includes select_φ.
    let query = "CONSTRUCT <picked> $X {$X} </picked> {} WHERE src items.wanted $X";
    let mk = |gap: usize| {
        let mut children = Vec::new();
        for i in 0..200usize {
            let lbl = if i % gap == gap - 1 { "wanted" } else { "chaff" };
            children.push(mix_xml::Tree::node(lbl, vec![mix_xml::Tree::leaf(format!("v{i}"))]));
        }
        let tree = mix_xml::Tree::node("items", children);
        let mut reg = SourceRegistry::new();
        reg.add_tree("src", &tree);
        reg
    };

    let cost = |gap: usize, use_select: bool| -> u64 {
        let plan = plan_for(query);
        let config = EngineConfig { use_select, ..EngineConfig::default() };
        let mut engine = Engine::with_config(plan, &mk(gap), config).unwrap();
        let _ = first_k_children(&mut engine, 1);
        engine.stats().total().total()
    };

    // Without select the cost of the first result grows with the gap…
    assert!(cost(50, false) > cost(1, false) + 40, "minimal NC is data-dependent");
    // …with select it stays flat.
    let with_sel_1 = cost(1, true);
    let with_sel_50 = cost(50, true);
    assert!(
        with_sel_50 <= with_sel_1 + 3,
        "select-enabled cost must not grow with the gap: {with_sel_1} vs {with_sel_50}"
    );
    // And results agree either way.
    for gap in [1usize, 10, 50] {
        let plan = plan_for(query);
        let mut a = Engine::with_config(plan.clone(), &mk(gap), EngineConfig::default()).unwrap();
        let mut b =
            Engine::with_config(plan, &mk(gap), EngineConfig::with_select()).unwrap();
        assert_eq!(materialize(&mut a), materialize(&mut b));
    }
}

#[test]
fn example_1_induced_source_trace_shape() {
    // "the client asks for the label of the first child … c = d;f. However,
    //  the length of the corresponding source navigation s = d;f;r;f;r;…
    //  depends on the source data."
    use mix_nav::{Recorded, RecordingNavigator, Trace};

    let plan = plan_for("CONSTRUCT <picked> $X {$X} </picked> {} WHERE src items.wanted $X");
    let mk = |term: &str, trace: &Trace| {
        let mut reg = SourceRegistry::new();
        reg.add_navigator(
            "src",
            RecordingNavigator::new(mix_nav::DocNavigator::from_term(term), trace.clone()),
        );
        Engine::new(plan.clone(), &reg).unwrap()
    };

    // Client navigation c = d;f on the virtual view.
    let run = |term: &str| -> Vec<Recorded> {
        let trace = Trace::new();
        let mut e = mk(term, &trace);
        let root = e.root();
        let first = e.down(&root).unwrap();
        let _ = e.fetch(&first);
        trace.commands()
    };

    let near = run("items[wanted[1],x,x,x,x]");
    let far = run("items[x,x,x,x,wanted[1]]");

    // The far trace extends the near one by r/f pairs, exactly the
    // `…;r;f;r;…` continuation of Example 1.
    assert!(far.len() > near.len());
    let extra = &far[..];
    let rs = extra.iter().filter(|c| **c == Recorded::R).count();
    let fs = extra.iter().filter(|c| **c == Recorded::F).count();
    let near_rs = near.iter().filter(|c| **c == Recorded::R).count();
    assert_eq!(rs - near_rs, 4, "one extra r per skipped sibling");
    assert!(fs > rs, "each skipped sibling is also fetched to test its label");
}

#[test]
fn equi_join_handles_numeric_aliases() {
    // `07` and `7` are `=` under value semantics; the cache key must agree.
    let plan = plan_for(
        "CONSTRUCT <out> <m> $X $Y {$Y} </m> {$X} </out> {} \
         WHERE s1 r._._ $X AND s2 r._._ $Y AND $X = $Y",
    );
    let mk = || {
        let mut reg = SourceRegistry::new();
        reg.add_term("s1", "r[i[07],i[ 8 ],i[x]]");
        reg.add_term("s2", "r[i[7],i[8],i[x]]");
        reg
    };
    let expected = eager::eval(&plan, &mk()).unwrap();
    let mut e = Engine::new(plan, &mk()).unwrap();
    assert_eq!(materialize(&mut e), expected);
    assert_eq!(expected.children().len(), 3, "07=7, 8=8, x=x all join");
}
