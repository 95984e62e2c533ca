//! The experiment harness: regenerates every experiment of EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p mix-bench --bin experiments --release          # all
//! cargo run -p mix-bench --bin experiments --release -- e3 e5 # selected
//! ```
//!
//! The paper (EDBT 2000) contains no numeric result tables; each
//! experiment below regenerates the *scenario* behind one of its figures
//! or quantified claims and prints the measured series. EXPERIMENTS.md
//! records whether the paper-predicted shape holds.

use mix_algebra::{classify, rewrite::rewrite, NcCapabilities};
use mix_bench::*;
use mix_buffer::BufferNavigator;
use mix_core::{eager, Engine, EngineConfig, SourceRegistry};
use mix_nav::explore::{first_k_children, materialize};
use mix_nav::HandleTable;
use mix_wrappers::gen;
use mix_wrappers::RelationalWrapper;
use std::time::Instant;

/// Count every allocation the experiments make: E14 reports
/// allocations-per-fill alongside wall clock, so the zero-copy splice
/// path is pinned by number, not vibes. Two relaxed atomic increments
/// per malloc — noise next to the allocator itself.
#[global_allocator]
static ALLOC: countalloc::CountingAlloc = countalloc::CountingAlloc::new();

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` overrides the E18 sweep: measure sequential vs exactly
    // that thread count instead of the default 1/2/4/8 ladder.
    let mut threads_override = None;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        threads_override = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
        args.drain(i..args.len().min(i + 2));
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);

    if want("e1") {
        e1_running_example();
    }
    if want("e2") {
        e2_lazy_vs_eager();
    }
    if want("e3") {
        e3_browsability();
    }
    if want("e4") {
        e4_select_extension();
    }
    if want("e5") {
        e5_granularity();
    }
    if want("e6") {
        e6_liberal_lxp();
    }
    if want("e7") {
        e7_operator_costs();
    }
    if want("e8") {
        e8_cache_ablation();
    }
    if want("e9") {
        e9_rewriting();
    }
    if want("e12") {
        e12_composition();
    }
    if want("e13") {
        e13_robustness();
    }
    if want("e14") {
        e14_batched_fills();
    }
    if want("e15") {
        e15_flight_recorder();
    }
    if want("e16") {
        e16_live_metrics();
    }
    if want("e17") {
        e17_shared_cache();
    }
    if want("e18") {
        e18_concurrency(threads_override);
    }
    if want("e19") {
        e19_served_sessions(threads_override);
    }
    if want("e20") {
        e20_observability();
    }
    if want("e21") {
        e21_semantic_cache();
    }
}

/// Simulated cost units one LXP round trip costs (the latency term the
/// batching work amortizes; matches E11's simulated network scale).
const REQUEST_OVERHEAD: u64 = 1_000;
/// Simulated cost units per payload byte (the bandwidth term).
const PER_BYTE: u64 = 1;

/// The E5/E14 cost model: fixed per-request overhead plus per-byte cost.
fn simulated_cost(requests: u64, bytes: u64) -> u64 {
    requests * REQUEST_OVERHEAD + bytes * PER_BYTE
}

fn banner(id: &str, title: &str) {
    println!("\n==== {id}: {title} {}", "=".repeat(60_usize.saturating_sub(title.len())));
}

/// E12 — §3 preprocessing: composed q′ ∘ q plan vs stacked mediators.
fn e12_composition() {
    banner("E12", "query ∘ view composition vs mediator stacking");
    use mix_nav::{CountedNavigator, DocNavigator, NavCounters};
    let view = plan_for(FIG3_QUERY);
    let query = plan_for(
        "CONSTRUCT <zips> $Z {$Z} </zips> {} \
         WHERE medview answer.med_home.home.zip._ $Z",
    );
    let n = 300;
    // Base registries with externally counted sources, so both strategies
    // report the same metric: commands hitting the *base* sources.
    let mk_base = |counters: &NavCounters| {
        let mut reg = SourceRegistry::new();
        reg.add_navigator(
            "homesSrc",
            CountedNavigator::new(
                DocNavigator::from_tree(&gen::homes_doc(9, n, 30)),
                counters.clone(),
            ),
        );
        reg.add_navigator(
            "schoolsSrc",
            CountedNavigator::new(
                DocNavigator::from_tree(&gen::schools_doc(10, n, 30)),
                counters.clone(),
            ),
        );
        reg
    };

    // Stacked: engine over engine.
    let stacked_base = NavCounters::new();
    let lower = Engine::new(view.clone(), &mk_base(&stacked_base)).unwrap();
    let mut upper_reg = SourceRegistry::new();
    upper_reg.add_navigator("medview", HandleTable::new(lower));
    let mut stacked = Engine::new(query.clone(), &upper_reg).unwrap();
    let stacked_answer = materialize(&mut stacked);
    let stacked_view_navs = stacked.stats().total().total();
    let stacked_base_navs = stacked_base.snapshot().total();

    // Composed: one plan straight over the base sources.
    let composed_base = NavCounters::new();
    let composed = mix_algebra::compose(&query, "medview", &view).unwrap();
    let mut one = Engine::new(composed, &mk_base(&composed_base)).unwrap();
    let composed_answer = materialize(&mut one);
    let composed_base_navs = composed_base.snapshot().total();

    assert_eq!(stacked_answer, composed_answer, "both strategies agree");
    let t = TablePrinter::new(
        &["strategy", "base-source navs", "view-level navs", "mediator layers"],
        &[12, 16, 16, 16],
    );
    t.row(&[
        "stacked".to_string(),
        format!("{stacked_base_navs}"),
        format!("{stacked_view_navs}"),
        "2".to_string(),
    ]);
    t.row(&[
        "composed".to_string(),
        format!("{composed_base_navs}"),
        "—".to_string(),
        "1".to_string(),
    ]);
    println!(
        "shape check: identical answers; composition removes the intermediate \
         mediator layer (and its per-navigation transduction overhead)."
    );
}

/// E13 — fault tolerance in the buffer–wrapper path: retries absorb
/// transient LXP faults at increasing rates (identical answers, bounded
/// simulated backoff cost); a permanent outage degrades to a partial
/// answer plus a health report instead of a panic.
fn e13_robustness() {
    banner("E13", "fault tolerance: retry cost vs fault rate");
    use mix_buffer::{FaultConfig, FaultyWrapper, RetryPolicy};
    use mix_nav::Navigator;

    let rows = 2_000;
    let chunk = 10;
    let clean = {
        let db = gen::homes_database(6, rows, 100);
        let mut nav = BufferNavigator::new(RelationalWrapper::new(db, chunk), "realestate");
        materialize(&mut nav).to_string()
    };

    let t = TablePrinter::new(
        &["fault rate", "requests", "injected", "retries", "backoff cost", "identical", "health"],
        &[10, 10, 10, 10, 14, 11, 12],
    );
    for rate_pct in [0u32, 10, 20, 30, 40] {
        let db = gen::homes_database(6, rows, 100);
        let faulty = FaultyWrapper::new(
            RelationalWrapper::new(db, chunk),
            FaultConfig::transient(0xE13, f64::from(rate_pct) / 100.0),
        );
        let policy = RetryPolicy { max_attempts: 32, ..RetryPolicy::default() };
        let mut nav = BufferNavigator::with_retry(faulty, "realestate", policy);
        let answer = materialize(&mut nav).to_string();
        let health = nav.health().snapshot();
        let status = nav.health().status();
        let faults = nav.into_wrapper().stats().snapshot();
        t.row(&[
            format!("{rate_pct}%"),
            format!("{}", faults.requests),
            format!("{}", faults.injected_faults),
            format!("{}", health.retries),
            format!("{}", health.backoff_cost),
            format!("{}", answer == clean),
            format!("{status}"),
        ]);
    }

    // A permanent outage: the database answers the handshake and the first
    // fills, then goes down for good. The scan truncates; health reports
    // the cause.
    let db = gen::homes_database(6, rows, 100);
    let faulty =
        FaultyWrapper::new(RelationalWrapper::new(db, chunk), FaultConfig::outage_after(12));
    let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
    let mut nav = BufferNavigator::with_retry(faulty, "realestate", policy);
    let root = nav.root();
    let table = nav.down(&root).expect("schema fill precedes the outage");
    let mut rows_seen = 0u64;
    let mut cur = nav.down(&table);
    while let Some(r) = cur {
        rows_seen += 1;
        cur = nav.right(&r);
    }
    let snap = nav.health().snapshot();
    println!(
        "permanent outage after 12 requests: {rows_seen}/{rows} rows delivered, \
         health {}, degraded ops {}, last error: {}",
        nav.health().status(),
        snap.degraded_ops,
        snap.last_error.unwrap_or_default()
    );
    println!(
        "shape check: answers stay identical across fault rates (retries absorb \
         transient faults, cost grows with the rate); an outage yields a partial \
         answer plus a degraded health status and its cause — never a panic."
    );
}

/// E15 — the flight recorder under E13's fault schedule, one mediator
/// level up: the same relational wire (transient rates, then a permanent
/// outage) now feeds a full engine whose client walks the *answer* with
/// the checked API. The trace must (a) name every answer node that was
/// served degraded — down to the client command to blame — and (b) roll
/// up exactly to the engine's wire-traffic counters.
fn e15_flight_recorder() {
    banner("E15", "flight recorder: tracing silent degradation end-to-end");
    use mix_buffer::{FaultConfig, FaultyWrapper, RetryPolicy, TraceKind, TraceSink};
    use mix_core::VirtualDocument;

    let rows = 400;
    let chunk = 10;
    let query =
        "CONSTRUCT <listing> $R {$R} </listing> {} WHERE realestate realestate.homes.row $R";

    let build = |cfg: FaultConfig, policy: RetryPolicy| -> VirtualDocument {
        let sink = TraceSink::enabled(1 << 21);
        let db = gen::homes_database(6, rows, 100);
        let nav = BufferNavigator::with_retry(
            FaultyWrapper::new(RelationalWrapper::new(db, chunk), cfg),
            "realestate",
            policy,
        )
        .with_trace(sink);
        let mut reg = SourceRegistry::new();
        reg.add_buffer("realestate", nav);
        VirtualDocument::new(Engine::new(plan_for(query), &reg).unwrap())
    };

    let traffic = |doc: &VirtualDocument| -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for (_, snap) in doc.engine().lock().unwrap().traffic() {
            if let Some(s) = snap {
                t.0 += s.requests;
                t.1 += s.batched_holes;
                t.2 += s.wasted_bytes;
            }
        }
        t
    };

    // (a) Transient faults, absorbed by retries: the recorder vouches for
    // the whole answer (no degradations) and reconciles with the wire.
    let clean = {
        let doc = build(FaultConfig::transient(0, 0.0), RetryPolicy::none());
        materialize(&mut *doc.engine().lock().unwrap()).to_string()
    };
    let t = TablePrinter::new(
        &["fault rate", "wire reqs", "retries", "degraded", "events", "spans", "rollup = traffic"],
        &[10, 10, 10, 10, 10, 10, 18],
    );
    let mut series = Vec::new();
    for rate_pct in [0u32, 10, 20, 30, 40] {
        let policy = RetryPolicy { max_attempts: 32, ..RetryPolicy::default() };
        let doc = build(
            FaultConfig::transient(0xE13, f64::from(rate_pct) / 100.0),
            policy,
        );
        let answer = materialize(&mut *doc.engine().lock().unwrap()).to_string();
        assert_eq!(answer, clean, "retries must absorb transient faults at {rate_pct}%");
        let log = doc.trace();
        assert_eq!(log.dropped(), 0, "exactness requires a complete trace");
        let wire = traffic(&doc);
        let rollup = log.rollup();
        assert!(
            rollup.matches_traffic(wire),
            "rollup {rollup:?} must equal traffic {wire:?} at {rate_pct}%"
        );
        let span_requests: u64 = log.span_stats().iter().map(|r| r.requests).sum();
        assert_eq!(span_requests, wire.0, "per-span requests partition the wire total");
        assert!(log.degradations().is_empty(), "absorbed faults are not degradations");
        t.row(&[
            format!("{rate_pct}%"),
            format!("{}", wire.0),
            format!("{}", rollup.retries),
            format!("{}", rollup.degradations),
            format!("{}", log.len()),
            format!("{}", log.spans().len()),
            "exact".to_string(),
        ]);
        series.push(Json::Obj(vec![
            ("fault_rate_pct".to_string(), Json::Int(u64::from(rate_pct))),
            ("wire_requests".to_string(), Json::Int(wire.0)),
            ("retries".to_string(), Json::Int(rollup.retries)),
            ("degradations".to_string(), Json::Int(rollup.degradations)),
            ("trace_events".to_string(), Json::Int(log.len() as u64)),
            ("spans".to_string(), Json::Int(log.spans().len() as u64)),
            ("rollup_matches_traffic".to_string(), Json::Bool(true)),
            ("answer_identical".to_string(), Json::Bool(true)),
        ]));
    }

    // (b) A permanent outage mid-scan: the client walks the answer
    // checking after every command whether a source degraded under it
    // (fetches via `label_checked`, down/right via the same health delta
    // the checked API uses). For every answer node served degraded, the
    // recorder must hold a degradation event in that very command's span.
    let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
    let doc = build(FaultConfig::outage_after(12), policy);
    let degraded_total = |doc: &VirtualDocument| -> u64 {
        doc.health().iter().filter_map(|(_, s)| s.as_ref().map(|s| s.degraded_ops)).sum()
    };
    let mut visited = 0u64;
    let mut degraded: Vec<(&'static str, u64)> = Vec::new(); // (command, span)
    let mut before = degraded_total(&doc);
    let mut stack = vec![doc.root()];
    while let Some(node) = stack.pop() {
        visited += 1;
        let fetch_degraded = node.label_checked().is_err();
        let now = degraded_total(&doc);
        if fetch_degraded || now > before {
            degraded.push(("f", doc.trace_sink().current_span()));
            before = now;
        }
        let child = node.down();
        let now = degraded_total(&doc);
        if now > before {
            degraded.push(("d", doc.trace_sink().current_span()));
            before = now;
        }
        let sibling = node.right();
        let now = degraded_total(&doc);
        if now > before {
            degraded.push(("r", doc.trace_sink().current_span()));
            before = now;
        }
        stack.extend(child);
        stack.extend(sibling);
    }
    let log = doc.trace();
    assert_eq!(log.dropped(), 0, "exactness requires a complete trace");
    let wire = traffic(&doc);
    assert!(log.rollup().matches_traffic(wire), "outage run must still reconcile exactly");
    assert!(!degraded.is_empty(), "the outage must degrade visited answer nodes");
    for (cmd, span) in &degraded {
        let events = log.by_span(*span);
        assert!(
            matches!(events.first().map(|e| &e.kind),
                     Some(TraceKind::ClientCommand { cmd: c }) if c == cmd),
            "a degraded `{cmd}` is blamed on the client command that suffered it"
        );
        assert!(
            events.iter().any(|e| matches!(e.kind, TraceKind::Degradation { .. })),
            "every degraded answer node has a degradation event in its span"
        );
    }
    let deg_events = log.degradations().len();
    println!(
        "permanent outage after 12 requests: {visited} answer nodes walked, \
         {} commands served degraded — each pinpointed to its client span \
         ({deg_events} degradation events total, rollup exact)",
        degraded.len()
    );
    println!(
        "shape check: transient faults leave a degradation-free trace whose rollup \
         equals the wire counters exactly at every rate; an outage marks each \
         silently-degraded answer node with a span-attributed degradation event."
    );

    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E15")),
        (
            "workload".to_string(),
            Json::str("engine over faulty relational wire (E13 schedule), traced"),
        ),
        ("rows".to_string(), Json::Int(rows as u64)),
        ("chunk".to_string(), Json::Int(chunk as u64)),
        ("series".to_string(), Json::Arr(series)),
        (
            "outage".to_string(),
            Json::Obj(vec![
                ("answer_nodes_walked".to_string(), Json::Int(visited)),
                ("degraded_commands".to_string(), Json::Int(degraded.len() as u64)),
                ("degradation_events".to_string(), Json::Int(deg_events as u64)),
                ("every_degraded_node_pinpointed".to_string(), Json::Bool(true)),
                ("rollup_matches_traffic".to_string(), Json::Bool(true)),
            ]),
        ),
    ])
    .write("BENCH_E15.json");
}

/// The Fig. 3 view over chunk-4 buffered sources recording into one fresh
/// enabled registry (returned alongside), optionally reading through a
/// shared fragment cache: fresh wrappers and a fresh engine per call.
fn observed_fig3(
    cache: Option<&mix_buffer::FragmentCache>,
) -> (mix_core::VirtualDocument, mix_buffer::MetricsRegistry) {
    use mix_buffer::{FillPolicy, MetricsRegistry, TreeWrapper};
    let registry = MetricsRegistry::enabled();
    let mut sources = SourceRegistry::new();
    for (name, tree) in
        [("homesSrc", gen::homes_doc(42, 40, 8)), ("schoolsSrc", gen::schools_doc(43, 40, 8))]
    {
        let mut inner = TreeWrapper::new(FillPolicy::Chunked { n: 4 });
        inner.add(name, std::sync::Arc::new(mix_xml::Document::from_tree(&tree)));
        let mut nav = BufferNavigator::new(inner, name).with_metrics(registry.clone());
        if let Some(cache) = cache {
            nav = nav.with_fragment_cache(cache.clone());
        }
        sources.add_buffer(name, nav);
    }
    let engine = Engine::new(plan_for(FIG3_QUERY), &sources).unwrap();
    (mix_core::VirtualDocument::new(engine), registry)
}

/// E16 — live metrics & EXPLAIN ANALYZE: the per-operator registry makes
/// Def. 2 browsability *observable* — bounded and unbrowsable plans are
/// distinguishable from the amplification column alone — and the whole
/// surface exports as Prometheus text that the strict in-tree parser
/// accepts. Also measures the overhead of recording.
fn e16_live_metrics() {
    banner("E16", "live metrics & EXPLAIN ANALYZE");
    use mix_algebra::PlanNode;
    use mix_buffer::MetricsRegistry;
    use mix_core::{PromText, VirtualDocument};

    // (a) The Fig. 3 view over observed buffered sources: one shared
    // registry covers engine operators, client commands, per-source
    // navigation, and buffer wire traffic.
    let (doc, registry) = observed_fig3(None);
    let _ = first_k_children(&mut *doc.engine().lock().unwrap(), 3);
    println!("{}", doc.explain_analyze());

    // Exactness: per-operator self counts partition the per-source total,
    // which is the engine's own NavCounters total — on every run.
    let snap = registry.snapshot();
    let op_self = snap.total("mix_op_source_navs_total");
    let per_source = snap.total("mix_source_navs_total");
    let engine_total = {
        let t = doc.stats().total();
        t.downs + t.rights + t.fetches + t.selects
    };
    assert_eq!(op_self, per_source, "op self counts must sum to the source total");
    assert_eq!(per_source, engine_total, "metered navs must equal engine counters");

    // The scrape round-trips through the strict parser (the same check
    // CI's smoke step applies to the file written below).
    let scrape = snap.render_prometheus();
    let parsed = PromText::parse(&scrape).expect("exporter output must parse");
    for family in
        ["mix_op_source_navs_total", "mix_client_commands_total", "mix_requests_total"]
    {
        assert!(parsed.family(family).is_some(), "family {family} missing");
    }
    println!(
        "scrape: {} families, {} bytes — strict-parser clean; \
         op self sum = source total = engine total = {engine_total}",
        parsed.families.len(),
        scrape.len()
    );

    // (b) Browsability, observed: the identity view answers its first
    // child in O(1) source navs; splice an orderBy under the head and the
    // same first touch drains the source — the amplification column is
    // the tell (Def. 2 made measurable).
    let items_query = "CONSTRUCT <sorted> $X {$X} </sorted> {} WHERE src items.item $X";
    let spliced = |unbrowsable: bool| -> mix_algebra::Plan {
        let mut plan = plan_for(items_query);
        if unbrowsable {
            // Splice an orderBy over the *item bindings* — between the
            // groupBy and its getDescendants input — so the head's first
            // touch must sort (hence drain) the whole binding list. This
            // is Example 1's orderBy view: the engine keeps the root
            // tupleDestroy in place, only the group input is rerouted.
            let gb = (0..plan.len())
                .map(mix_algebra::PlanId::from_index)
                .find(|id| matches!(plan.node(*id), PlanNode::GroupBy { .. }))
                .expect("translated plan has a groupBy");
            let PlanNode::GroupBy { input, .. } = *plan.node(gb) else { unreachable!() };
            let ob = plan.add(PlanNode::OrderBy { input, keys: vec![] });
            let PlanNode::GroupBy { input, .. } = plan.node_mut(gb) else { unreachable!() };
            *input = ob;
        }
        plan
    };
    let first_touch = |n: usize, unbrowsable: bool| -> (u64, f64) {
        let term = format!(
            "items[{}]",
            (0..n).map(|i| format!("item[{i}]")).collect::<Vec<_>>().join(",")
        );
        let mut reg = SourceRegistry::new();
        reg.add_term("src", &term);
        let mut engine = Engine::new(spliced(unbrowsable), &reg).unwrap();
        engine.set_metrics(MetricsRegistry::enabled());
        let doc = VirtualDocument::new(engine);
        let _ = doc.root().down().map(|c| c.label());
        let snap = doc.metrics_snapshot();
        // Max per-operator amplification: cum source navs per call.
        let mut amp: f64 = 0.0;
        for s in &snap.samples {
            if s.name == "mix_op_source_navs_cum_total" {
                let labels: Vec<(&str, &str)> =
                    s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                let calls = snap.value("mix_op_calls_total", &labels).unwrap_or(0);
                if calls > 0 {
                    amp = amp.max(s.value.scalar() as f64 / calls as f64);
                }
            }
        }
        (snap.total("mix_source_navs_total"), amp)
    };
    let t = TablePrinter::new(
        &["view", "items", "first-child navs", "max op amp"],
        &[22, 8, 16, 12],
    );
    let mut series = Vec::new();
    let mut bounded_navs = Vec::new();
    let mut spliced_navs = Vec::new();
    for n in [100usize, 400] {
        for unbrowsable in [false, true] {
            let (navs, amp) = first_touch(n, unbrowsable);
            if unbrowsable {
                spliced_navs.push(navs);
            } else {
                bounded_navs.push(navs);
            }
            t.row(&[
                (if unbrowsable { "orderBy-spliced" } else { "identity (bounded)" })
                    .to_string(),
                format!("{n}"),
                format!("{navs}"),
                format!("{amp:.1}"),
            ]);
            series.push(Json::Obj(vec![
                ("view".to_string(), Json::str(if unbrowsable { "orderBy" } else { "identity" })),
                ("items".to_string(), Json::Int(n as u64)),
                ("first_child_navs".to_string(), Json::Int(navs)),
                ("max_op_amplification".to_string(), Json::Num(amp)),
            ]));
        }
    }
    assert_eq!(bounded_navs[0], bounded_navs[1], "bounded first touch is size-independent");
    assert!(
        spliced_navs[1] > spliced_navs[0] && spliced_navs[0] > bounded_navs[0] * 10,
        "the orderBy splice must show its materialization spike \
         ({spliced_navs:?} vs {bounded_navs:?})"
    );

    // (c) Recording overhead: the same Fig. 3 materialization with the
    // registry off (one relaxed load per site) vs enabled.
    let timed = |enabled: bool| -> f64 {
        let reps = 30;
        let start = Instant::now();
        for _ in 0..reps {
            let (doc, registry) = observed_fig3(None);
            if !enabled {
                registry.set_enabled(false);
            }
            let _ = materialize(&mut *doc.engine().lock().unwrap());
        }
        start.elapsed().as_secs_f64() * 1_000.0 / f64::from(reps)
    };
    let _warmup = timed(false);
    let off_ms = timed(false);
    let on_ms = timed(true);
    let ratio = on_ms / off_ms;
    println!(
        "recording overhead: metrics off {off_ms:.3} ms/run, on {on_ms:.3} ms/run \
         (ratio {ratio:.3})"
    );
    println!(
        "shape check: bounded views answer their first child in constant navs; the \
         orderBy splice pays the whole scan on first touch — visible in the amp \
         column; scrape is strict-parser clean and the op/source/engine totals agree."
    );

    std::fs::write("BENCH_E16.prom", &scrape).ok();
    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E16")),
        (
            "workload".to_string(),
            Json::str("Fig. 3 view observed end-to-end + orderBy browsability contrast"),
        ),
        ("scrape_families".to_string(), Json::Int(parsed.families.len() as u64)),
        ("scrape_bytes".to_string(), Json::Int(scrape.len() as u64)),
        ("op_self_sum".to_string(), Json::Int(op_self)),
        ("source_nav_total".to_string(), Json::Int(per_source)),
        ("engine_nav_total".to_string(), Json::Int(engine_total)),
        ("totals_reconcile".to_string(), Json::Bool(true)),
        ("browsability".to_string(), Json::Arr(series)),
        ("metrics_off_ms".to_string(), Json::Num(off_ms)),
        ("metrics_on_ms".to_string(), Json::Num(on_ms)),
        ("overhead_ratio".to_string(), Json::Num(ratio)),
    ])
    .write("BENCH_E16.json");
}

/// E17 — the shared cross-query fragment cache: a warm second session
/// over the same sources costs zero wire exchanges, and invalidating one
/// source restores exactly that source's traffic.
fn e17_shared_cache() {
    banner("E17", "shared cross-query fragment cache");
    use mix_buffer::FragmentCache;
    use mix_core::VirtualDocument;

    // One mediation session over the Fig. 3 view: fresh wrappers and a
    // fresh engine every time — only the fragment cache is shared.
    let session = |cache: &FragmentCache| observed_fig3(Some(cache)).0;
    // (requests, get_roots, bytes) per named source, summed when name is None.
    let wire = |doc: &VirtualDocument, name: Option<&str>| -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for (src, snap) in doc.engine().lock().unwrap().traffic() {
            if let (Some(s), true) = (snap, name.is_none_or(|n| n == src)) {
                t.0 += s.requests;
                t.1 += s.get_roots;
                t.2 += s.bytes_received;
            }
        }
        t
    };

    let cache = FragmentCache::new();
    let cold = session(&cache);
    let answer = materialize(&mut *cold.engine().lock().unwrap()).to_string();
    let (c_req, c_roots, c_bytes) = wire(&cold, None);
    assert!(c_req > 0 && c_roots > 0, "the cold session paid the wire");

    let warm = session(&cache);
    let warm_answer = materialize(&mut *warm.engine().lock().unwrap()).to_string();
    let (w_req, w_roots, w_bytes) = wire(&warm, None);
    assert_eq!(warm_answer, answer, "warm answer must be byte-identical");
    assert_eq!((w_req, w_roots, w_bytes), (0, 0, 0), "warm session is wire-free");

    // Drop one source from the cache: the next session pays the wire for
    // that source again — and only for that source.
    let (inv_entries, inv_bytes) = cache.invalidate("homesSrc");
    let third = session(&cache);
    let third_answer = materialize(&mut *third.engine().lock().unwrap()).to_string();
    assert_eq!(third_answer, answer, "post-invalidation answer must be identical");
    let (t_homes, _, _) = wire(&third, Some("homesSrc"));
    let (t_schools, _, _) = wire(&third, Some("schoolsSrc"));
    assert!(t_homes > 0, "invalidation restored the invalidated source's traffic");
    assert_eq!(t_schools, 0, "the untouched source stayed cached");

    let t = TablePrinter::new(
        &["session", "requests", "get_roots", "bytes", "sim cost"],
        &[24, 10, 10, 10, 12],
    );
    let mut rows = Vec::new();
    for (label, (req, roots, bytes)) in [
        ("cold", (c_req, c_roots, c_bytes)),
        ("warm (shared cache)", (w_req, w_roots, w_bytes)),
        ("after invalidate(homes)", wire(&third, None)),
    ] {
        t.row(&[
            label.to_string(),
            format!("{req}"),
            format!("{roots}"),
            format!("{bytes}"),
            format!("{}", simulated_cost(req + roots, bytes)),
        ]);
        rows.push(Json::Obj(vec![
            ("session".to_string(), Json::str(label)),
            ("requests".to_string(), Json::Int(req)),
            ("get_roots".to_string(), Json::Int(roots)),
            ("bytes".to_string(), Json::Int(bytes)),
            ("simulated_cost".to_string(), Json::Int(simulated_cost(req + roots, bytes))),
        ]));
    }
    let s = cache.stats();
    println!(
        "cache: {} hits, {} misses, {} insertions, {} evictions, {} invalidations; \
         resident {} B of {} B budget",
        s.hits, s.misses, s.insertions, s.evictions, s.invalidations, s.bytes, s.budget
    );
    println!(
        "shape check: the warm session re-answers the whole Fig. 3 view with ZERO \
         wire exchanges; invalidating homesSrc restores exactly that source's \
         traffic ({inv_entries} entries / {inv_bytes} B dropped), schoolsSrc stays free."
    );

    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E17")),
        (
            "workload".to_string(),
            Json::str("Fig. 3 view, three sessions sharing one fragment cache"),
        ),
        ("sessions".to_string(), Json::Arr(rows)),
        ("warm_is_wire_free".to_string(), Json::Bool(true)),
        ("answers_identical".to_string(), Json::Bool(true)),
        ("invalidated_entries".to_string(), Json::Int(inv_entries)),
        ("invalidated_bytes".to_string(), Json::Int(inv_bytes)),
        ("cache_hits".to_string(), Json::Int(s.hits)),
        ("cache_misses".to_string(), Json::Int(s.misses)),
        ("cache_insertions".to_string(), Json::Int(s.insertions)),
    ])
    .write("BENCH_E17.json");
}

/// E21 — the semantic answer cache vs the identity fragment cache on an
/// overlapping-query workload. Sessions draw zipf-skewed from templates
/// that all navigate one source; the shared fragment cache is
/// budget-starved to a fraction of the source's wire footprint (a working
/// set the identity cache cannot hold), so identity-cached repeats keep
/// paying the wire — while the semantic catalog answers every repeated
/// *query* from its recorded view with zero exchanges, because it caches
/// answers, not fragments.
fn e21_semantic_cache() {
    banner("E21", "semantic answer cache vs identity fragment cache");
    use mix_algebra::ViewCatalog;
    use mix_buffer::{FillPolicy, FragmentCache, TreeWrapper};
    use mix_core::SemanticOutcome;
    use std::sync::Arc;

    let doc = Arc::new(mix_xml::Document::from_tree(&gen::homes_doc(21, 150, 8)));

    // Overlapping templates over homesSrc, most-popular first (all
    // recordable fixed-depth shapes; they share fragments, not answers).
    let templates: [(&str, &str); 6] = [
        ("homes", "CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H"),
        ("zips", "CONSTRUCT <zs> $Z {$Z} </zs> {} WHERE homesSrc homes.home.zip $Z"),
        ("prices", "CONSTRUCT <ps> $P {$P} </ps> {} WHERE homesSrc homes.home.price $P"),
        ("addrs", "CONSTRUCT <as> $A {$A} </as> {} WHERE homesSrc homes.home.addr $A"),
        ("zipvals", "CONSTRUCT <vs> $V {$V} </vs> {} WHERE homesSrc homes.home.zip._ $V"),
        (
            "chained",
            "CONSTRUCT <cs> $A {$A} </cs> {} \
             WHERE homesSrc homes.home $H AND $H addr $A",
        ),
    ];

    // One query session: fresh wrapper and buffer, shared fragment cache,
    // optionally the shared catalog. Returns (answer, wire exchanges,
    // wire bytes, semantic outcome).
    let run = |query: &str,
               cache: &FragmentCache,
               catalog: Option<&ViewCatalog>|
     -> (String, u64, u64, Option<SemanticOutcome>) {
        let mut inner = TreeWrapper::new(FillPolicy::Chunked { n: 4 });
        inner.add("homesSrc", doc.clone());
        let nav = BufferNavigator::new(inner, "homesSrc").with_fragment_cache(cache.clone());
        let stats = nav.stats();
        let mut reg = SourceRegistry::new();
        reg.add_buffer("homesSrc", nav);
        let config = match catalog {
            Some(catalog) => {
                reg.set_view_catalog(catalog.clone());
                EngineConfig { semantic_cache: true, ..EngineConfig::default() }
            }
            None => EngineConfig::default(),
        };
        let mut engine = Engine::with_config(plan_for(query), &reg, config).unwrap();
        let outcome = engine.semantic_outcome();
        let answer = materialize(&mut engine);
        if matches!(outcome, Some(SemanticOutcome::Miss | SemanticOutcome::Partial)) {
            engine.record_view(&answer);
        }
        let s = stats.snapshot();
        (answer.to_string(), s.requests + s.get_roots, s.bytes_received, outcome)
    };

    // Size the starvation budget from the measured wire footprint of one
    // full uncached scan: a quarter of the working set.
    let (_, probe_req, probe_bytes, _) =
        run(templates[0].1, &FragmentCache::with_budget(0), None);
    let budget = (probe_bytes / 4).max(1);
    println!(
        "source footprint: {probe_req} exchanges / {probe_bytes} B per full scan; \
         shared cache budget {budget} B (working set cannot fit)"
    );

    // The zipf draw sequence, identical for both modes.
    let zipf_cdf: Vec<f64> = {
        let s = 1.1_f64;
        let weights: Vec<f64> =
            (0..templates.len()).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut cum = 0.0;
        weights.iter().map(|w| { cum += w / total; cum }).collect()
    };
    let mix64 = |mut z: u64| -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    const DRAWS: usize = 60;
    let draws: Vec<usize> = (0..DRAWS as u64)
        .map(|i| {
            let u = mix64(i) as f64 / u64::MAX as f64;
            zipf_cdf.iter().position(|&c| u <= c).unwrap_or(templates.len() - 1)
        })
        .collect();

    // Per-mode totals plus the repeat-draw split: a "repeat" is any draw
    // whose template already ran once in that mode.
    struct ModeResult {
        answers: Vec<String>,
        requests: u64,
        bytes: u64,
        repeat_requests: u64,
        repeat_bytes: u64,
        covered: u64,
        miss: u64,
    }
    let run_mode = |catalog: Option<&ViewCatalog>| -> ModeResult {
        let cache = FragmentCache::with_budget(budget);
        let mut seen = [false; 6];
        let mut r = ModeResult {
            answers: Vec::with_capacity(DRAWS),
            requests: 0,
            bytes: 0,
            repeat_requests: 0,
            repeat_bytes: 0,
            covered: 0,
            miss: 0,
        };
        for &t in &draws {
            let (answer, req, bytes, outcome) = run(templates[t].1, &cache, catalog);
            r.answers.push(answer);
            r.requests += req;
            r.bytes += bytes;
            if seen[t] {
                r.repeat_requests += req;
                r.repeat_bytes += bytes;
            }
            seen[t] = true;
            match outcome {
                Some(SemanticOutcome::Covered) => r.covered += 1,
                Some(_) => r.miss += 1,
                None => {}
            }
        }
        r
    };

    let identity = run_mode(None);
    let catalog = ViewCatalog::new();
    let semantic = run_mode(Some(&catalog));

    assert_eq!(identity.answers, semantic.answers, "rewritten answers must be byte-identical");
    assert!(identity.repeat_requests > 0, "the starved identity cache pays for repeats");
    assert_eq!(
        (semantic.repeat_requests, semantic.repeat_bytes),
        (0, 0),
        "every repeated query is answered from the catalog with zero wire"
    );
    assert_eq!(semantic.covered as usize + semantic.miss as usize, DRAWS);

    let t = TablePrinter::new(
        &["mode", "exchanges", "bytes", "sim cost", "repeat exch", "repeat bytes"],
        &[22, 10, 10, 12, 12, 12],
    );
    let mut rows = Vec::new();
    for (label, m) in [("identity (starved)", &identity), ("identity + semantic", &semantic)] {
        t.row(&[
            label.to_string(),
            format!("{}", m.requests),
            format!("{}", m.bytes),
            format!("{}", simulated_cost(m.requests, m.bytes)),
            format!("{}", m.repeat_requests),
            format!("{}", m.repeat_bytes),
        ]);
        rows.push(Json::Obj(vec![
            ("mode".to_string(), Json::str(label)),
            ("exchanges".to_string(), Json::Int(m.requests)),
            ("bytes".to_string(), Json::Int(m.bytes)),
            ("simulated_cost".to_string(), Json::Int(simulated_cost(m.requests, m.bytes))),
            ("repeat_exchanges".to_string(), Json::Int(m.repeat_requests)),
            ("repeat_bytes".to_string(), Json::Int(m.repeat_bytes)),
        ]));
    }
    println!(
        "outcomes with the catalog: {} covered / {} miss over {DRAWS} zipf draws; \
         views recorded: {}",
        semantic.covered,
        semantic.miss,
        catalog.len()
    );
    println!(
        "shape check: the identity cache cannot hold the working set, so repeated \
         queries keep paying the wire ({} exchanges / {} B); the semantic catalog \
         answers every repeat with ZERO exchanges, byte-identically.",
        identity.repeat_requests, identity.repeat_bytes
    );
    if std::env::var("MIX_BENCH_ENFORCE").as_deref() == Ok("1") {
        // The asserts above already gate; make the pass explicit for CI.
        println!(
            "MIX_BENCH_ENFORCE: covered repeats wire-free, identity repeats paid \
             {} exchanges, answers byte-identical — pass",
            identity.repeat_requests
        );
    }

    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E21")),
        (
            "workload".to_string(),
            Json::str("60 zipf-skewed draws over 6 overlapping homesSrc templates"),
        ),
        ("draws".to_string(), Json::Int(DRAWS as u64)),
        ("cache_budget_bytes".to_string(), Json::Int(budget)),
        ("full_scan_bytes".to_string(), Json::Int(probe_bytes)),
        ("modes".to_string(), Json::Arr(rows)),
        ("covered".to_string(), Json::Int(semantic.covered)),
        ("miss".to_string(), Json::Int(semantic.miss)),
        ("views_recorded".to_string(), Json::Int(catalog.len() as u64)),
        ("answers_identical".to_string(), Json::Bool(true)),
        ("covered_repeats_wire_free".to_string(), Json::Bool(true)),
    ])
    .write("BENCH_E21.json");
}

/// E18 — the concurrent multi-source engine. Every source pays a real
/// per-exchange wire delay; the sequential engine pays the *sum* of all
/// sources' exchange latencies while the concurrent engine (parallel
/// warm-up exchanges plus per-source background prefetch workers) pays
/// roughly their *max*. Sweeps thread count and reports wall clock and
/// per-navigation-command latency percentiles.
fn e18_concurrency(threads_override: Option<usize>) {
    banner("E18", "concurrent multi-source navigation");
    use mix_buffer::{ConcurrentPrefetcher, FillPolicy, SlowWrapper, TreeWrapper};
    use mix_core::VNode;
    use mix_nav::Navigator;
    use mix_xml::Tree;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const DELAY_MS: u64 = 5;
    const N_SOURCES: usize = 4;
    // Binds each source's root (`_` consumes exactly the root label), so
    // the full walk provably drains all four sources.
    const QUERY: &str = "CONSTRUCT <out> <m> $A <n> $B <p> $C $D {$D} </p> {$C} </n> {$B} \
                         </m> {$A} </out> {} \
                         WHERE s0 _ $A AND s1 _ $B AND s2 _ $C AND s3 _ $D";
    // Equal-size sources (17 nodes → 18 exchanges each): the concurrent
    // wall clock converges to the *longest* per-source exchange chain,
    // so skewed sources would only re-measure the skew, not the overlap.
    let trees: Vec<Tree> = (0..N_SOURCES)
        .map(|i| {
            mix_xml::term::parse_term(&format!(
                "src{i}[a[b,b,b],a[b,b,b],a[b,b,b],a[b,b,b]]"
            ))
            .unwrap()
        })
        .collect();

    // One engine over four slow sources, each behind a prefetcher.
    // Sequential (threads = 1) gives it no worker, which makes it a
    // pass-through; concurrent gives it one (the wire mutex serializes
    // exchanges per source anyway, so parallelism comes from the four
    // sources' workers overlapping, plus the warm-up pool).
    let build = |threads: usize| -> (Engine, Vec<Arc<AtomicU64>>, mix_buffer::OverlapGauge) {
        let mut reg = SourceRegistry::new();
        let mut wires = Vec::new();
        // One gauge shared by all four wrappers: its watermark is the
        // number of wire exchanges genuinely in flight *at once*.
        let wire_gauge = mix_buffer::OverlapGauge::new();
        for (i, tree) in trees.iter().enumerate() {
            let slow = SlowWrapper::new(
                TreeWrapper::single(tree, FillPolicy::NodeAtATime),
                Duration::from_millis(DELAY_MS),
            )
            .with_gauge(wire_gauge.clone());
            wires.push(slow.exchange_counter());
            let pre = ConcurrentPrefetcher::new(slow, usize::from(threads > 1));
            reg.add_buffer(format!("s{i}"), BufferNavigator::new(pre, "doc"));
        }
        let config = EngineConfig { threads, ..EngineConfig::default() };
        (Engine::with_config(plan_for(QUERY), &reg, config).unwrap(), wires, wire_gauge)
    };

    // Materialize the whole virtual answer, timing every navigation
    // command (`d`/`r`/`f`) individually for the latency distribution.
    fn walk(nav: &mut Engine, h: &VNode, lat: &mut Vec<f64>) -> Tree {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let label = nav.fetch(h);
        lat.push(ms(t));
        let mut children = Vec::new();
        let t = Instant::now();
        let mut cur = nav.down(h);
        lat.push(ms(t));
        while let Some(c) = cur {
            children.push(walk(nav, &c, lat));
            let t = Instant::now();
            cur = nav.right(&c);
            lat.push(ms(t));
        }
        Tree::node(label, children)
    }
    let percentile = |lat: &mut Vec<f64>, p: f64| -> f64 {
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        lat[((lat.len() as f64 * p).ceil() as usize).clamp(1, lat.len()) - 1]
    };

    struct Measured {
        answer: String,
        wall_ms: f64,
        p50_ms: f64,
        p99_ms: f64,
        commands: usize,
        exchanges: u64,
        overlap: u64,
    }
    let measure = |threads: usize| -> Measured {
        let mut best: Option<Measured> = None;
        for _ in 0..2 {
            let (mut engine, wires, wire_gauge) = build(threads);
            let mut lat = Vec::new();
            let start = Instant::now();
            let root = engine.root();
            let answer = walk(&mut engine, &root, &mut lat).to_string();
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let overlap = wire_gauge.max_overlap();
            // Dropping the engine joins every prefetch worker, so the
            // wire counters below are final.
            drop(engine);
            let m = Measured {
                answer,
                wall_ms,
                p50_ms: percentile(&mut lat, 0.50),
                p99_ms: percentile(&mut lat, 0.99),
                commands: lat.len(),
                exchanges: wires.iter().map(|w| w.load(Ordering::Relaxed)).sum(),
                overlap,
            };
            if best.as_ref().is_none_or(|b| m.wall_ms < b.wall_ms) {
                best = Some(m);
            }
        }
        best.expect("two runs completed")
    };

    let mut sweep = match threads_override {
        Some(t) => vec![1, t],
        None => vec![1, 2, 4, 8],
    };
    sweep.dedup();

    let t = TablePrinter::new(
        &["threads", "wall", "speedup", "p50", "p99", "commands", "wire exch", "overlap"],
        &[8, 10, 8, 9, 9, 9, 10, 8],
    );
    let mut series = Vec::new();
    let mut baseline: Option<(String, f64, u64)> = None;
    let mut speedup_at_4 = None;
    for &threads in &sweep {
        let m = measure(threads);
        let (base_answer, base_wall, base_exch) = baseline
            .get_or_insert_with(|| (m.answer.clone(), m.wall_ms, m.exchanges))
            .clone();
        assert_eq!(m.answer, base_answer, "answers must be identical at {threads} threads");
        // Full walk + fill-once: the concurrent run's speculation is
        // exactly the work the walk needs — no extra wire exchanges.
        assert_eq!(m.exchanges, base_exch, "no duplicated or wasted exchanges");
        if threads > 1 {
            assert!(
                m.overlap >= 2,
                "concurrent engine must overlap wire exchanges across sources (got {})",
                m.overlap
            );
        } else {
            assert_eq!(m.overlap, 1, "the sequential engine never overlaps exchanges");
        }
        let speedup = base_wall / m.wall_ms;
        if threads == 4 {
            speedup_at_4 = Some(speedup);
        }
        t.row(&[
            format!("{threads}"),
            format!("{:.1}ms", m.wall_ms),
            format!("{speedup:.2}x"),
            format!("{:.3}ms", m.p50_ms),
            format!("{:.3}ms", m.p99_ms),
            format!("{}", m.commands),
            format!("{}", m.exchanges),
            format!("{}", m.overlap),
        ]);
        series.push(Json::Obj(vec![
            ("threads".to_string(), Json::Int(threads as u64)),
            ("wall_ms".to_string(), Json::Num(m.wall_ms)),
            ("speedup_vs_sequential".to_string(), Json::Num(speedup)),
            ("p50_ms".to_string(), Json::Num(m.p50_ms)),
            ("p99_ms".to_string(), Json::Num(m.p99_ms)),
            ("commands".to_string(), Json::Int(m.commands as u64)),
            ("wire_exchanges".to_string(), Json::Int(m.exchanges)),
            ("max_exchange_overlap".to_string(), Json::Int(m.overlap)),
        ]));
    }
    let (_, base_wall, base_exch) = baseline.expect("sequential baseline ran");
    println!(
        "shape check: {N_SOURCES} sources x {DELAY_MS}ms per exchange, {base_exch} wire \
         exchanges either way; the sequential walk pays their sum (~{base_wall:.0}ms), the \
         concurrent engine overlaps sources and flattens near the per-source max once every \
         source has its own lane."
    );
    if std::env::var("MIX_BENCH_ENFORCE").as_deref() == Ok("1") {
        let s4 = speedup_at_4.expect("MIX_BENCH_ENFORCE requires the 4-thread point");
        assert!(
            s4 >= 2.0,
            "MIX_BENCH_ENFORCE: 4-thread speedup {s4:.2}x below the 2x gate"
        );
        println!("MIX_BENCH_ENFORCE: concurrent engine at 4 threads is {s4:.2}x — pass");
    }

    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E18")),
        (
            "workload".to_string(),
            Json::str(format!(
                "{N_SOURCES}-source root-binding view, {DELAY_MS}ms injected per-exchange \
                 latency, full materializing walk"
            )),
        ),
        ("sources".to_string(), Json::Int(N_SOURCES as u64)),
        ("delay_ms".to_string(), Json::Int(DELAY_MS)),
        ("series".to_string(), Json::Arr(series)),
        ("answers_identical".to_string(), Json::Bool(true)),
        ("exchanges_identical".to_string(), Json::Bool(true)),
    ])
    .write("BENCH_E18.json");
}

/// E19 — the session-multiplexed VXD server under an open-loop load:
/// N concurrent sessions (each its own virtual document) multiplexed
/// over a handful of connections, zipf-skewed across query templates,
/// all sharing one fragment cache. Reports sessions/sec, navigation
/// latency percentiles from the server's own histogram, and the warm
/// cache hit ratio — plus a deliberately-panicked session proving the
/// server contains the blast.
fn e19_served_sessions(threads_override: Option<usize>) {
    banner("E19", "session-multiplexed VXD serving under load");
    use mix_buffer::{FillPolicy, FragmentCache, MetricsRegistry, SampleValue};
    use mix_serve::{
        pipe, ClientError, ErrorCode, FetchOutcome, SessionSources, VxdClient, VxdServer,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    let env_num = |key: &str, default: usize| {
        std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let n_sessions = env_num("MIX_E19_SESSIONS", 1000).max(1);
    let navs_per_session = env_num("MIX_E19_NAVS", 12).max(1);
    // Driver connections: sessions are multiplexed, so a handful of
    // connections carries all N sessions.
    let workers = threads_override.unwrap_or_else(|| env_num("MIX_THREADS", 1).min(8)).max(1);

    // The shared half: three generated sources, one cache, one registry.
    let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
    pool.add_tree("homesSrc", &gen::homes_doc(7, 60, 8), FillPolicy::NodeAtATime);
    pool.add_tree("schoolsSrc", &gen::schools_doc(8, 40, 8), FillPolicy::NodeAtATime);
    pool.add_tree("src", &gen::filter_doc(120, 5), FillPolicy::NodeAtATime);
    let mut server = VxdServer::new(pool);

    // Query templates, most-popular first; sessions draw from a zipf
    // distribution over this list (skew ~1.1), modeling the few hot
    // views plus a long tail a real mediator serves.
    let templates: Vec<(&str, String)> = vec![
        ("homes", "CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H".into()),
        ("filter", FILTER_QUERY.to_string()),
        ("schools", "CONSTRUCT <sc> $S {$S} </sc> {} WHERE schoolsSrc schools.school $S".into()),
        ("zips", "CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home.zip._ $Z".into()),
        ("items", "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X".into()),
        ("fig3", FIG3_QUERY.to_string()),
    ];
    for (name, query) in &templates {
        server.add_template(*name, query).expect("template query parses");
    }
    server.add_panic_template("toxic", FILTER_QUERY).expect("toxic template parses");

    // Zipf CDF over template ranks (hand-rolled; no rand dependency on
    // the hot path, and deterministic across runs).
    let zipf_cdf: Vec<f64> = {
        let s = 1.1_f64;
        let weights: Vec<f64> =
            (0..templates.len()).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut cum = 0.0;
        weights
            .iter()
            .map(|w| {
                cum += w / total;
                cum
            })
            .collect()
    };
    let mix64 = |mut z: u64| -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pick_template = |seed: u64| -> usize {
        let u = mix64(seed) as f64 / u64::MAX as f64;
        zipf_cdf.iter().position(|&c| u <= c).unwrap_or(templates.len() - 1)
    };

    // Warm the shared cache: one quiet session per template. Everything
    // after this is the measured steady state, so the hit-ratio gate
    // measures *sharing*, not cold-start misses.
    {
        let (client_end, server_end) = pipe();
        let srv = server.clone();
        let conn = std::thread::spawn(move || srv.serve_connection(server_end));
        let mut client = VxdClient::new(client_end);
        for (name, _) in &templates {
            let s = client.open(name).unwrap();
            let mut cur = client.down(s.session, s.root).unwrap();
            let mut steps = 0;
            while let Some(n) = cur {
                let _ = client.fetch(s.session, n).unwrap();
                cur = client.down(s.session, n).unwrap().or(client.right(s.session, n).unwrap());
                steps += 1;
                if steps >= navs_per_session {
                    break;
                }
            }
            client.close(s.session).unwrap();
        }
        drop(client);
        conn.join().unwrap();
    }
    let warm_stats = server.cache().stats();
    let nav_count_before = nav_histogram_count(&server);

    // The measured load: open everything (the gauge proves N concurrent
    // sessions), navigate zipf-skewed, close everything.
    let degraded = AtomicU64::new(0);
    let barrier = Barrier::new(workers + 1);
    let mut peak_sessions = 0;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let quota = n_sessions / workers + usize::from(w < n_sessions % workers);
            let server = server.clone();
            let barrier = &barrier;
            let degraded = &degraded;
            let templates = &templates;
            let pick_template = &pick_template;
            scope.spawn(move || {
                let (client_end, server_end) = pipe();
                let conn = {
                    let srv = server.clone();
                    std::thread::spawn(move || srv.serve_connection(server_end))
                };
                let mut client = VxdClient::new(client_end);
                // Open phase: this connection's whole share, all live at
                // once. It holds every `workers`-th session of the run, and
                // a session's template and wander follow from its index in
                // the run, so the run is one set of sessions however many
                // connections carry it.
                let mut sessions = Vec::with_capacity(quota);
                for i in 0..quota {
                    let index = (w + i * workers) as u64;
                    let tpl = pick_template(index);
                    let open = client.open(templates[tpl].0).unwrap();
                    sessions.push((index, open));
                }
                barrier.wait(); // every session everywhere is open
                barrier.wait(); // main thread sampled the gauge
                // Navigation phase: a bounded depth-first wander per
                // session, checked fetches counting degraded answers.
                for (index, open) in &sessions {
                    let mut cur = open.root;
                    for step in 0..navs_per_session {
                        let choice = mix64(index << 16 | step as u64) % 3;
                        let next = match choice {
                            0 => client.down(open.session, cur).unwrap(),
                            1 => client.right(open.session, cur).unwrap(),
                            _ => {
                                match client.fetch_checked(open.session, cur).unwrap() {
                                    FetchOutcome::Degraded { .. } => {
                                        degraded.fetch_add(1, Ordering::Relaxed);
                                    }
                                    FetchOutcome::Complete(_) => {}
                                }
                                None
                            }
                        };
                        cur = next.unwrap_or(open.root);
                    }
                }
                // Close phase: release everything.
                for (_, open) in &sessions {
                    client.close(open.session).unwrap();
                }
                drop(client);
                conn.join().unwrap();
            });
        }
        barrier.wait();
        peak_sessions = server.session_count();
        barrier.wait();
    });
    let wall_s = start.elapsed().as_secs_f64();
    assert!(
        peak_sessions >= n_sessions,
        "all {n_sessions} sessions must be concurrently open (saw {peak_sessions})"
    );
    assert_eq!(server.session_count(), 0, "every session closed after the run");

    // Fault containment, live: a booby-trapped session panics its engine
    // mid-fetch; the server answers a typed Internal error, force-closes
    // it, and keeps serving new sessions on the same connection.
    let panic_survived = {
        let (client_end, server_end) = pipe();
        let srv = server.clone();
        let conn = std::thread::spawn(move || srv.serve_connection(server_end));
        let mut client = VxdClient::new(client_end);
        let bad = client.open("toxic").unwrap();
        let contained = matches!(
            client.fetch(bad.session, bad.root),
            Err(ClientError::Server { code: ErrorCode::Internal, .. })
        );
        let still_serving = client
            .open("homes")
            .map(|s| client.close(s.session).is_ok())
            .unwrap_or(false);
        drop(client);
        conn.join().unwrap();
        contained && still_serving
    };

    let end_stats = server.cache().stats();
    let run_hits = end_stats.hits - warm_stats.hits;
    let run_misses = end_stats.misses - warm_stats.misses;
    let warm_hit_ratio = run_hits as f64 / (run_hits + run_misses).max(1) as f64;
    let degraded = degraded.load(Ordering::Relaxed);
    let sessions_per_sec = n_sessions as f64 / wall_s;
    let nav_snapshot = nav_histogram(&server);
    let commands = nav_snapshot.count - nav_count_before;
    let (p50_ns, p95_ns, p99_ns, max_ns) = nav_snapshot.summary();

    let t = TablePrinter::new(
        &["sessions", "navs/sess", "conns", "wall", "sess/sec", "p50", "p99", "hit ratio"],
        &[9, 10, 6, 9, 10, 9, 9, 10],
    );
    t.row(&[
        format!("{n_sessions}"),
        format!("{navs_per_session}"),
        format!("{workers}"),
        format!("{:.2}s", wall_s),
        format!("{sessions_per_sec:.0}"),
        format!("{:.2}ms", p50_ns as f64 / 1e6),
        format!("{:.2}ms", p99_ns as f64 / 1e6),
        format!("{warm_hit_ratio:.3}"),
    ]);
    println!(
        "shape check: {peak_sessions} sessions concurrently open over {workers} multiplexed \
         connections; {commands} navigation verbs served; {degraded} degraded answers; \
         panicked session contained: {panic_survived}."
    );
    if std::env::var("MIX_BENCH_ENFORCE").as_deref() == Ok("1") {
        assert_eq!(degraded, 0, "MIX_BENCH_ENFORCE: degraded answers under healthy sources");
        assert!(
            warm_hit_ratio >= 0.9,
            "MIX_BENCH_ENFORCE: warm-session cache hit ratio {warm_hit_ratio:.3} below 0.9"
        );
        assert!(panic_survived, "MIX_BENCH_ENFORCE: a panicked session must be contained");
        println!(
            "MIX_BENCH_ENFORCE: zero degraded, warm hit ratio {warm_hit_ratio:.3}, \
             panic contained — pass"
        );
    }

    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E19")),
        (
            "workload".to_string(),
            Json::str(format!(
                "{n_sessions} sessions x {navs_per_session} navigations, zipf-skewed over \
                 {} templates, {workers} multiplexed connections",
                templates.len()
            )),
        ),
        ("sessions".to_string(), Json::Int(n_sessions as u64)),
        ("navs_per_session".to_string(), Json::Int(navs_per_session as u64)),
        ("connections".to_string(), Json::Int(workers as u64)),
        ("peak_concurrent_sessions".to_string(), Json::Int(peak_sessions as u64)),
        ("wall_s".to_string(), Json::Num(wall_s)),
        ("sessions_per_sec".to_string(), Json::Num(sessions_per_sec)),
        ("nav_commands".to_string(), Json::Int(commands)),
        ("nav_p50_ns".to_string(), Json::Int(p50_ns)),
        ("nav_p95_ns".to_string(), Json::Int(p95_ns)),
        ("nav_p99_ns".to_string(), Json::Int(p99_ns)),
        ("nav_max_ns".to_string(), Json::Int(max_ns)),
        ("cache_hits".to_string(), Json::Int(run_hits)),
        ("cache_misses".to_string(), Json::Int(run_misses)),
        ("warm_hit_ratio".to_string(), Json::Num(warm_hit_ratio)),
        ("degraded_answers".to_string(), Json::Int(degraded)),
        ("panic_contained".to_string(), Json::Bool(panic_survived)),
    ])
    .write("BENCH_E19.json");

    fn nav_histogram(server: &VxdServer) -> mix_buffer::HistogramSnapshot {
        // The latency family is split by verb label; fold every series
        // back into one distribution for the connection-level percentiles.
        let mut agg: Option<mix_buffer::HistogramSnapshot> = None;
        for s in server.metrics().snapshot().samples {
            if s.name != "mix_serve_nav_latency_ns" {
                continue;
            }
            if let SampleValue::Histogram(h) = s.value {
                match &mut agg {
                    Some(a) => a.merge(&h),
                    None => agg = Some(h),
                }
            }
        }
        agg.expect("the server registers its per-verb latency histograms")
    }

    fn nav_histogram_count(server: &VxdServer) -> u64 {
        nav_histogram(server).count
    }
}

/// E20 — the wire-spanning flight recorder under injected faults: traced
/// sessions run E19's zipf-skewed load against sources wrapped in fault
/// injectors, and at every fault rate (a) the merged client+server trace
/// reconciles *exactly* with the wire (`#wire-request == #wire-span ==
/// frames sent`, per session), (b) every degraded served answer is
/// pinpointed — its serving span is wire-linked in the merged cascade and
/// the cascade records the source-level degradation that caused it — and
/// (c) the live scrape plane's `/metrics` round-trips through the strict
/// in-tree PromText parser over real HTTP.
fn e20_observability() {
    banner("E20", "flight recorder + scrape plane under injected faults");
    use mix_buffer::{
        FaultConfig, FaultyWrapper, FillPolicy, FragmentCache, MetricsRegistry, TreeWrapper,
    };
    use mix_core::{PromText, TraceLog, TraceSink};
    use mix_serve::{pipe, FetchOutcome, SessionSources, VxdClient, VxdServer};
    use std::io::{Read, Write};
    use std::sync::Arc;

    let env_num = |key: &str, default: usize| {
        std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let n_sessions = env_num("MIX_E20_SESSIONS", 48).max(1);
    let navs_per_session = env_num("MIX_E20_NAVS", 12).max(1);

    let templates: Vec<(&str, String)> = vec![
        ("homes", "CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H".into()),
        ("zips", "CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home.zip._ $Z".into()),
        ("items", "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X".into()),
    ];
    // E19's zipf skew over the template ranks, and the same SplitMix64
    // walk driver — deterministic across runs.
    let zipf_cdf: Vec<f64> = {
        let s = 1.1_f64;
        let weights: Vec<f64> =
            (0..templates.len()).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut cum = 0.0;
        weights.iter().map(|w| { cum += w / total; cum }).collect()
    };
    let mix64 = |mut z: u64| -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pick_template = |seed: u64| -> usize {
        let u = mix64(seed) as f64 / u64::MAX as f64;
        zipf_cdf.iter().position(|&c| u <= c).unwrap_or(templates.len() - 1)
    };

    // One curl-shaped GET against the scrape plane.
    let http_get = |addr: std::net::SocketAddr, path: &str| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: e20\r\nConnection: close\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    };

    let rates = [0.0_f64, 0.3, 0.65, 0.8];
    let t = TablePrinter::new(
        &["fault rate", "sessions", "frames", "reconciled", "degraded", "pinpointed", "in-span", "healthz"],
        &[10, 9, 8, 10, 9, 10, 8, 8],
    );
    let mut series = Vec::new();
    let mut all_reconciled = true;
    let mut all_pinpointed = true;
    let mut scrapes_parse = true;
    let mut degraded_at_zero = 0u64;
    let mut degraded_at_max = 0u64;

    for (ri, &rate) in rates.iter().enumerate() {
        // Fresh pool per rate: every source behind a transient-fault
        // injector seeded per (source, rate) — the run is reproducible.
        let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
        for (si, (name, tree)) in [
            ("homesSrc", gen::homes_doc(7, 24, 6)),
            ("src", gen::filter_doc(48, 4)),
        ]
        .into_iter()
        .enumerate()
        {
            let mut inner = TreeWrapper::new(FillPolicy::NodeAtATime);
            inner.add(name, Arc::new(mix_xml::Document::from_tree(&tree)));
            let config = FaultConfig::transient((si as u64 + 1) * 101 + ri as u64, rate);
            pool.add_wrapper(name, FaultyWrapper::new(inner, config));
        }
        let mut server = VxdServer::new(pool);
        for (name, query) in &templates {
            server.add_template(*name, query).expect("template query parses");
        }
        // Threshold 0: the slow log records every navigation, each entry
        // carrying the span ids `why` explains.
        server.set_slow_nav_threshold(0);

        let mut frames_total = 0u64;
        let mut degraded_total = 0u64;
        let mut pinpointed = 0u64;
        let mut in_span = 0u64; // degradations recorded inside the serving span itself
        let mut open_failures = 0u64;
        let mut reconciled = true;

        for s in 0..n_sessions {
            // One traced client per session, so each merge is a clean
            // client↔server pair.
            let (client_end, server_end) = pipe();
            let srv = server.clone();
            let conn = std::thread::spawn(move || srv.serve_connection(server_end));
            let mut client = VxdClient::new(client_end).with_trace(TraceSink::enabled(65_536));
            let sink = client.trace_sink();
            let tpl = pick_template((ri as u64) << 32 | s as u64);
            let open = match client.open(templates[tpl].0) {
                Ok(open) => open,
                Err(_) => {
                    // The injector killed the engine's warm-up — a typed
                    // error, not a measurement.
                    open_failures += 1;
                    drop(client);
                    conn.join().unwrap();
                    continue;
                }
            };
            // The open answered `d(root)`: a source that degraded there
            // is named in its reply, and its span is the open's.
            let mut degraded_spans: Vec<u64> = Vec::new();
            if !open.degraded.is_empty() {
                degraded_spans.push(sink.current_span());
            }
            let mut cur = open.root;
            for step in 0..navs_per_session {
                let choice = mix64((ri as u64) << 48 | (s as u64) << 16 | step as u64) % 3;
                let next = match choice {
                    0 => client.down(open.session, cur).unwrap(),
                    1 => client.right(open.session, cur).unwrap(),
                    _ => {
                        match client.fetch_checked(open.session, cur).unwrap() {
                            FetchOutcome::Degraded { .. } => {
                                degraded_spans.push(sink.current_span());
                            }
                            FetchOutcome::Complete(_) => {}
                        }
                        None
                    }
                };
                cur = next.unwrap_or(open.root);
            }
            client.close(open.session).unwrap();
            drop(client);
            conn.join().unwrap();

            // The merge: the server retains the closed session's ring;
            // stitch it onto the client's and reconcile with the wire.
            let server_log =
                server.session_trace(open.session).expect("closed traced ring retained");
            let client_log = TraceLog::from_sink(&sink);
            let frames = client_log.spans().len() as u64; // open + navs + close
            let merged = TraceLog::merge_remote(&client_log, &server_log);
            let rollup = merged.rollup();
            reconciled &= rollup.wire_requests == frames && rollup.wire_spans == frames;
            frames_total += frames;

            let rows = merged.span_stats();
            for span in &degraded_spans {
                let linked = rows
                    .iter()
                    .any(|row| row.span == *span && row.serves_client_span == Some(*span));
                let direct = rows
                    .iter()
                    .any(|row| row.span == *span && row.degradations >= 1);
                // Pinpointed: the serving span is wire-linked in the
                // merged cascade AND the cascade records the degradation
                // that caused the answer (in the serving span itself when
                // the fill failed under this fetch, earlier in the
                // session's cascade when the region was already marked).
                if linked && rollup.degradations >= 1 {
                    pinpointed += 1;
                }
                if direct {
                    in_span += 1;
                }
            }
            degraded_total += degraded_spans.len() as u64;
        }

        // The live scrape, over real HTTP, while the fault counters are
        // hot: strict parse or the experiment fails.
        let http = server.serve_http("127.0.0.1:0").unwrap();
        let (m_status, m_body) = http_get(http.local_addr(), "/metrics");
        let parse_ok = m_status == 200 && PromText::parse(&m_body).is_ok();
        let (h_status, _) = http_get(http.local_addr(), "/healthz");
        let (s_status, s_body) = http_get(http.local_addr(), "/slow");
        let slow_entries = s_body.lines().count().saturating_sub(1) as u64;
        http.shutdown();

        all_reconciled &= reconciled;
        all_pinpointed &= pinpointed == degraded_total;
        scrapes_parse &= parse_ok && s_status == 200;
        if rate == 0.0 {
            degraded_at_zero = degraded_total;
        }
        if ri == rates.len() - 1 {
            degraded_at_max = degraded_total;
        }

        t.row(&[
            format!("{rate:.2}"),
            format!("{}", n_sessions as u64 - open_failures),
            format!("{frames_total}"),
            format!("{reconciled}"),
            format!("{degraded_total}"),
            format!("{pinpointed}"),
            format!("{in_span}"),
            format!("{h_status}"),
        ]);
        series.push(Json::Obj(vec![
            ("fault_rate".to_string(), Json::Num(rate)),
            ("sessions".to_string(), Json::Int(n_sessions as u64 - open_failures)),
            ("open_failures".to_string(), Json::Int(open_failures)),
            ("wire_frames".to_string(), Json::Int(frames_total)),
            ("wire_reconciled".to_string(), Json::Bool(reconciled)),
            ("degraded_answers".to_string(), Json::Int(degraded_total)),
            ("pinpointed".to_string(), Json::Int(pinpointed)),
            ("degraded_in_serving_span".to_string(), Json::Int(in_span)),
            ("slow_log_entries".to_string(), Json::Int(slow_entries)),
            ("metrics_scrape_parses".to_string(), Json::Bool(parse_ok)),
            ("healthz_status".to_string(), Json::Int(h_status as u64)),
        ]));
    }

    println!(
        "shape check: merged client+server traces reconcile with the wire at every fault \
         rate ({all_reconciled}); every degraded answer pinpointed to a wire-linked merged \
         span ({all_pinpointed}); /metrics parses strictly over real HTTP ({scrapes_parse})."
    );
    if std::env::var("MIX_BENCH_ENFORCE").as_deref() == Ok("1") {
        assert!(all_reconciled, "MIX_BENCH_ENFORCE: merged rollup must reconcile with the wire");
        assert!(all_pinpointed, "MIX_BENCH_ENFORCE: every degraded answer must be pinpointed");
        assert!(scrapes_parse, "MIX_BENCH_ENFORCE: /metrics must parse under strict PromText");
        assert_eq!(
            degraded_at_zero, 0,
            "MIX_BENCH_ENFORCE: no degraded answers under healthy sources"
        );
        assert!(
            degraded_at_max > 0,
            "MIX_BENCH_ENFORCE: the top fault rate must actually degrade answers"
        );
        println!(
            "MIX_BENCH_ENFORCE: wire reconciled, {degraded_at_max} degraded answers all \
             pinpointed at the top rate, strict scrape — pass"
        );
    }

    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E20")),
        (
            "workload".to_string(),
            Json::str(format!(
                "{n_sessions} traced sessions x {navs_per_session} navigations, zipf-skewed \
                 over {} templates, transient fault injection swept over {:?}",
                templates.len(),
                rates
            )),
        ),
        ("sessions".to_string(), Json::Int(n_sessions as u64)),
        ("navs_per_session".to_string(), Json::Int(navs_per_session as u64)),
        ("series".to_string(), Json::Arr(series)),
        ("wire_reconciled".to_string(), Json::Bool(all_reconciled)),
        ("all_degraded_pinpointed".to_string(), Json::Bool(all_pinpointed)),
        ("scrape_parses_strictly".to_string(), Json::Bool(scrapes_parse)),
    ])
    .write("BENCH_E20.json");
}

/// E1 — Figures 3 & 4: parse, translate, evaluate, check lazy ≡ eager.
fn e1_running_example() {
    banner("E1", "running example (Figures 3 & 4)");
    let plan = plan_for(FIG3_QUERY);
    println!("plan:\n{plan}");
    let reg = || {
        let mut r = SourceRegistry::new();
        r.add_term(
            "homesSrc",
            "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]]]",
        );
        r.add_term(
            "schoolsSrc",
            "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],\
             school[dir[Hart],zip[91223]]]",
        );
        r
    };
    let eager_answer = eager::eval(&plan, &reg()).unwrap();
    let mut engine = Engine::new(plan.clone(), &reg()).unwrap();
    let lazy_answer = materialize(&mut engine);
    println!("answer: {lazy_answer}");
    println!(
        "lazy ≡ eager: {} | source navigations (lazy, full): {}",
        lazy_answer == eager_answer,
        engine.stats().total()
    );
}

/// E2 — §1 claim: demand-driven evaluation avoids materializing broad
/// query answers. Work-to-first-k vs full materialization across source
/// sizes.
fn e2_lazy_vs_eager() {
    banner("E2", "lazy vs eager: work to first-k results");
    // (a) A collection view — truly lazy member delivery: first-k cost is
    // flat in N while the full cost grows linearly.
    let collect = plan_for("CONSTRUCT <all> $H {$H} </all> {} WHERE homesSrc homes.home $H");
    println!("collection view (groupBy with trivial key):");
    let t = TablePrinter::new(
        &["N homes", "k=1 navs", "k=10 navs", "full navs", "k=1 time", "full time"],
        &[10, 10, 10, 10, 10, 10],
    );
    for n in [100usize, 1_000, 10_000, 100_000] {
        let mk = || {
            let mut r = SourceRegistry::new();
            r.add_tree("homesSrc", &gen::homes_doc(1, n, n));
            r
        };
        let k1 = lazy_first_k_cost(&collect, &mk(), 1, EngineConfig::default());
        let k10 = lazy_first_k_cost(&collect, &mk(), 10, EngineConfig::default());
        let reg = mk();
        let start = Instant::now();
        let _ = lazy_first_k(&collect, &reg, 1, EngineConfig::default());
        let t_first = start.elapsed();
        let reg = mk();
        let start = Instant::now();
        let full = lazy_full_cost(&collect, &reg, EngineConfig::default());
        let t_full = start.elapsed();
        t.row(&[
            format!("{n}"),
            format!("{k1}"),
            format!("{k10}"),
            format!("{full}"),
            format!("{t_first:.1?}"),
            format!("{t_full:.1?}"),
        ]);
    }

    // (b) Figure 3's med_home view groups by $H: even the first complete
    // med_home needs a full input pass (its school list must be complete),
    // so first-k and full are both ~linear — exactly what Def. 2's
    // "browsable but unbounded" predicts for grouping views.
    println!("\nFigure 3 view (groupBy by $H — unbounded browsable):");
    let plan = plan_for(FIG3_QUERY);
    let cfg = EngineConfig::default();
    let t = TablePrinter::new(
        &["N (homes=schools)", "k=1 navs", "full navs", "k=1 time", "full time"],
        &[18, 12, 12, 10, 10],
    );
    for n in [100usize, 1_000, 10_000] {
        let zips = n;
        let k1 = lazy_first_k_cost(&plan, &homes_schools_registry(1, n, zips), 1, cfg);
        let reg = homes_schools_registry(1, n, zips);
        let start = Instant::now();
        let _ = lazy_first_k(&plan, &reg, 1, cfg);
        let t_first = start.elapsed();
        let reg = homes_schools_registry(1, n, zips);
        let start = Instant::now();
        let full = lazy_full_cost(&plan, &reg, cfg);
        let t_full = start.elapsed();
        t.row(&[
            format!("{n}"),
            format!("{k1}"),
            format!("{full}"),
            format!("{t_first:.1?}"),
            format!("{t_full:.1?}"),
        ]);
    }
    println!(
        "shape check: collection views serve first results in O(k); grouping views \
         pay one full input pass (linear, not quadratic) before the first group closes."
    );
}

/// E3 — Example 1 / Def. 2: navigation counts per browsability class.
fn e3_browsability() {
    banner("E3", "browsability classes (Example 1)");
    let plan = plan_for(FILTER_QUERY);
    let class = classify(&plan, NcCapabilities::minimal()).overall;
    let t = TablePrinter::new(
        &["view", "class", "first navs", "full navs"],
        &[26, 20, 10, 10],
    );
    // Filter view across match gaps (data dependence = unbounded).
    for gap in [1usize, 10, 100] {
        let f = lazy_first_k_cost(&plan, &filter_registry(1_000, gap), 1, EngineConfig::default());
        let a = lazy_full_cost(&plan, &filter_registry(1_000, gap), EngineConfig::default());
        t.row(&[
            format!("filter, gap {gap}"),
            class.to_string(),
            format!("{f}"),
            format!("{a}"),
        ]);
    }
    println!("shape check: first-result cost tracks the match gap (data-dependent).");
}

/// E4 — §2 note: adding select_φ to NC makes the filter view bounded.
fn e4_select_extension() {
    banner("E4", "select_φ turns the filter view bounded");
    let plan = plan_for(FILTER_QUERY);
    let t = TablePrinter::new(
        &["gap", "minimal NC first navs", "NC + select first navs"],
        &[6, 22, 22],
    );
    for gap in [1usize, 10, 100] {
        let minimal =
            lazy_first_k_cost(&plan, &filter_registry(1_000, gap), 1, EngineConfig::default());
        let with_sel = lazy_first_k_cost(
            &plan,
            &filter_registry(1_000, gap),
            1,
            EngineConfig::with_select(),
        );
        t.row(&[format!("{gap}"), format!("{minimal}"), format!("{with_sel}")]);
    }
    println!("shape check: the select column is flat; the minimal column scales with the gap.");
}

/// E5 — §4 granularity: fill requests & wire cost vs tuple chunk size.
fn e5_granularity() {
    banner("E5", "relational wrapper granularity (Ex. 5 / Fig. 6)");
    let rows = 10_000;
    let t = TablePrinter::new(
        &["chunk n", "fills", "nodes", "bytes", "sim cost", "wall", "fills for 10 rows"],
        &[8, 10, 10, 12, 12, 10, 18],
    );
    let mut series = Vec::new();
    for chunk in [1usize, 10, 100, 1000] {
        // Full scan.
        let db = gen::homes_database(3, rows, 100);
        let buffered = BufferNavigator::new(RelationalWrapper::new(db, chunk), "realestate");
        let stats = buffered.stats();
        let mut nav = buffered;
        let start = Instant::now();
        materialize(&mut nav);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let full = stats.snapshot();
        let cost = simulated_cost(full.requests, full.bytes_received);

        // Partial: first 10 rows only.
        let db = gen::homes_database(3, rows, 100);
        let buffered = BufferNavigator::new(RelationalWrapper::new(db, chunk), "realestate");
        let pstats = buffered.stats();
        let mut nav = buffered;
        use mix_nav::Navigator;
        let root = nav.root();
        let table = nav.down(&root).unwrap();
        let mut cur = nav.down(&table);
        for _ in 0..9 {
            cur = cur.and_then(|c| nav.right(&c));
        }
        let partial = pstats.snapshot();

        t.row(&[
            format!("{chunk}"),
            format!("{}", full.fills),
            format!("{}", full.nodes_received),
            format!("{}", full.bytes_received),
            format!("{cost}"),
            format!("{wall_ms:.1}ms"),
            format!("{}", partial.fills),
        ]);
        series.push(Json::Obj(vec![
            ("chunk".to_string(), Json::Int(chunk as u64)),
            ("fills".to_string(), Json::Int(full.fills)),
            ("requests".to_string(), Json::Int(full.requests)),
            ("nodes".to_string(), Json::Int(full.nodes_received)),
            ("bytes".to_string(), Json::Int(full.bytes_received)),
            ("simulated_cost".to_string(), Json::Int(cost)),
            ("wall_ms".to_string(), Json::Num(wall_ms)),
            ("fills_first_10_rows".to_string(), Json::Int(partial.fills)),
        ]));
    }
    println!(
        "shape check: fills drop ~n-fold with chunk size; partial scans pull only \
         the chunks navigated."
    );
    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E5")),
        ("workload".to_string(), Json::str("relational full scan, homes database")),
        ("rows".to_string(), Json::Int(rows as u64)),
        ("request_overhead".to_string(), Json::Int(REQUEST_OVERHEAD)),
        ("per_byte_cost".to_string(), Json::Int(PER_BYTE)),
        ("series".to_string(), Json::Arr(series)),
    ])
    .write("BENCH_E5.json");
}

/// E14 — batched multi-hole fills (`fill_many`): the sequential-scan
/// workload of E5 at chunk n = 10, re-run with the buffer coalescing
/// known holes into one wire exchange and the wrapper streaming
/// continuation chunks ("push from below"). The cost model charges a
/// fixed overhead per exchange plus a per-byte term, so the request
/// amortization is directly visible as simulated cost.
fn e14_batched_fills() {
    banner("E14", "batched multi-hole fills vs one hole per round trip");
    use mix_buffer::BufferStatsSnapshot;

    let rows = 10_000;
    let chunk = 10;
    // (mode label, batch limit & wrapper budget, adaptive chunking)
    type BatchConfig = (&'static str, Option<(usize, usize)>, bool);
    let configs: [BatchConfig; 4] = [
        ("unbatched", None, false),
        ("batched x4", Some((4, 4)), false),
        ("batched x16", Some((16, 16)), false),
        ("batched x16 + adaptive", Some((16, 16)), true),
    ];

    // Three timed runs per mode, min wall (the least-noise estimator on a
    // shared machine) plus the allocation count of the measured region —
    // the wall regression this experiment pins was an allocation storm,
    // so both numbers are recorded.
    let scan = |batch: Option<(usize, usize)>,
                adaptive: bool|
     -> (String, BufferStatsSnapshot, f64, u64) {
        let mut best_wall = f64::INFINITY;
        let mut out = None;
        for _ in 0..3 {
            let db = gen::homes_database(3, rows, 100);
            let mut w = RelationalWrapper::new(db, chunk);
            if adaptive {
                w = w.adaptive();
            }
            if let Some((_, budget)) = batch {
                w = w.with_batch_budget(budget);
            }
            let mut nav = BufferNavigator::new(w, "realestate");
            if let Some((limit, _)) = batch {
                nav = nav.batched(limit);
            }
            let stats = nav.stats();
            let start = Instant::now();
            let (answer, allocs) =
                countalloc::count_allocations(|| materialize(&mut nav).to_string());
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            best_wall = best_wall.min(wall_ms);
            out = Some((answer, stats.snapshot(), allocs.allocations));
        }
        let (answer, snap, allocations) = out.expect("three runs completed");
        (answer, snap, best_wall, allocations)
    };

    let t = TablePrinter::new(
        &[
            "mode", "wire reqs", "holes/req", "fills", "bytes", "sim cost", "wall",
            "allocs/fill", "identical",
        ],
        &[22, 10, 10, 8, 12, 12, 10, 12, 10],
    );
    let mut baseline: Option<(String, u64, u64)> = None;
    let mut walls: Vec<(&str, f64)> = Vec::new();
    let mut series = Vec::new();
    for (name, batch, adaptive) in configs {
        let (answer, snap, wall_ms, allocations) = scan(batch, adaptive);
        let cost = simulated_cost(snap.requests, snap.bytes_received);
        let allocs_per_fill = allocations as f64 / snap.fills.max(1) as f64;
        let identical = match &baseline {
            None => {
                baseline = Some((answer, snap.requests, cost));
                true
            }
            Some((base, _, _)) => answer == *base,
        };
        assert!(identical, "batched scan must produce the unbatched answer ({name})");
        walls.push((name, wall_ms));
        t.row(&[
            name.to_string(),
            format!("{}", snap.requests),
            format!("{:.1}", snap.holes_per_request()),
            format!("{}", snap.fills),
            format!("{}", snap.bytes_received),
            format!("{cost}"),
            format!("{wall_ms:.1}ms"),
            format!("{allocs_per_fill:.0}"),
            format!("{identical}"),
        ]);
        series.push(Json::Obj(vec![
            ("mode".to_string(), Json::str(name)),
            ("requests".to_string(), Json::Int(snap.requests)),
            ("holes_per_request".to_string(), Json::Num(snap.holes_per_request())),
            ("fills".to_string(), Json::Int(snap.fills)),
            ("batched_holes".to_string(), Json::Int(snap.batched_holes)),
            ("bytes".to_string(), Json::Int(snap.bytes_received)),
            ("simulated_cost".to_string(), Json::Int(cost)),
            ("wall_ms".to_string(), Json::Num(wall_ms)),
            ("allocations".to_string(), Json::Int(allocations)),
            ("allocations_per_fill".to_string(), Json::Num(allocs_per_fill)),
            ("identical_answer".to_string(), Json::Bool(identical)),
        ]));
    }
    let (_, base_requests, base_cost) = baseline.expect("unbatched baseline ran");
    // The regression this PR fixed: batched modes used to *lose* wall
    // clock to per-exchange tree walks and fragment deep-copies (58.7ms
    // at x4 vs 16.3ms unbatched). Batching must not cost wall time.
    let unbatched_wall = walls[0].1;
    for &(name, wall) in &walls[1..] {
        let ratio = wall / unbatched_wall;
        println!("wall check: {name} = {wall:.1}ms vs unbatched {unbatched_wall:.1}ms ({ratio:.2}x)");
    }
    let x4_wall = walls[1].1;
    if std::env::var("MIX_BENCH_ENFORCE").as_deref() == Ok("1") {
        assert!(
            x4_wall <= unbatched_wall * 1.10,
            "MIX_BENCH_ENFORCE: batched x4 wall {x4_wall:.1}ms exceeds \
             unbatched {unbatched_wall:.1}ms * 1.10"
        );
        println!("MIX_BENCH_ENFORCE: batched x4 within 1.10x of unbatched — pass");
    }
    let (_, best, _, _) = scan(Some((16, 16)), false);
    let reduction = base_requests as f64 / best.requests.max(1) as f64;
    let best_cost = simulated_cost(best.requests, best.bytes_received);
    assert!(
        reduction >= 5.0,
        "acceptance: batching must cut wire requests >= 5x, got {reduction:.1}x"
    );
    assert!(best_cost < base_cost, "batching must reduce total simulated cost");
    println!(
        "shape check: identical answers in every mode; batched exchanges cut wire \
         requests {reduction:.1}x at chunk n={chunk} (simulated cost {base_cost} -> {best_cost})."
    );

    // The web wrapper's native batching: several page fragments per
    // simulated network exchange, one request charge each.
    use mix_buffer::FillPolicy;
    use mix_wrappers::{Network, WebWrapper};
    let page = gen::bookstore_doc(5, "store", 500);
    let web = |budget: usize| {
        let net = Network::new(REQUEST_OVERHEAD, PER_BYTE);
        let mut w = WebWrapper::with_policy(net.clone(), FillPolicy::Chunked { n: 10 });
        if budget > 0 {
            w = w.with_batch_budget(budget);
        }
        w.add_page("store", &page);
        let mut nav = BufferNavigator::new(w, "store");
        if budget > 0 {
            nav = nav.batched(8);
        }
        let answer = materialize(&mut nav).to_string();
        (answer, net.stats())
    };
    let (plain_answer, plain_net) = web(0);
    let (batched_answer, batched_net) = web(8);
    assert_eq!(plain_answer, batched_answer, "web batching preserves the page scan");
    println!(
        "web wrapper (bookstore, chunked n=10): {} -> {} network requests, \
         simulated cost {} -> {}",
        plain_net.requests, batched_net.requests, plain_net.simulated_cost,
        batched_net.simulated_cost
    );

    Json::Obj(vec![
        ("experiment".to_string(), Json::str("E14")),
        (
            "workload".to_string(),
            Json::str("relational sequential scan, homes database, chunk n=10"),
        ),
        ("rows".to_string(), Json::Int(rows as u64)),
        ("chunk".to_string(), Json::Int(chunk as u64)),
        ("request_overhead".to_string(), Json::Int(REQUEST_OVERHEAD)),
        ("per_byte_cost".to_string(), Json::Int(PER_BYTE)),
        ("series".to_string(), Json::Arr(series)),
        ("request_reduction_x16".to_string(), Json::Num(reduction)),
        (
            "web".to_string(),
            Json::Obj(vec![
                ("requests_unbatched".to_string(), Json::Int(plain_net.requests)),
                ("requests_batched".to_string(), Json::Int(batched_net.requests)),
                ("cost_unbatched".to_string(), Json::Int(plain_net.simulated_cost)),
                ("cost_batched".to_string(), Json::Int(batched_net.simulated_cost)),
            ]),
        ),
    ])
    .write("BENCH_E14.json");
}

/// E6 — Example 7: strict vs liberal protocol shapes.
fn e6_liberal_lxp() {
    banner("E6", "fill policies: strict chunked vs streaming (liberal LXP)");
    use mix_buffer::{FillPolicy, TreeWrapper};
    let page = gen::bookstore_doc(5, "store", 500);
    let t = TablePrinter::new(
        &["policy", "fills (3 books)", "nodes (3 books)", "fills (all)", "nodes (all)"],
        &[28, 16, 16, 12, 12],
    );
    for (name, policy) in [
        ("node-at-a-time", FillPolicy::NodeAtATime),
        ("chunked n=25", FillPolicy::Chunked { n: 25 }),
        ("size-threshold 20", FillPolicy::SizeThreshold { max_nodes: 20 }),
        ("whole-subtree", FillPolicy::WholeSubtree),
    ] {
        // First three books.
        let mut nav = BufferNavigator::new(TreeWrapper::single(&page, policy), "doc");
        let stats = nav.stats();
        let _ = first_k_children(&mut nav, 3);
        let p = stats.snapshot();
        // Everything.
        let mut nav2 = BufferNavigator::new(TreeWrapper::single(&page, policy), "doc");
        let stats2 = nav2.stats();
        materialize(&mut nav2);
        let f = stats2.snapshot();
        t.row(&[
            name.to_string(),
            format!("{}", p.fills),
            format!("{}", p.nodes_received),
            format!("{}", f.fills),
            format!("{}", f.nodes_received),
        ]);
    }
    println!(
        "shape check: early results need few fills under streaming policies; \
         node-at-a-time pays one round trip per node."
    );
}

/// E7 — Figures 9 & 10: per-operator navigation amplification.
fn e7_operator_costs() {
    banner("E7", "operator navigation amplification (Figs. 9 & 10)");
    let n = 1_000;
    let t = TablePrinter::new(
        &["query (dominant operator)", "answer nodes", "source navs", "navs/node"],
        &[34, 12, 12, 10],
    );
    let cases = [
        (
            "createElement/concatenate",
            "CONSTRUCT <out> $X {$X} </out> {} WHERE src items._ $X",
        ),
        ("getDescendants (filter)", FILTER_QUERY),
        (
            "groupBy (collect by label)",
            "CONSTRUCT <out> <g> $X {$X} </g> {} </out> {} WHERE src items.wanted $X",
        ),
    ];
    for (name, q) in cases {
        let plan = plan_for(q);
        let reg = filter_registry(n, 2);
        let mut engine = Engine::new(plan, &reg).unwrap();
        let tree = materialize(&mut engine);
        let navs = engine.stats().total().total();
        let nodes = tree.size() as u64;
        t.row(&[
            name.to_string(),
            format!("{nodes}"),
            format!("{navs}"),
            format!("{:.2}", navs as f64 / nodes as f64),
        ]);
    }
    println!("shape check: structural operators amplify by a small constant factor.");
}

/// E8 — §3 caching remarks: join inner cache & groupBy G_prev ablation.
fn e8_cache_ablation() {
    banner("E8", "operator caches on/off (§3)");
    let plan = plan_for(FIG3_QUERY);
    let t = TablePrinter::new(
        &["configuration", "source navs (full)", "vs both-on"],
        &[26, 18, 10],
    );
    let n = 60;
    let mut baseline = 0u64;
    for (name, join_cache, group_cache) in [
        ("join+group caches on", true, true),
        ("join cache off", false, true),
        ("group cache off", true, false),
        ("both off", false, false),
    ] {
        let config = EngineConfig { join_cache, group_cache, ..EngineConfig::default() };
        let cost = lazy_full_cost(&plan, &homes_schools_registry(2, n, 10), config);
        if baseline == 0 {
            baseline = cost;
        }
        t.row(&[
            name.to_string(),
            format!("{cost}"),
            format!("{:.1}x", cost as f64 / baseline as f64),
        ]);
    }
    println!("shape check: disabling either cache multiplies source navigations.");
}

/// E9 — §3 rewriting phase: initial vs rewritten plan.
fn e9_rewriting() {
    banner("E9", "query rewriting for navigational efficiency");
    // A query whose literal filter sits above a join in the initial plan:
    // translation attaches the select to the homes branch *after* the
    // join condition merged the branches, so pushdown helps.
    let q = r#"
        CONSTRUCT <out> <m> $H $S {$S} </m> {$H} </out> {}
        WHERE homesSrc homes.home $H AND $H zip._ $V1
          AND schoolsSrc schools.school $S AND $S zip._ $V2
          AND $V1 = $V2 AND $H price._ $P AND $P < 400000
    "#;
    let initial = plan_for(q);
    let mut rewritten = initial.clone();
    let stats = rewrite(&mut rewritten, NcCapabilities::minimal());
    println!(
        "rewrites applied: {} select pushdowns, {} getDescendants pushdowns, \
         {} cross→join, {} join swaps",
        stats.select_pushdowns, stats.gd_pushdowns, stats.cross_to_join, stats.join_swaps
    );
    let t = TablePrinter::new(&["plan", "first navs", "full navs"], &[12, 12, 12]);
    for (name, plan) in [("initial", &initial), ("rewritten", &rewritten)] {
        let f = lazy_first_k_cost(plan, &homes_schools_registry(4, 500, 50), 1,
            EngineConfig::default());
        let a = lazy_full_cost(plan, &homes_schools_registry(4, 500, 50),
            EngineConfig::default());
        t.row(&[name.to_string(), format!("{f}"), format!("{a}")]);
    }
    println!("shape check: the rewritten plan needs no more (typically fewer) navigations.");
}
