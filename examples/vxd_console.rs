//! An interactive DOM-VXD console — the Rust analogue of the paper's §5
//! "interface to a Python interpreter that allows the user to interactively
//! issue Java calls that correspond to the navigation commands".
//!
//! Both sources run behind buffered LXP wrappers that share one flight-
//! recorder sink with the engine, so every console command can be replayed
//! from the trace: which operators it woke, which source navigations and
//! wire exchanges it caused, and whether anything degraded along the way.
//!
//! Commands (one per line on stdin):
//!
//! ```text
//! d            down  — first child
//! r            right — next sibling
//! u            up    — back to where you descended from (client-side stack)
//! f            fetch — print the label (checked: flags degraded answers)
//! s <label>    select — next sibling with the given label
//! t            tree  — materialize and print the current subtree
//! g            guide — DTD-style structural summary of the subtree
//! n            navs  — print per-source navigation counters
//! trace [k]    flight recorder — print the last k events (default 20)
//! why          explain the current degradation state, span by span
//! explain      EXPLAIN ANALYZE — plan tree with live per-operator metrics
//! metrics      Prometheus scrape of every live metric series
//! cache        shared fragment-cache stats (`cache inv <src>` invalidates,
//!              `cache clear` drops everything)
//! threads [N]  show or set the engine worker-pool width; with N > 1 the
//!              engine primes independent sources in parallel (the
//!              watermark shown is the peak number of exchanges that
//!              were genuinely in flight at once)
//! q            quit
//! ```
//!
//! Run interactively: `cargo run --example vxd_console`
//! with faults:       `cargo run --example vxd_console -- --faulty`
//! or scripted:      `echo "f d f trace why q" | tr ' ' '\n' | cargo run --example vxd_console`

use mix::prelude::*;
use std::io::{BufRead, Write};

fn main() {
    let faulty = std::env::args().any(|a| a == "--faulty");

    // The running example's virtual view over generated data — both
    // sources behind buffers that log into one shared recorder ring and
    // record into one shared metrics registry, so `trace`/`why` and
    // `metrics`/`explain` each see the whole stack at once.
    let sink = TraceSink::enabled(1 << 16);
    let registry = MetricsRegistry::enabled();
    // One shared cross-query fragment cache serves both buffers; the
    // engine reads it off them, so `explain` can show per-source hits.
    let cache = FragmentCache::new();
    let homes = mix::wrappers::gen::homes_doc(42, 25, 6);
    let schools = mix::wrappers::gen::schools_doc(43, 25, 6);

    let mut sources = SourceRegistry::new();
    {
        // The homes side optionally runs over an unreliable wire, so
        // `trace` and `why` have something to point at.
        // Buffer uris match the registered source names, so the buffers'
        // per-source series line up with the engine's in `explain`.
        let mut inner = TreeWrapper::new(FillPolicy::Chunked { n: 4 });
        inner.add("homesSrc", std::sync::Arc::new(mix::xml::Document::from_tree(&homes)));
        let cfg = if faulty {
            FaultConfig::transient(0xC0FFEE, 0.35)
        } else {
            FaultConfig::transient(0, 0.0)
        };
        let policy =
            if faulty { RetryPolicy { max_attempts: 2, ..RetryPolicy::default() } } else { RetryPolicy::none() };
        let nav = BufferNavigator::with_retry(FaultyWrapper::new(inner, cfg), "homesSrc", policy)
            .with_trace(sink.clone())
            .with_metrics(registry.clone())
            .with_fragment_cache(cache.clone());
        sources.add_buffer("homesSrc", nav);
    }
    {
        let mut inner = TreeWrapper::new(FillPolicy::Chunked { n: 4 });
        inner.add("schoolsSrc", std::sync::Arc::new(mix::xml::Document::from_tree(&schools)));
        let nav = BufferNavigator::new(inner, "schoolsSrc")
            .with_trace(sink.clone())
            .with_metrics(registry.clone())
            .with_fragment_cache(cache.clone());
        sources.add_buffer("schoolsSrc", nav);
    }

    let plan = translate(
        &parse_query(
            "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {} \
             WHERE homesSrc homes.home $H AND $H zip._ $V1 \
               AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2",
        )
        .unwrap(),
    )
    .unwrap();
    let doc = VirtualDocument::new(Engine::new(plan, &sources).unwrap());

    println!("DOM-VXD console over the virtual med_home view{}.",
        if faulty { " (homes wire is faulty)" } else { "" });
    println!(
        "commands: d(own) r(ight) u(p) f(etch) s <label> t(ree) g(uide) n(avs) \
         trace [k] why explain metrics cache threads [N] q(uit)"
    );
    println!(
        "observability: `trace [k]` replays the flight recorder, `why` blames \
         degradations on commands, `explain` prints EXPLAIN ANALYZE, `metrics` \
         dumps a Prometheus scrape"
    );

    let mut cursor = doc.root();
    // The client-side path stack (`u` is not a DOM-VXD command; the thin
    // client remembers where it descended from, like any DOM app would).
    let mut stack: Vec<VirtualElement> = Vec::new();

    let stdin = std::io::stdin();
    print!("> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        let mut words = line.split_whitespace();
        match words.next() {
            Some("d") => match cursor.down() {
                Some(c) => {
                    stack.push(cursor.clone());
                    cursor = c;
                    println!("↓ {}", cursor.label());
                }
                None => println!("⊥ (leaf)"),
            },
            Some("r") => match cursor.right() {
                Some(c) => {
                    cursor = c;
                    println!("→ {}", cursor.label());
                }
                None => println!("⊥ (no right sibling)"),
            },
            Some("u") => match stack.pop() {
                Some(p) => {
                    cursor = p;
                    println!("↑ {}", cursor.label());
                }
                None => println!("⊥ (at the root)"),
            },
            Some("f") => match cursor.label_checked() {
                Ok(label) => println!("label: {label}"),
                Err(d) => println!(
                    "label: {} ⚠ DEGRADED — {} faltered; `why` explains",
                    d.label,
                    d.sources.join(", ")
                ),
            },
            Some("s") => match words.next() {
                Some(label) => match cursor.select(&LabelPred::equals(label)) {
                    Some(c) => {
                        cursor = c;
                        println!("σ→ {}", cursor.label());
                    }
                    None => println!("⊥ (no matching sibling)"),
                },
                None => println!("usage: s <label>"),
            },
            Some("t") => println!("{}", mix::xml::xmlio::to_xml_pretty(&cursor.to_tree())),
            Some("g") => {
                // BBQ-style guide of the current subtree (materialized),
                // or of the whole virtual view when at the root (computed
                // by lazy navigation: `g` at the root is itself a
                // navigation-driven operation).
                if stack.is_empty() {
                    print!("{}", doc.summary(32));
                } else {
                    let tree = cursor.to_tree();
                    let mut nav = mix::nav::DocNavigator::from_tree(&tree);
                    print!("{}", mix::nav::Summary::infer(&mut nav, 32));
                }
            }
            Some("n") => {
                for (name, stats) in &doc.stats().per_source {
                    println!("  {name}: {stats}");
                }
            }
            Some("trace") => {
                let k = words.next().and_then(|w| w.parse().ok()).unwrap_or(20usize);
                let log = doc.trace();
                let events = log.events();
                let skip = events.len().saturating_sub(k);
                if skip > 0 {
                    println!("  … {skip} earlier events ({} dropped from the ring)", log.dropped());
                }
                for e in &events[skip..] {
                    println!("  {e}");
                }
                let rollup = log.rollup();
                println!(
                    "  — {} events, {} spans | wire: {} requests, {} batched holes, {} wasted bytes, {} retries, {} degradations",
                    log.len(),
                    log.spans().len(),
                    rollup.requests,
                    rollup.batched_holes,
                    rollup.wasted_bytes,
                    rollup.retries,
                    rollup.degradations,
                );
            }
            Some("why") => {
                let status = doc.overall_health();
                println!("  overall: {status:?}");
                for (name, snap) in doc.health() {
                    if let Some(s) = snap {
                        println!(
                            "  {name}: {} retries, {} degraded ops, {} prefetch failures",
                            s.retries, s.degraded_ops, s.prefetch_failures
                        );
                    }
                }
                let log = doc.trace();
                let degs = log.degradations();
                if degs.is_empty() {
                    println!("  no degradations recorded — every answer seen so far is genuine");
                } else {
                    println!("  {} degradation(s); most recent, with the command to blame:", degs.len());
                    for e in degs.iter().rev().take(5) {
                        let span = log.by_span(e.span);
                        let blame = span
                            .first()
                            .map(|s| s.to_string())
                            .unwrap_or_else(|| "<span fell off the ring>".into());
                        println!("    {e}");
                        println!("      ↳ caused by {blame}");
                    }
                }
            }
            Some("explain") => print!("{}", doc.explain_analyze()),
            Some("metrics") => {
                let snap = doc.metrics_snapshot();
                print!("{}", snap.render_prometheus());
                // A quantile digest on top of the raw scrape: merge the
                // samples of each histogram family (verb-labelled series
                // fold into one) and answer p50/p90/p99 from the buckets
                // — the same helpers EXPLAIN ANALYZE uses per operator.
                let mut digests: Vec<(String, mix::buffer::HistogramSnapshot)> = Vec::new();
                for s in &snap.samples {
                    if let mix::buffer::SampleValue::Histogram(h) = &s.value {
                        if h.count == 0 {
                            continue;
                        }
                        match digests.iter_mut().find(|(n, _)| *n == s.name) {
                            Some((_, agg)) => agg.merge(h),
                            None => digests.push((s.name.clone(), h.clone())),
                        }
                    }
                }
                if !digests.is_empty() {
                    println!("# quantiles (p50/p90/p99/max)");
                    for (name, h) in &digests {
                        println!(
                            "#   {name}: {}/{}/{}/{} over {} observations",
                            h.p50(),
                            h.p90(),
                            h.p99(),
                            h.max,
                            h.count
                        );
                    }
                }
            }
            Some("cache") => match (words.next(), words.next()) {
                (Some("inv"), Some(src)) => {
                    let (entries, bytes) = cache.invalidate(src);
                    println!("  invalidated `{src}`: {entries} entries, {bytes} bytes dropped");
                }
                (Some("clear"), _) => {
                    cache.clear();
                    println!("  cache cleared (all source epochs bumped)");
                }
                _ => {
                    let s = cache.stats();
                    println!(
                        "  shared fragment cache: {} entries / {} B (budget {} B)",
                        s.entries, s.bytes, s.budget
                    );
                    println!(
                        "  {} hits, {} misses, {} insertions, {} evictions, {} invalidations",
                        s.hits, s.misses, s.insertions, s.evictions, s.invalidations
                    );
                    for name in ["homesSrc", "schoolsSrc"] {
                        let per = cache.source_stats(name);
                        println!(
                            "    {name}: {} hits, {} misses, {} invalidations",
                            per.hits, per.misses, per.invalidations
                        );
                    }
                    println!("  (`cache inv <src>` invalidates one source, `cache clear` everything)");
                }
            },
            Some("threads") => {
                let engine = doc.engine();
                let mut engine = engine.lock().unwrap();
                if let Some(n) = words.next().and_then(|w| w.parse::<usize>().ok()) {
                    engine.set_threads(n);
                    println!("  worker pool set to {} thread(s)", engine.threads());
                } else {
                    let gauge = engine.overlap();
                    println!(
                        "  worker pool: {} thread(s); {} parallel source primings so far, \
                         peak {} exchange(s) in flight at once",
                        engine.threads(),
                        gauge.entered(),
                        gauge.max_overlap()
                    );
                    println!("  (`threads <n>` resizes)");
                }
            }
            Some("q") => break,
            Some(other) => println!("unknown command `{other}`"),
            None => {}
        }
        print!("> ");
        std::io::stdout().flush().ok();
    }
    println!("\nfinal source navigation counts:");
    for (name, stats) in &doc.stats().per_source {
        println!("  {name}: {stats}");
    }
}
