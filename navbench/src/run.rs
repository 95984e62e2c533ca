//! One run: set a workload up, drive its clients through a fixed window,
//! and turn what they measured into the metrics of `spec.rs`.

use crate::client::Samples;
use crate::inproc::InProc;
use crate::interpose::SourceSnapshot;
use crate::json::Json;
use crate::served::{ServedChurn, ServedWalk};
use crate::span::{self, Kind, Totals};
use crate::spec::{self, MetricSpec};
use crate::stats::{median, supported_tail};
use crate::workload::{Common, LayerState, Workload};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::Instant;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics, nothing traced. `true`: per-layer
    /// metrics from a traced window, after a short untraced one that
    /// shows what tracing costs.
    pub trace: bool,
    /// `smoke` only: exactly this many iterations, no warm-up loop, one
    /// set-up. A run from the command line is always a fixed window.
    pub iterations: Option<u64>,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: u64,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}

fn set_up(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "served_walk" => Box::new(ServedWalk::set_up(seed)?),
        "served_churn" => Box::new(ServedChurn::set_up(seed)?),
        "inproc_cold_scan" => Box::new(InProc::cold_scan(seed)?),
        "inproc_first_k" => Box::new(InProc::first_k(seed)?),
        other => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{other}`; known: {}",
                known.join(", ")
            ));
        }
    })
}

/// What one client thread hands back: its samples, and the duration of
/// each of its iterations in seconds and their sum.
type ClientOutcome = Result<(Samples, f64, Vec<f64>), String>;

/// What one window of closed-loop clients produced.
struct Window {
    samples: Samples,
    /// Commands per second, summed over clients: each client's mean
    /// commands per iteration over its *median* iteration time, so that a
    /// burst of interference inside the window moves the rate no more
    /// than it moves the other medians.
    navs_per_s: f64,
    /// The longest client's measured time: the sum of its iterations.
    seconds: f64,
    clients: usize,
    sources: SourceSnapshot,
    before: LayerState,
    after: LayerState,
}

/// Run every client of `workload` for `warmup` seconds (at least one
/// iteration), then for `seconds`, ending each at an iteration boundary.
fn window(
    workload: &dyn Workload,
    traced: bool,
    warmup: f64,
    seconds: f64,
    iterations: Option<u64>,
) -> Result<Window, String> {
    let clients = workload.clients(traced)?;
    let n = clients.len();
    let barrier = Barrier::new(n + 1);
    let (mut before, mut after) = (LayerState::default(), LayerState::default());
    let mut sources = SourceSnapshot::default();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut warmup_samples = Samples::default();
                    client.warm_up(&mut warmup_samples);
                    if iterations.is_none() {
                        let start = Instant::now();
                        loop {
                            client.iteration(0, &mut warmup_samples);
                            client.rewalk(&mut warmup_samples);
                            if start.elapsed().as_secs_f64() >= warmup {
                                break;
                            }
                        }
                    }
                    // Warm-up measurements are dropped; its failures are not.
                    let mut samples = warmup_samples.failures_only();
                    barrier.wait(); // every client is warm
                    barrier.wait(); // counters are read, spans switched on; go
                    let start = Instant::now();
                    let (mut index, mut laps) = (0, Vec::new());
                    loop {
                        span::set_iteration(index);
                        let lap = Instant::now();
                        span::within(Kind::Iteration, || client.iteration(index, &mut samples));
                        laps.push(lap.elapsed().as_secs_f64());
                        index += 1;
                        samples.iterations += 1;
                        span::unrecorded(|| client.rewalk(&mut samples));
                        let done = match iterations {
                            Some(n) => u64::from(index) >= n,
                            None => start.elapsed().as_secs_f64() >= seconds,
                        };
                        if done {
                            break;
                        }
                    }
                    let measured: f64 = laps.iter().sum();
                    barrier.wait(); // every client is done; counters are read again
                    barrier.wait(); // spans are switched off
                    client.finish(&mut samples);
                    span::flush_thread();
                    (samples, measured, laps)
                })
            })
            .collect();
        barrier.wait();
        let sources_before = workload.common().counters.snapshot();
        before = workload.layer_state();
        // Spans cover the measured window only, not its warm-up; every
        // client waits at a barrier while the switch is thrown.
        span::set_enabled(traced);
        barrier.wait();
        barrier.wait();
        span::set_enabled(false);
        sources = workload.common().counters.snapshot().since(&sources_before);
        after = workload.layer_state();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect()
    });
    let mut merged = Samples::default();
    let (mut navs_per_s, mut longest) = (0.0, 0.0f64);
    for outcome in outcomes {
        let (samples, measured, mut laps) = outcome?;
        navs_per_s +=
            samples.commands as f64 / samples.iterations.max(1) as f64 / median(&mut laps);
        longest = longest.max(measured);
        merged.merge(samples);
    }
    Ok(Window {
        samples: merged,
        navs_per_s,
        seconds: longest,
        clients: n,
        sources,
        before,
        after,
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per_k(count: u64, commands: u64) -> f64 {
    count as f64 * 1000.0 / commands.max(1) as f64
}

pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    // Set up several times and report the median: at least
    // `SETUP_REPEATS` times, and cheap set-ups (a few ms, where one page
    // fault shows) up to three times as often while a second is not spent.
    let repeats = if config.iterations.is_some() {
        1..=1
    } else {
        spec::SETUP_REPEATS..=3 * spec::SETUP_REPEATS
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_s.len() < *repeats.start()
        || (setup_s.len() < *repeats.end() && setup_s.iter().sum::<f64>() < 1.0)
    {
        // The previous set-up's server and sources go first, so that
        // repeats do not pile up in `peak_rss_mb`.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(set_up(&config.workload, config.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let workload = workload.expect("at least one set-up ran");
    let workload = workload.as_ref();
    let warmup = spec::WARMUP_SECONDS;

    if !config.trace {
        let w = window(workload, false, warmup, config.seconds, config.iterations)?;
        return Ok(end_to_end(w, &mut setup_s));
    }
    // An untraced quarter first: what the traced rate is compared with.
    let reference = window(
        workload,
        false,
        warmup / 2.0,
        config.seconds / 4.0,
        config.iterations,
    )?;
    let traced = window(
        workload,
        true,
        warmup / 2.0,
        config.seconds * 0.75,
        config.iterations,
    )?;
    let mut threads = span::take_collected();
    let totals = span::merged_totals(&mut threads);
    let spans_written = write_spans(&config.workload, &threads);
    let mut result = per_layer(workload, &reference, traced, &totals);
    // Writing the spans out is an operation of the traced pass like any
    // other: attempted, and failed if the file is not there afterwards.
    result.attempted += 1;
    if let Err(why) = spans_written {
        result.failed += 1;
        result.failures.push(format!("spans not written: {why}"));
    }
    Ok(result)
}

fn end_to_end(mut w: Window, setup_s: &mut [f64]) -> RunResult {
    let s = &mut w.samples;
    let nav = if s.nav_us.is_empty() {
        &mut s.walk_nav_us
    } else {
        &mut s.nav_us
    };
    let values = [
        (w.navs_per_s, s.commands),
        (nav.median(), nav.seen()),
        (s.open_us.median(), s.open_us.seen()),
        (s.first_answer_ms.median(), s.first_answer_ms.seen()),
        (s.cold_walk_ms.median(), s.cold_walk_ms.seen()),
        (s.warm_walk_ms.median(), s.warm_walk_ms.seen()),
        (per_k(w.sources.exchanges, s.commands), w.sources.exchanges),
        (per_k(w.sources.bytes, s.commands), w.sources.bytes),
        (peak_rss_mb(), 1),
        (median(setup_s), setup_s.len() as u64),
    ];
    finish(&spec::END_TO_END, &values, w.samples)
}

fn finish(specs: &'static [MetricSpec], values: &[(f64, u64)], samples: Samples) -> RunResult {
    assert_eq!(
        specs.len(),
        values.len(),
        "one value per metric of the spec, in its order"
    );
    let metrics = specs
        .iter()
        .zip(values)
        .map(|(m, &(value, n))| Metric {
            name: m.name,
            unit: m.unit,
            value,
            n,
        })
        .collect();
    RunResult {
        attempted: samples.attempted,
        failed: samples.failed,
        failures: samples.failures,
        metrics,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a span kind's durations in µs, or `fallback` if none ran.
fn median_us(t: &mut Totals, fallback: f64) -> (f64, u64) {
    if t.durations.is_empty() {
        (fallback, 0)
    } else {
        (t.durations.median() / 1e3, t.durations.seen())
    }
}

fn per_layer(
    workload: &dyn Workload,
    reference: &Window,
    traced: Window,
    totals: &[Totals],
) -> RunResult {
    let mut t: Vec<Totals> = totals.to_vec();
    let mut at = |kind: Kind| std::mem::take(&mut t[kind as usize]);
    let Common { info, probe, .. } = workload.common();
    let Window {
        mut samples,
        sources,
        before,
        after,
        ..
    } = traced;
    let commands = samples.commands.max(1) as f64;
    let iterations = samples.iterations.max(1) as f64;
    let served = !samples.nav_us.is_empty();

    let (iteration, client_nav, source_nav) = (
        at(Kind::Iteration),
        at(Kind::ClientNav),
        at(Kind::SourceNav),
    );
    let mut fill = at(Kind::WrapperFill);
    let (mut handle_nav, mut handle_open, mut handle_close) = (
        at(Kind::HandleNav),
        at(Kind::HandleOpen),
        at(Kind::HandleClose),
    );
    let teardown = at(Kind::Teardown);
    let spans_recorded = totals.iter().map(|k| k.count).sum::<u64>();

    // Buffers: the in-process workloads hand over their `BufferStats`; a
    // server keeps its sessions' buffers to itself, and what they asked
    // of the wrappers is all that shows from outside.
    let b = *probe.buffers.lock().expect("clients have finished");
    let (fills, requests, holes, bytes_received) = if served {
        (
            sources.items,
            sources.exchanges,
            sources.items,
            sources.bytes,
        )
    } else {
        (
            b.fills,
            b.requests,
            b.batched_holes.max(b.requests),
            b.bytes_received,
        )
    };
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);

    let (frames, error_replies) = probe
        .conns
        .lock()
        .expect("clients have finished")
        .iter()
        .fold((0, 0), |(f, e), c| {
            (
                f + c.frames.load(Ordering::Relaxed),
                e + c.error_replies.load(Ordering::Relaxed),
            )
        });
    let stream = &probe.stream;
    let wire_bytes =
        stream.bytes_written.load(Ordering::Relaxed) + stream.bytes_read.load(Ordering::Relaxed);
    let mut wire_rtt =
        std::mem::take(&mut *probe.wire_rtt_us.lock().expect("clients have finished"));

    // On a served workload the engine runs inside `VxdServer::handle`:
    // its self time there is session lookup + engine + buffer together.
    let core_self_ns = if served {
        handle_nav.self_ns
    } else {
        client_nav.self_ns
    };
    let teardown_us = if served {
        median_us(&mut handle_close, 0.0)
    } else {
        (teardown.total_ns as f64 / iterations / 1e3, teardown.count)
    };
    let script_ns = workload.script_overhead_ns();
    let unexplained = (iteration.self_ns as f64 - script_ns * commands).abs();
    let tail = |want: f64, n: usize| supported_tail(n, want);
    let (p95, p99) = (
        tail(95.0, samples.nav_us.kept().len()),
        tail(99.0, samples.nav_us.kept().len()),
    );
    let handle_p95 = tail(95.0, handle_nav.durations.kept().len());

    let values = [
        (
            ratio(info.xml_bytes as f64 / 1e6, info.xml_parse_s),
            info.xml_bytes,
        ),
        (
            ratio(info.xml_bytes as f64 / 1e6, info.xml_serialize_s),
            info.xml_bytes,
        ),
        micro_intern_ns(),
        median_us(&mut at(Kind::XmasParse), info.parse_us),
        median_us(&mut at(Kind::AlgebraTranslate), info.translate_us),
        median_us(&mut at(Kind::AlgebraRewrite), info.rewrite_us),
        crate::served::view_lookup_us().unwrap_or((0.0, 0)),
        (info.eager_ms, 1),
        median_us(&mut at(Kind::EngineBuild), info.engine_build_us),
        (core_self_ns as f64 / commands / 1e3, samples.commands),
        (source_nav.count as f64 / commands, source_nav.count),
        teardown_us,
        (
            ratio(source_nav.self_ns as f64 / 1e3, source_nav.count as f64),
            source_nav.count,
        ),
        (fills as f64 / iterations, fills),
        (requests as f64 / iterations, requests),
        (ratio(holes as f64, requests as f64), requests),
        (bytes_received as f64 / iterations, bytes_received),
        (
            100.0 * ratio(b.wasted_bytes as f64, b.bytes_received as f64),
            b.bytes_received,
        ),
        ((b.retries + after.retries - before.retries) as f64, 1),
        (
            100.0
                * ratio(
                    (after.cache_hits - before.cache_hits) as f64,
                    lookups as f64,
                ),
            lookups,
        ),
        (
            (after.cache_evictions - before.cache_evictions) as f64 / iterations,
            lookups,
        ),
        median_us(&mut at(Kind::CacheClear), 0.0),
        (sources.exchanges as f64 / iterations, sources.exchanges),
        median_us(&mut fill, 0.0),
        (
            100.0 * fill.total_ns as f64 / (traced.seconds * 1e9 * traced.clients as f64),
            fill.count,
        ),
        (
            ratio(sources.records as f64, samples.answer_rows as f64),
            sources.records,
        ),
        (sources.errors as f64, sources.exchanges),
        (at(Kind::CodecEncode).mean_ns(), frames / 2),
        (at(Kind::CodecDecode).mean_ns(), frames / 2),
        median_us(&mut handle_nav, 0.0),
        (
            handle_nav.durations.percentile(handle_p95) / 1e3,
            handle_nav.count,
        ),
        median_us(&mut handle_open, 0.0),
        median_us(&mut handle_close, 0.0),
        (median(&mut wire_rtt), wire_rtt.len() as u64),
        (frames as f64 / commands, frames),
        (
            ratio(
                stream.write_calls.load(Ordering::Relaxed) as f64,
                frames as f64 / 2.0,
            ),
            frames / 2,
        ),
        (wire_bytes as f64 / commands, wire_bytes),
        (probe.sessions_peak.load(Ordering::Relaxed) as f64, 1),
        (samples.nav_us.percentile(p95), samples.nav_us.seen()),
        (samples.nav_us.percentile(p99), samples.nav_us.seen()),
        (error_replies as f64, frames / 2),
        ((after.panics - before.panics) as f64, 1),
        (
            100.0 * (1.0 - ratio(traced.navs_per_s, reference.navs_per_s)),
            samples.commands,
        ),
        (
            100.0 * ratio(unexplained, iteration.total_ns as f64),
            iteration.count,
        ),
        (script_ns, 1),
        (spans_recorded as f64, spans_recorded),
    ];
    // A failed operation in the untraced quarter counts too.
    samples.attempted += reference.samples.attempted;
    samples.failed += reference.samples.failed;
    samples
        .failures
        .extend(reference.samples.failures.iter().cloned());
    finish(&spec::PER_LAYER, &values, samples)
}

/// `Label::intern` of a label already in the table (the hot path of
/// every wrapper fill): mean ns over 100 000 calls.
fn micro_intern_ns() -> (f64, u64) {
    const CALLS: u64 = 100_000;
    mix_xml::Label::intern("med_home");
    let start = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(mix_xml::Label::intern(std::hint::black_box("med_home")));
    }
    (start.elapsed().as_nanos() as f64 / CALLS as f64, CALLS)
}

/// Where the traced pass leaves its spans: beside the build, in
/// `<target dir>/navbench/<workload>.spans.jsonl`.
fn write_spans(workload: &str, threads: &[span::ThreadTrace]) -> Result<usize, String> {
    // Cargo marks its target directory with a `CACHEDIR.TAG`; the
    // executable sits one level below it (`cargo run`) or two (`cargo test`).
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .ancestors()
        .find(|dir| dir.join("CACHEDIR.TAG").is_file())
        .ok_or("the executable is not in a cargo target directory")?;
    let dir = dir.join("navbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let written = span::write_jsonl(threads, &mut out).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut out).map_err(|e| e.to_string())?;
    Ok(written)
}
