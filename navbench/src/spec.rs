//! The benchmark's contract: workloads and metrics, by name.
//!
//! `BENCHMARK.json` at the repository root is this table rendered by
//! [`benchmark_json`]; a unit test keeps the committed file and the table
//! identical, so the program can validate its own output against the
//! table without parsing JSON.

use crate::json::Json;

/// How long one run measures, in seconds (the driver passes it back as
/// `--seconds`). Every run also spends [`WARMUP_SECONDS`] warming up.
pub const RUN_SECONDS: u64 = 15;
/// Warm-up before the measured window (at least one whole iteration).
pub const WARMUP_SECONDS: f64 = 2.0;
/// Set-up is repeated at least this often in every run (cheap ones up to
/// three times as often); `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "served_walk",
        why: "Fig. 3 walk over loopback TCP, cold session then identical warm one, 1 client: \
              wire, codec and session handling do the work; engine and wrappers a fixed share",
    },
    WorkloadSpec {
        name: "served_churn",
        why: "2 clients x 32 open sessions, six templates in near-zipf(1.1) shares, each asked for twice, \
              a 4.6 KB fragment cache (1 lookup in 4 hits): open/close, cache reads, writes, eviction under contention",
    },
    WorkloadSpec {
        name: "inproc_cold_scan",
        why: "no server: materialise the whole 1000x1000 join (10000 pairs) over a relational source \
              (chunk 10) with batched(8) buffers: engine operators, buffer splice, cursors",
    },
    WorkloadSpec {
        name: "inproc_first_k",
        why: "no server: from query text to the first 10 answers of a selective view over 10000 \
              rows (chunk 100): compile, engine build and wasted source bytes show; bypasses bulk",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a client of the mediator sees. Reported by every workload. A
/// bound is one number for all four workloads, so the noisiest sets it.
/// The source counts are the paper's primary cost and repeat: exchanges
/// exactly, for every seed; bytes to 1 % across seeds (label lengths) and
/// exactly for one seed. The timings are bounded by the in-process
/// workloads on this machine: quartiles 5 % apart for one seed when it is
/// quiet, 16 to 24 % apart (and medians 21 % up) when it is not, which in
/// an afternoon it twice was not. README, "Baseline", has the ten-run
/// studies (ten seeds, quiet and not; one seed) the bounds rest on.
pub const END_TO_END: [MetricSpec; 10] = [
    e2e("navs_per_s", "1/s", "higher", 0.25),
    e2e("nav_p50_us", "us", "lower", 0.25),
    e2e("open_p50_us", "us", "lower", 0.25),
    e2e("first_answer_ms", "ms", "lower", 0.25),
    e2e("cold_walk_ms", "ms", "lower", 0.25),
    e2e("warm_walk_ms", "ms", "lower", 0.25),
    e2e("source_exchanges_per_knav", "count", "lower", 0.01),
    e2e("source_bytes_per_knav", "B", "lower", 0.04),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// One layer each, from the traced pass. `count` metrics are means per
/// iteration unless the README says otherwise.
pub const PER_LAYER: [MetricSpec; 46] = [
    layer("xml.parse_mb_s", "MB/s", "higher"),
    layer("xml.serialize_mb_s", "MB/s", "higher"),
    layer("xml.intern_ns", "ns", "lower"),
    layer("xmas.parse_us", "us", "lower"),
    layer("algebra.translate_us", "us", "lower"),
    layer("algebra.rewrite_us", "us", "lower"),
    layer("algebra.view_lookup_us", "us", "lower"),
    layer("core.eager_eval_ms", "ms", "lower"),
    layer("core.engine_build_us", "us", "lower"),
    layer("core.self_us_per_nav", "us", "lower"),
    layer("core.source_navs_per_nav", "count", "lower"),
    layer("core.teardown_us", "us", "lower"),
    layer("buffer.self_us_per_source_nav", "us", "lower"),
    layer("buffer.fills", "count", "lower"),
    layer("buffer.requests", "count", "lower"),
    layer("buffer.holes_per_request", "count", "higher"),
    layer("buffer.bytes_received", "B", "lower"),
    layer("buffer.wasted_bytes_share", "%", "lower"),
    layer("buffer.retries", "count", "lower"),
    layer("buffer.fragcache_hit_ratio", "%", "higher"),
    layer("buffer.fragcache_evictions", "count", "lower"),
    layer("buffer.fragcache_clear_us", "us", "lower"),
    layer("wrappers.exchanges", "count", "lower"),
    layer("wrappers.fill_p50_us", "us", "lower"),
    layer("wrappers.busy_share", "%", "lower"),
    layer("wrappers.rows_fetched_per_answer_row", "count", "lower"),
    layer("wrappers.errors", "count", "lower"),
    layer("serve.codec_encode_ns", "ns", "lower"),
    layer("serve.codec_decode_ns", "ns", "lower"),
    layer("serve.handle_nav_p50_us", "us", "lower"),
    layer("serve.handle_nav_p95_us", "us", "lower"),
    layer("serve.handle_open_p50_us", "us", "lower"),
    layer("serve.handle_close_p50_us", "us", "lower"),
    layer("serve.wire_rtt_p50_us", "us", "lower"),
    layer("serve.frames_per_nav", "count", "lower"),
    layer("serve.writes_per_frame", "count", "lower"),
    layer("serve.wire_bytes_per_nav", "B", "lower"),
    layer("serve.sessions_peak", "count", "higher"),
    layer("serve.client_nav_p95_us", "us", "lower"),
    layer("serve.client_nav_p99_us", "us", "lower"),
    layer("serve.error_replies", "count", "lower"),
    layer("serve.panics", "count", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.reconcile_gap_pct", "%", "lower"),
    layer("bench.script_overhead_ns", "ns", "lower"),
    layer("bench.spans_recorded", "count", "higher"),
];

/// The command the driver runs, before it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "navbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["navbench"];

/// The names the contract allows: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if bounded {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    Json::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_this_table() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `navbench spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("a/b"));
    }
}
