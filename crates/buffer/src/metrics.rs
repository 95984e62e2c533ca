//! Live metrics: lock-light counters, gauges, and log₂-bucket histograms.
//!
//! The flight recorder ([`crate::trace`]) answers "what happened, in what
//! order?"; this module answers "how much, so far?" — the *aggregation*
//! complement. A [`MetricsRegistry`] holds named, labelled series backed
//! by shared atomic cells. Recording is wait-free (one relaxed atomic add
//! per event); the registry's lock is touched only at registration and
//! snapshot time, never on the hot path.
//!
//! # Zero-cost when disabled
//!
//! Like the trace sink, instrumented call sites guard metric recording
//! behind [`MetricsRegistry::is_enabled`] — a single relaxed atomic load —
//! so a disabled registry costs one predictable branch per site.
//!
//! One exception is deliberate: the buffer's traffic counters
//! ([`crate::BufferStats`]) are *always on*, exactly as they were before
//! this module existed — they are the single source of truth behind
//! `Engine::traffic()` and the profiler. [`BufferStats::bind_into`]
//! re-registers those same cells under canonical metric names, so a
//! snapshot, the engine's traffic surface, and the trace rollup all read
//! the same memory.
//!
//! # Histograms
//!
//! [`Histogram`] uses fixed log₂ buckets: an observation `v` lands in
//! bucket `⌈log₂(v+1)⌉`, i.e. bucket `i` covers `2^(i-1) ≤ v < 2^i`
//! (bucket 0 holds exact zeros). 65 buckets cover the whole `u64` range
//! with no allocation and no configuration; [`HistogramSnapshot::quantile`]
//! reads p50/p95/p99 as the upper bound of the covering bucket, and the
//! exact maximum is tracked separately.
//!
//! [`BufferStats`]: crate::BufferStats
//! [`BufferStats::bind_into`]: crate::BufferStats::bind_into

use crate::pool::lock_unpoisoned;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets: zeros, plus one bucket per bit of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone counter (shared, wait-free).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `by` to the counter.
    #[inline]
    pub fn add(&self, by: u64) {
        self.v.fetch_add(by, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Reset to zero (counter semantics stay monotone between resets; the
    /// owner of the series decides when a reset is meaningful).
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a value that can rise and fall (shared, wait-free).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    v: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Add `by`.
    #[inline]
    pub fn add(&self, by: u64) {
        self.v.fetch_add(by, Ordering::Relaxed);
    }

    /// Subtract `by`, saturating at zero. Returns the amount actually
    /// subtracted (the delta applied), so exact-accounting rollups can
    /// reproduce the gauge even at the saturation floor.
    #[inline]
    pub fn sub_saturating(&self, by: u64) -> u64 {
        let before = self.v.load(Ordering::Relaxed);
        let applied = before.min(by);
        self.v.store(before - applied, Ordering::Relaxed);
        applied
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCells {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed log₂-bucket histogram (shared, wait-free).
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

/// The bucket index covering `v`: 0 for zeros, else `64 - leading_zeros`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// The exact maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.cells.max.load(Ordering::Relaxed)
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, b) in self.cells.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                buckets.push((bucket_bound(i), cumulative));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }

    /// The upper bound of the bucket containing quantile `q` (0 when
    /// empty). Shorthand for `snapshot().quantile(q)`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Median bucket bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile bucket bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile bucket bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// `(inclusive upper bound, cumulative count)` for each non-empty
    /// bucket, in ascending bound order.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Exact maximum observation (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The upper bound of the bucket containing quantile `q` (0 when
    /// empty). `quantile(1.0)` answers the exact tracked maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        for &(bound, cum) in &self.buckets {
            if cum >= rank {
                // Never report beyond the exact maximum.
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// `p50/p95/p99/max` in one call (the explain-analyze summary line).
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99), self.max)
    }

    /// Median bucket bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile bucket bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile bucket bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold `other` into this snapshot: per-bucket counts add (the shared
    /// log₂ bounds make snapshots from any two [`Histogram`]s mergeable),
    /// `count`/`sum` add, `max` takes the larger. This is how verb-split
    /// latency series aggregate back into one distribution.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        // Cumulative → per-bucket deltas, keyed by bound.
        let deltas = |snap: &HistogramSnapshot| {
            let mut prev = 0u64;
            snap.buckets
                .iter()
                .map(|&(bound, cum)| {
                    let d = cum - prev;
                    prev = cum;
                    (bound, d)
                })
                .collect::<Vec<_>>()
        };
        let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (bound, d) in deltas(self).into_iter().chain(deltas(other)) {
            *merged.entry(bound).or_insert(0) += d;
        }
        let mut cumulative = 0u64;
        self.buckets = merged
            .into_iter()
            .map(|(bound, d)| {
                cumulative += d;
                (bound, cumulative)
            })
            .collect();
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// What a registered series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count.
    Counter,
    /// Value that can rise and fall.
    Gauge,
    /// Log₂-bucket distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn prometheus_type(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum SeriesData {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone, Debug)]
struct Series {
    name: String,
    help: &'static str,
    labels: Vec<(String, String)>,
    data: SeriesData,
}

#[derive(Debug, Default)]
struct RegistryInner {
    enabled: AtomicBool,
    series: Mutex<Vec<Series>>,
}

/// Shared, cloneable handle to one metrics registry.
///
/// Clones share the same series and enabled flag; hand the *same* registry
/// to the engine and every buffer/wrapper so one snapshot covers the whole
/// mediator stack.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn enabled() -> Self {
        let reg = MetricsRegistry::default();
        reg.inner.enabled.store(true, Ordering::Relaxed);
        reg
    }

    /// Is recording currently on? Call sites guard metric recording behind
    /// this single relaxed atomic load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off (registered series are kept either way).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Do two handles share the same registry?
    pub fn same_registry(&self, other: &MetricsRegistry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn upsert(&self, name: &str, help: &'static str, labels: &[(&str, &str)], make: impl FnOnce() -> SeriesData) -> SeriesData {
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let mut series = lock_unpoisoned(&self.inner.series);
        if let Some(existing) =
            series.iter().find(|s| s.name == name && s.labels == labels)
        {
            return existing.data.clone();
        }
        let data = make();
        series.push(Series { name: name.to_string(), help, labels, data: data.clone() });
        data
    }

    /// Get or create the counter named `name` with the given label set.
    /// Registering the same `(name, labels)` twice returns the *same*
    /// shared cells, so independent components naturally aggregate.
    pub fn counter(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Counter {
        match self.upsert(name, help, labels, || SeriesData::Counter(Counter::new())) {
            SeriesData::Counter(c) => c,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.upsert(name, help, labels, || SeriesData::Gauge(Gauge::new())) {
            SeriesData::Gauge(g) => g,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Get or create a histogram series.
    pub fn histogram(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Histogram {
        match self.upsert(name, help, labels, || SeriesData::Histogram(Histogram::new())) {
            SeriesData::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Register an *existing* counter's cells under `(name, labels)` —
    /// how the buffer's always-on [`crate::BufferStats`] counters become
    /// the registry's single source of truth. Replaces a previous binding
    /// of the same series.
    pub fn bind_counter(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        counter: &Counter,
    ) {
        self.bind(name, help, labels, SeriesData::Counter(counter.clone()));
    }

    /// Register an existing gauge's cells (see [`Self::bind_counter`]).
    pub fn bind_gauge(&self, name: &str, help: &'static str, labels: &[(&str, &str)], gauge: &Gauge) {
        self.bind(name, help, labels, SeriesData::Gauge(gauge.clone()));
    }

    fn bind(&self, name: &str, help: &'static str, labels: &[(&str, &str)], data: SeriesData) {
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let mut series = lock_unpoisoned(&self.inner.series);
        if let Some(existing) =
            series.iter_mut().find(|s| s.name == name && s.labels == labels)
        {
            existing.data = data;
            existing.help = help;
        } else {
            series.push(Series { name: name.to_string(), help, labels, data });
        }
    }

    /// Remove the series registered under exactly `(name, labels)`.
    /// Returns whether a series was removed. Handles other components
    /// still hold keep working — they just stop being exported — so
    /// unregistering is always safe, never racy.
    ///
    /// Long-lived registries serving per-session series (labels like
    /// `session="42"`) MUST unregister them at session teardown or the
    /// registry grows without bound — the leak class the session-churn
    /// tests pin down.
    pub fn unregister(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let mut series = lock_unpoisoned(&self.inner.series);
        let before = series.len();
        series.retain(|s| !(s.name == name && s.labels == labels));
        series.len() < before
    }

    /// Remove every series carrying the label pair `(key, value)` —
    /// teardown for a whole session/source worth of series in one sweep.
    /// Returns how many series were removed.
    pub fn unregister_labeled(&self, key: &str, value: &str) -> usize {
        let mut series = lock_unpoisoned(&self.inner.series);
        let before = series.len();
        series.retain(|s| !s.labels.iter().any(|(k, v)| k == key && v == value));
        before - series.len()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner.series).len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every registered series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = lock_unpoisoned(&self.inner.series);
        MetricsSnapshot {
            samples: series
                .iter()
                .map(|s| Sample {
                    name: s.name.clone(),
                    help: s.help,
                    labels: s.labels.clone(),
                    value: match &s.data {
                        SeriesData::Counter(c) => SampleValue::Counter(c.get()),
                        SeriesData::Gauge(g) => SampleValue::Gauge(g.get()),
                        SeriesData::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }

    /// Render the current state in Prometheus text exposition format
    /// (shorthand for `snapshot().render_prometheus()`).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// One sampled series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// The metric name (e.g. `mix_requests_total`).
    pub name: String,
    /// One-line description.
    pub help: &'static str,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// A sampled value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

impl SampleValue {
    /// The scalar reading of a counter/gauge; a histogram answers its
    /// observation count.
    pub fn scalar(&self) -> u64 {
        match self {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => *v,
            SampleValue::Histogram(h) => h.count,
        }
    }

    fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Every registered series, in registration order.
    pub samples: Vec<Sample>,
}

fn labels_match(sample: &Sample, labels: &[(&str, &str)]) -> bool {
    sample.labels.len() == labels.len()
        && labels.iter().all(|(k, v)| {
            sample.labels.iter().any(|(sk, sv)| sk == k && sv == v)
        })
}

impl MetricsSnapshot {
    /// The scalar value of the series with exactly these labels.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels_match(s, labels))
            .map(|s| s.value.scalar())
    }

    /// Sum of the scalar values of every series with this name.
    pub fn total(&self, name: &str) -> u64 {
        self.samples.iter().filter(|s| s.name == name).map(|s| s.value.scalar()).sum()
    }

    /// The histogram series with exactly these labels, if any.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.samples.iter().find(|s| s.name == name && labels_match(s, labels)).and_then(|s| {
            match &s.value {
                SampleValue::Histogram(h) => Some(h),
                _ => None,
            }
        })
    }

    /// The change since an earlier snapshot: counters and histograms
    /// subtract (saturating); gauges keep their *current* reading (a
    /// gauge's meaningful delta is signed — callers that need it compare
    /// the two snapshots directly). Series absent from `earlier` pass
    /// through unchanged.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let before = earlier
                    .samples
                    .iter()
                    .find(|e| e.name == s.name && e.labels == s.labels);
                let value = match (&s.value, before.map(|e| &e.value)) {
                    (SampleValue::Counter(now), Some(SampleValue::Counter(then))) => {
                        SampleValue::Counter(now.saturating_sub(*then))
                    }
                    (SampleValue::Histogram(now), Some(SampleValue::Histogram(then))) => {
                        SampleValue::Histogram(HistogramSnapshot {
                            // Recompute cumulative counts over the bound
                            // union so earlier-only buckets subtract too.
                            buckets: diff_buckets(now, then),
                            count: now.count.saturating_sub(then.count),
                            sum: now.sum.saturating_sub(then.sum),
                            max: now.max,
                        })
                    }
                    (v, _) => v.clone(),
                };
                Sample { name: s.name.clone(), help: s.help, labels: s.labels.clone(), value }
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Export as JSON (stable shape: an array of series objects).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":{},\"labels\":{{", json_str(&s.name));
            for (k, (lk, lv)) in s.labels.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_str(lk), json_str(lv));
            }
            let _ = write!(out, "}},\"kind\":\"{}\"", s.value.kind().prometheus_type());
            match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                SampleValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.max
                    );
                    for (k, (bound, cum)) in h.buckets.iter().enumerate() {
                        if k > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{bound},{cum}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    /// Render in the Prometheus text exposition format: one `# HELP` /
    /// `# TYPE` pair per metric name, then one line per series (histograms
    /// expand to `_bucket`/`_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut emitted_header: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !emitted_header.contains(&s.name.as_str()) {
                emitted_header.push(&s.name);
                let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
                let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.kind().prometheus_type());
                // Emit every series of this name right after its header
                // (exposition format requires one contiguous family).
                for t in self.samples.iter().filter(|t| t.name == s.name) {
                    render_series(&mut out, t);
                }
            }
        }
        out
    }
}

fn diff_buckets(now: &HistogramSnapshot, then: &HistogramSnapshot) -> Vec<(u64, u64)> {
    let lookup = |snap: &HistogramSnapshot, bound: u64| -> u64 {
        // Cumulative count at `bound` (the last cumulative value whose
        // bound is ≤ the queried one).
        snap.buckets.iter().take_while(|(b, _)| *b <= bound).last().map(|(_, c)| *c).unwrap_or(0)
    };
    let mut bounds: Vec<u64> = now.buckets.iter().map(|(b, _)| *b).collect();
    for (b, _) in &then.buckets {
        if !bounds.contains(b) {
            bounds.push(*b);
        }
    }
    bounds.sort_unstable();
    let mut out = Vec::new();
    for b in bounds {
        let cum = lookup(now, b).saturating_sub(lookup(then, b));
        if out.last().map(|(_, c)| *c) != Some(cum) || out.is_empty() {
            out.push((b, cum));
        }
    }
    // Drop leading empty buckets, keep the snapshot invariant (non-empty,
    // strictly increasing cumulative counts).
    out.retain(|(_, c)| *c > 0);
    out
}

fn render_series(out: &mut String, s: &Sample) {
    match &s.value {
        SampleValue::Counter(v) | SampleValue::Gauge(v) => {
            let _ = writeln!(out, "{}{} {v}", s.name, render_labels(&s.labels, None));
        }
        SampleValue::Histogram(h) => {
            for (bound, cum) in &h.buckets {
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cum}",
                    s.name,
                    render_labels(&s.labels, Some(&bound.to_string()))
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                s.name,
                render_labels(&s.labels, Some("+Inf")),
                h.count
            );
            let _ = writeln!(out, "{}_sum{} {}", s.name, render_labels(&s.labels, None), h.sum);
            let _ =
                writeln!(out, "{}_count{} {}", s.name, render_labels(&s.labels, None), h.count);
        }
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-conversation retry/breaker metric handles, recorded by
/// [`crate::retry::RetryState::run_observed`]. Counter construction is
/// cheap; recording is guarded behind the registry's enabled flag.
#[derive(Clone, Debug)]
pub struct RetryMetrics {
    registry: MetricsRegistry,
    retries: Counter,
    breaker_opens: Counter,
    breaker_closes: Counter,
}

impl RetryMetrics {
    /// Register the retry/breaker counters for `source` in `registry`.
    pub fn new(registry: &MetricsRegistry, source: &str) -> Self {
        RetryMetrics {
            registry: registry.clone(),
            retries: registry.counter(
                "mix_retries_total",
                "Transient LXP errors retried away",
                &[("source", source)],
            ),
            breaker_opens: registry.counter(
                "mix_breaker_opens_total",
                "Circuit-breaker openings (source quarantined)",
                &[("source", source)],
            ),
            breaker_closes: registry.counter(
                "mix_breaker_closes_total",
                "Circuit-breaker closings (half-open probe succeeded)",
                &[("source", source)],
            ),
        }
    }

    /// Record one retried attempt.
    #[inline]
    pub fn record_retry(&self) {
        if self.registry.is_enabled() {
            self.retries.inc();
        }
    }

    /// Record one breaker opening.
    #[inline]
    pub fn record_breaker_open(&self) {
        if self.registry.is_enabled() {
            self.breaker_opens.inc();
        }
    }

    /// Record one breaker closing (a successful half-open probe).
    #[inline]
    pub fn record_breaker_close(&self) {
        if self.registry.is_enabled() {
            self.breaker_closes.inc();
        }
    }
}

/// Per-wrapper batched-exchange metric handles, recorded at the same
/// sites that emit `TraceKind::WrapperFill`. One exchange increments
/// `mix_wrapper_fills_total` and adds the per-hole items shipped
/// (requested plus pushed continuations) to
/// `mix_wrapper_fill_items_total` — their ratio is the wrapper-side view
/// of batching effectiveness.
#[derive(Clone, Debug)]
pub struct WrapperMetrics {
    registry: MetricsRegistry,
    fills: Counter,
    items: Counter,
}

impl WrapperMetrics {
    /// Register the two series for this `(wrapper, source)` in `registry`.
    pub fn new(registry: &MetricsRegistry, wrapper: &'static str, source: &str) -> Self {
        let l = &[("wrapper", wrapper), ("source", source)][..];
        WrapperMetrics {
            registry: registry.clone(),
            fills: registry.counter(
                "mix_wrapper_fills_total",
                "Batched fill exchanges answered by the wrapper",
                l,
            ),
            items: registry.counter(
                "mix_wrapper_fill_items_total",
                "Per-hole items shipped across batched exchanges",
                l,
            ),
        }
    }

    /// Record one batched exchange that shipped `items` per-hole replies.
    #[inline]
    pub fn record_fill(&self, items: u64) {
        if self.registry.is_enabled() {
            self.fills.inc();
            self.items.add(items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.add(3);
        c2.inc();
        assert_eq!(c.get(), 4);
        let g = Gauge::new();
        g.add(10);
        assert_eq!(g.sub_saturating(3), 3);
        assert_eq!(g.get(), 7);
        assert_eq!(g.sub_saturating(100), 7, "saturates and reports the applied delta");
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn log2_bucketing_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound is ≥ the value.
        for v in [0u64, 1, 5, 100, 1023, 1024, 1 << 40, u64::MAX] {
            assert!(bucket_bound(bucket_index(v)) >= v, "{v}");
        }
    }

    #[test]
    fn histogram_quantiles_read_bucket_bounds() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        // p50 ≈ 50 → bucket bound 63; p99 ≈ 99 → bucket bound 127, capped
        // at the exact max.
        assert_eq!(snap.quantile(0.5), 63);
        assert_eq!(snap.quantile(0.99), 100);
        assert_eq!(snap.quantile(1.0), 100);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0, "empty histogram");
    }

    #[test]
    fn registry_upserts_shared_series() {
        let reg = MetricsRegistry::enabled();
        let a = reg.counter("mix_x_total", "x", &[("source", "s1")]);
        let b = reg.counter("mix_x_total", "x", &[("source", "s1")]);
        let other = reg.counter("mix_x_total", "x", &[("source", "s2")]);
        a.add(2);
        b.add(3);
        other.add(7);
        assert_eq!(reg.len(), 2, "same (name, labels) share one series");
        let snap = reg.snapshot();
        assert_eq!(snap.value("mix_x_total", &[("source", "s1")]), Some(5));
        assert_eq!(snap.total("mix_x_total"), 12);
    }

    #[test]
    fn bound_counters_are_the_same_cells() {
        let reg = MetricsRegistry::enabled();
        let c = Counter::new();
        c.add(9);
        reg.bind_counter("mix_y_total", "y", &[], &c);
        assert_eq!(reg.snapshot().value("mix_y_total", &[]), Some(9));
        c.add(1);
        assert_eq!(reg.snapshot().value("mix_y_total", &[]), Some(10));
        // Re-binding replaces the series.
        let c2 = Counter::new();
        reg.bind_counter("mix_y_total", "y", &[], &c2);
        assert_eq!(reg.snapshot().value("mix_y_total", &[]), Some(0));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn delta_since_subtracts_counters_and_histograms() {
        let reg = MetricsRegistry::enabled();
        let c = reg.counter("mix_c_total", "c", &[]);
        let h = reg.histogram("mix_h", "h", &[]);
        c.add(5);
        h.observe(10);
        let before = reg.snapshot();
        c.add(2);
        h.observe(10);
        h.observe(1000);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.value("mix_c_total", &[]), Some(2));
        let hd = delta.histogram("mix_h", &[]).unwrap();
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 1010);
    }

    #[test]
    fn disabled_registry_is_one_flag_read() {
        let reg = MetricsRegistry::default();
        assert!(!reg.is_enabled());
        reg.set_enabled(true);
        assert!(reg.is_enabled());
        reg.set_enabled(false);
        assert!(!reg.is_enabled());
    }

    #[test]
    fn prometheus_rendering_has_headers_buckets_and_labels() {
        let reg = MetricsRegistry::enabled();
        reg.counter("mix_req_total", "Requests", &[("source", "db")]).add(3);
        let h = reg.histogram("mix_lat", "Latency", &[("source", "db")]);
        h.observe(1);
        h.observe(5);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP mix_req_total Requests"));
        assert!(text.contains("# TYPE mix_req_total counter"));
        assert!(text.contains("mix_req_total{source=\"db\"} 3"));
        assert!(text.contains("# TYPE mix_lat histogram"));
        assert!(text.contains("mix_lat_bucket{source=\"db\",le=\"1\"} 1"));
        assert!(text.contains("mix_lat_bucket{source=\"db\",le=\"+Inf\"} 2"));
        assert!(text.contains("mix_lat_sum{source=\"db\"} 6"));
        assert!(text.contains("mix_lat_count{source=\"db\"} 2"));
    }

    #[test]
    fn json_export_is_valid_shape() {
        let reg = MetricsRegistry::enabled();
        reg.counter("mix_a_total", "a", &[("k", "v\"q")]).add(1);
        reg.histogram("mix_b", "b", &[]).observe(3);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"mix_a_total\""));
        assert!(json.contains("\\\"q"), "label values are escaped: {json}");
        assert!(json.contains("\"buckets\":[[3,1]]"));
    }

    #[test]
    fn retry_metrics_record_only_when_enabled() {
        let reg = MetricsRegistry::default();
        let m = RetryMetrics::new(&reg, "db");
        m.record_retry();
        assert_eq!(reg.snapshot().total("mix_retries_total"), 0);
        reg.set_enabled(true);
        m.record_retry();
        m.record_breaker_open();
        let snap = reg.snapshot();
        assert_eq!(snap.value("mix_retries_total", &[("source", "db")]), Some(1));
        assert_eq!(snap.value("mix_breaker_opens_total", &[("source", "db")]), Some(1));
    }

    #[test]
    fn unregister_removes_exactly_one_series() {
        let reg = MetricsRegistry::enabled();
        let c = reg.counter("mix_cmds_total", "cmds", &[("session", "1")]);
        reg.counter("mix_cmds_total", "cmds", &[("session", "2")]).add(7);
        assert_eq!(reg.len(), 2);
        assert!(reg.unregister("mix_cmds_total", &[("session", "1")]));
        assert!(!reg.unregister("mix_cmds_total", &[("session", "1")]), "already gone");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.snapshot().value("mix_cmds_total", &[("session", "2")]), Some(7));
        // The handle still works — it is just no longer exported.
        c.add(1);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn unregister_labeled_sweeps_a_whole_session() {
        let reg = MetricsRegistry::enabled();
        reg.counter("mix_a_total", "a", &[("session", "9"), ("kind", "d")]);
        reg.gauge("mix_b", "b", &[("session", "9")]);
        reg.counter("mix_a_total", "a", &[("session", "10")]);
        assert_eq!(reg.unregister_labeled("session", "9"), 2);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.unregister_labeled("session", "9"), 0);
    }
}
