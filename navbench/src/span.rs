//! The traced pass's span recorder.
//!
//! Spans are recorded from this benchmark's own files, around calls into
//! each layer's public functions (see `interpose.rs`). Every thread keeps
//! its own recorder: a stack of open spans, running totals per span kind
//! (count, time, self time) and the first [`RETAINED_PER_THREAD`] spans in
//! full, which are written to `<workload>.spans.jsonl` when the run ends.
//! Self time is a span's duration minus the part of it its children
//! cover; on one thread spans nest strictly, so the running totals get it
//! from the stack, and [`self_times`] computes it for arbitrary (also
//! overlapping) children when the retained spans are written out.

use crate::stats::Decimated;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept in full per thread; later ones only feed the totals.
pub const RETAINED_PER_THREAD: usize = 100_000;

macro_rules! kinds {
    ($($variant:ident => $name:literal, $samples:literal;)*) => {
        /// Where a span was recorded. The name's prefix is the layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Kind { $($variant,)* }

        impl Kind {
            pub const ALL: &'static [Kind] = &[$(Kind::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(Kind::$variant => $name,)* }
            }

            /// Whether individual durations are kept (for percentiles).
            fn keeps_samples(self) -> bool {
                match self { $(Kind::$variant => $samples,)* }
            }
        }
    };
}

kinds! {
    // Client thread, benchmark's own structure.
    Iteration => "bench.iteration", true;
    ColdWalk => "bench.cold_walk", false;
    WarmWalk => "bench.warm_walk", false;
    // Query compilation, timed around the public functions.
    XmasParse => "xmas.parse", true;
    AlgebraTranslate => "algebra.translate", true;
    AlgebraRewrite => "algebra.rewrite", true;
    BufferOpen => "buffer.open", true;
    EngineBuild => "core.engine_build", true;
    // One client command on an in-process engine.
    ClientNav => "core.nav", false;
    Teardown => "core.teardown", true;
    // One engine navigation on a source's buffer (`TimedNavigator`).
    SourceNav => "buffer.nav", false;
    // One LXP exchange (`Interposed` wrapper).
    WrapperFill => "wrappers.fill", true;
    XmlSerialize => "xml.serialize", true;
    CacheClear => "buffer.fragcache_clear", true;
    // Client side of the wire: one round trip per frame pair.
    ClientOpen => "serve.client_open", true;
    ClientRtt => "serve.client_nav", true;
    ClientClose => "serve.client_close", true;
    // Server side, in the benchmark's own connection loop.
    ServeRequest => "serve.request", true;
    CodecDecode => "serve.codec_decode", false;
    HandleOpen => "serve.handle_open", true;
    HandleNav => "serve.handle_nav", true;
    HandleClose => "serve.handle_close", true;
    CodecEncode => "serve.codec_encode", false;
    WireWrite => "serve.wire_write", false;
}

const KINDS: usize = Kind::ALL.len();
const NO_PARENT: u32 = u32::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTED: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

/// Tests that switch recording on hold this, so they do not switch it
/// off under one another.
#[cfg(test)]
pub static TEST_SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
    static UNRECORDED: Cell<bool> = const { Cell::new(false) };
}

/// Turn span recording on or off for every thread. Off, [`enter`] costs
/// one relaxed load.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    // Relaxed: the flag publishes no data; threads that should observe a
    // change are started, or synchronised by a barrier, after it.
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && !UNRECORDED.with(Cell::get)
}

/// Run `f` with recording off on this thread, whatever the switch says:
/// for work that is not part of what a traced window measures.
pub fn unrecorded<T>(f: impl FnOnce() -> T) -> T {
    let was = UNRECORDED.replace(true);
    let out = f();
    UNRECORDED.set(was);
    out
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span. `parent` indexes the same thread's retained spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub iteration: u32,
}

/// Running totals of one span kind.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Durations in ns, for kinds that keep samples.
    pub durations: Decimated,
}

impl Totals {
    fn merge(&mut self, other: Totals) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durations.merge(other.durations);
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub totals: Vec<Totals>,
    pub retained: Vec<SpanRec>,
}

struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    index: u32,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<Open>,
    totals: Vec<Totals>,
    retained: Vec<SpanRec>,
    iteration: u32,
}

impl Tracer {
    fn enter(&mut self, kind: Kind) {
        let start_ns = now_ns();
        let index = if self.retained.len() < RETAINED_PER_THREAD {
            let parent = self
                .stack
                .last()
                .map(|o| o.index)
                .filter(|&i| i != NO_PARENT);
            self.retained.push(SpanRec {
                kind,
                start_ns,
                end_ns: start_ns,
                parent,
                iteration: self.iteration,
            });
            (self.retained.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            kind,
            start_ns,
            child_ns: 0,
            index,
        });
    }

    fn exit(&mut self) {
        let end_ns = now_ns();
        let Some(open) = self.stack.pop() else { return };
        let duration = end_ns.saturating_sub(open.start_ns);
        let self_ns = duration.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if open.index != NO_PARENT {
            self.retained[open.index as usize].end_ns = end_ns;
        }
        if self.totals.is_empty() {
            self.totals.resize_with(KINDS, Totals::default);
        }
        let totals = &mut self.totals[open.kind as usize];
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += self_ns;
        if open.kind.keeps_samples() {
            totals.durations.push(duration as f64);
        }
    }
}

/// Closes its span when dropped.
pub struct Guard {
    active: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.active {
            TRACER.with(|t| t.borrow_mut().exit());
        }
    }
}

/// Open a span of `kind` on this thread; it closes when the guard drops.
#[must_use = "the span ends when the guard is dropped"]
pub fn enter(kind: Kind) -> Guard {
    if !enabled() {
        return Guard { active: false };
    }
    TRACER.with(|t| t.borrow_mut().enter(kind));
    Guard { active: true }
}

/// Run `f` inside a span of `kind`.
pub fn within<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    let _guard = enter(kind);
    f()
}

/// Tag the spans this thread opens from now on with an iteration number.
pub fn set_iteration(iteration: u32) {
    if enabled() {
        TRACER.with(|t| t.borrow_mut().iteration = iteration);
    }
}

/// Hand this thread's spans to the run's collection. Every thread that
/// recorded spans calls this before it ends.
pub fn flush_thread() {
    let tracer = TRACER.with(|t| std::mem::take(&mut *t.borrow_mut()));
    if tracer.totals.is_empty() && tracer.retained.is_empty() {
        return;
    }
    let trace = ThreadTrace {
        totals: tracer.totals,
        retained: tracer.retained,
    };
    COLLECTED
        .lock()
        .expect("no thread panics while holding the span collection")
        .push(trace);
}

/// Everything flushed so far, per thread, in flush order.
pub fn take_collected() -> Vec<ThreadTrace> {
    std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("no thread panics while holding the span collection"),
    )
}

/// Totals per kind, summed over threads.
pub fn merged_totals(threads: &mut [ThreadTrace]) -> Vec<Totals> {
    let mut merged = vec![Totals::default(); KINDS];
    for thread in threads {
        for (into, from) in merged.iter_mut().zip(std::mem::take(&mut thread.totals)) {
            into.merge(from);
        }
    }
    merged
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, clipped to the span. Children may overlap
/// each other or stick out of the parent (clocks read on two threads);
/// time covered twice is subtracted once.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One JSON object per retained span, thread by thread.
pub fn write_jsonl(
    threads: &[ThreadTrace],
    out: &mut impl std::io::Write,
) -> std::io::Result<usize> {
    let mut written = 0;
    for (thread, trace) in threads.iter().enumerate() {
        let selfs = self_times(&trace.retained);
        for (span, self_ns) in trace.retained.iter().zip(selfs) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"thread\": {thread}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"iteration\": {}, \"self_ns\": {self_ns}}}",
                span.kind.name(),
                span.start_ns,
                span.end_ns,
                span.iteration,
            )?;
            written += 1;
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start_ns: u64, end_ns: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            kind: Kind::ClientNav,
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..40 with grandchild 20..30; child 50..70.
        let spans = [
            rec(0, 100, None),
            rec(10, 40, Some(0)),
            rec(20, 30, Some(1)),
            rec(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), [50, 20, 10, 20]);
    }

    #[test]
    fn self_time_handles_overlapping_and_protruding_children() {
        // Children 10..50 and 30..80 overlap on 30..50; 90..130 sticks out
        // of the parent by 30; 200..210 lies wholly outside it.
        let spans = [
            rec(0, 100, None),
            rec(10, 50, Some(0)),
            rec(30, 80, Some(0)),
            rec(90, 130, Some(0)),
            rec(200, 210, Some(0)),
        ];
        // covered = (10..80) + (90..100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
        // A child that covers the whole parent leaves nothing.
        assert_eq!(self_times(&[rec(10, 20, None), rec(0, 40, Some(0))])[0], 0);
    }

    #[test]
    fn recorder_nests_and_totals_self_time() {
        // Its spans stay on this thread's recorder, which it drains itself.
        let _serial = TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        set_iteration(7);
        {
            let _root = enter(Kind::Iteration);
            for _ in 0..3 {
                let _nav = enter(Kind::ClientNav);
                within(Kind::SourceNav, || std::hint::black_box(1 + 1));
            }
            unrecorded(|| within(Kind::SourceNav, || assert!(!enabled())));
        }
        set_enabled(false);
        let tracer = TRACER.with(|t| std::mem::take(&mut *t.borrow_mut()));
        let root = &tracer.totals[Kind::Iteration as usize];
        let nav = &tracer.totals[Kind::ClientNav as usize];
        let src = &tracer.totals[Kind::SourceNav as usize];
        assert_eq!((root.count, nav.count, src.count), (1, 3, 3));
        assert_eq!(
            root.self_ns + nav.total_ns,
            root.total_ns,
            "root self = root - children"
        );
        assert_eq!(nav.self_ns + src.total_ns, nav.total_ns);
        assert_eq!(root.durations.seen(), 1, "iteration spans keep samples");
        assert!(nav.durations.is_empty(), "per-command spans do not");
        assert_eq!(tracer.retained.len(), 7);
        assert_eq!(tracer.retained[0].parent, None);
        assert_eq!(tracer.retained[2].parent, Some(1));
        assert!(tracer
            .retained
            .iter()
            .all(|s| s.iteration == 7 && s.end_ns >= s.start_ns));
        // Online self times agree with the offline computation.
        let offline: u64 = self_times(&tracer.retained).iter().sum();
        assert_eq!(
            offline, root.total_ns,
            "self times of a tree sum to its root"
        );
        let mut out = Vec::new();
        let threads = [ThreadTrace {
            totals: Vec::new(),
            retained: tracer.retained,
        }];
        assert_eq!(write_jsonl(&threads, &mut out).unwrap(), 7);
        let text = String::from_utf8(out).unwrap();
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"name\": \"bench.iteration\", \"thread\": 0,"));
        assert!(text.contains("\"parent\": null") && text.contains("\"parent\": 1"));
    }
}
