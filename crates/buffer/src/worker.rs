//! Background prefetch workers: speculative fills off the client's
//! critical path.
//!
//! §4: "a buffer can be used to decouple the client-driven view navigation
//! ('pull from above') and the production of results by the wrapped source
//! ('push from below') based on an asynchronous prefetching strategy."
//!
//! [`ConcurrentPrefetcher`] is that strategy as a wrapper adapter:
//! dedicated worker threads chase hole continuations *behind the client
//! cursor*. Every reply (the client's or a worker's) seeds the work queue
//! with the holes it contains, and workers fill them while the client is
//! busy elsewhere — navigation latency approaches the max of the
//! outstanding source latencies instead of their sum. A later client fill
//! that hits the speculative cache never touches the wrapped wrapper; the
//! miss count is the number of round trips the client actually waited
//! for. With zero workers the adapter speculates nothing and only
//! deduplicates.
//!
//! # Fill-once discipline
//!
//! Correctness of the differential story ("parallel ≡ sequential traffic
//! after quiesce") rests on one invariant: **every hole crosses the wire
//! at most once**, no matter who asks. A `done` set claims each hole
//! under the state lock before any exchange; a client asking for a hole a
//! worker is already filling *rendezvouses* (waits on the condvar for
//! that in-flight fill) instead of duplicating the exchange. A failed
//! speculative fill un-claims the hole — the client's own retried fill
//! then faces the error on the critical path with its own (deterministic,
//! per-attempt) fault draws.
//!
//! # Lock hierarchy
//!
//! Two locks, never nested: `state` (queue/cache/claims — held briefly)
//! and `wire` (the wrapped wrapper — held for the duration of one
//! exchange, serializing exchanges *per source*; cross-source parallelism
//! comes from each source owning its own prefetcher). All bookkeeping
//! transitions happen `state → unlock → wire → unlock → state`.
//!
//! # Quiesce
//!
//! [`ConcurrentPrefetcher::quiesce`] blocks until no exchange is in
//! flight and no runnable work remains, making wrapper-level traffic
//! counters stable for exact comparisons. [`Drop`] stops and joins the
//! workers, so no exchange ever outlives the adapter.
//!
//! # Panic containment
//!
//! A wrapper that panics mid-exchange must not take the pool — let alone
//! the process — with it. Every wire exchange runs under `catch_unwind`
//! (`exchange_protected`), converting a panic into
//! [`LxpError::SourceError`]: a panicking *speculative* fill is absorbed
//! like a failed one (the hole is un-claimed, the failure counted, the
//! worker keeps serving); a panicking *client-path* exchange surfaces as
//! a typed error on the existing retry/health path, with the hole
//! un-claimed so a retry can cross the wire. All shared locks are taken
//! with
//! [`lock_unpoisoned`], so state another
//! thread poisoned by panicking is recovered, not propagated —
//! `halt_workers`/[`Drop`]/[`quiesce`](ConcurrentPrefetcher::quiesce) can
//! therefore never double-panic, and one bad session in a server cannot
//! poison its neighbours.

use crate::fragment::Fragment;
use crate::health::SourceHealth;
use crate::lxp::{BatchItem, HoleId, LxpError, LxpWrapper};
use crate::pool::{lock_unpoisoned, wait_unpoisoned};
use crate::trace::{TraceKind, TraceSink};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Run one wire exchange under the wire lock, converting a panic in the
/// wrapper into an [`LxpError::SourceError`] so callers can handle "the
/// wrapper blew up" and "the wrapper failed" through one recovery path.
fn exchange_protected<W, T>(
    shared: &Shared<W>,
    op: impl FnOnce(&mut W) -> Result<T, LxpError>,
) -> Result<T, LxpError> {
    let exchange = || op(&mut lock_unpoisoned(&shared.wire));
    match catch_unwind(AssertUnwindSafe(exchange)) {
        Ok(result) => result,
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(LxpError::SourceError(format!("wrapper panicked: {what}")))
        }
    }
}

/// Cached-but-unconsumed replies a prefetcher will hold before workers
/// pause (backpressure against runaway speculation).
pub const DEFAULT_PREFETCH_CAP: usize = 4096;

#[derive(Default)]
struct State {
    /// Completed speculative replies awaiting consumption.
    cache: HashMap<HoleId, Vec<Fragment>>,
    /// Holes scheduled for speculative filling.
    queue: VecDeque<HoleId>,
    /// Mirror of `queue` for O(1) duplicate suppression.
    queued: HashSet<HoleId>,
    /// Holes whose wire exchange is happening right now.
    in_flight: HashSet<HoleId>,
    /// Holes ever claimed for a wire exchange (the fill-once set).
    done: HashSet<HoleId>,
}

impl State {
    /// Schedule every hole inside `fragments` for speculative filling.
    fn seed_from(&mut self, fragments: &[Fragment]) {
        let mut stack: Vec<&Fragment> = fragments.iter().collect();
        while let Some(f) = stack.pop() {
            match f {
                Fragment::Hole(h) => {
                    if !self.done.contains(h) && !self.queued.contains(h) {
                        self.queued.insert(h.clone());
                        self.queue.push_back(h.clone());
                    }
                }
                Fragment::Node { children, .. } => stack.extend(children.iter()),
            }
        }
    }

    /// Is there work a worker could start right now (respecting the
    /// cache cap)?
    fn runnable(&self) -> bool {
        !self.queue.is_empty() && self.cache.len() < DEFAULT_PREFETCH_CAP
    }
}

struct Shared<W> {
    wire: Mutex<W>,
    state: Mutex<State>,
    cv: Condvar,
    stop: AtomicBool,
    source: String,
    health: SourceHealth,
    trace: TraceSink,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    prefetched: AtomicU64,
    failures: AtomicU64,
}

/// An [`LxpWrapper`] adapter that fills holes speculatively on background
/// worker threads (see module docs). Slots under a
/// [`BufferNavigator`](crate::BufferNavigator) like any other wrapper.
pub struct ConcurrentPrefetcher<W: LxpWrapper + Send + 'static> {
    /// `Some` for the adapter's whole life; taken only by `into_inner`.
    shared: Option<Arc<Shared<W>>>,
    workers: Vec<JoinHandle<()>>,
}

impl<W: LxpWrapper + Send + 'static> ConcurrentPrefetcher<W> {
    /// Wrap `inner` with `workers` background fill threads. `workers == 0`
    /// is allowed: the adapter then only deduplicates (no speculation).
    pub fn new(inner: W, workers: usize) -> Self {
        let shared = Arc::new(Shared {
            wire: Mutex::new(inner),
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            source: String::new(),
            health: SourceHealth::new(),
            trace: TraceSink::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            prefetched: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        });
        let mut this = ConcurrentPrefetcher { shared: Some(shared), workers: Vec::new() };
        this.spawn_workers(workers);
        this
    }

    #[inline]
    fn sh(&self) -> &Arc<Shared<W>> {
        self.shared.as_ref().expect("shared block present until into_inner")
    }

    /// Report degraded speculative fills into `health` (prefetch failures
    /// only — best-effort work never degrades the answer).
    pub fn with_health(self, health: SourceHealth) -> Self {
        self.rebuild_shared(|s| s.health = health)
    }

    /// Emit `prefetch-hit`/`prefetch-miss`/`prefetch-fail` events for
    /// `source` into `sink`.
    pub fn with_trace(self, source: impl Into<String>, sink: TraceSink) -> Self {
        let source = source.into();
        self.rebuild_shared(move |s| {
            s.source = source;
            s.trace = sink;
        })
    }

    /// Builder plumbing: halts the workers (making the `Arc` unique),
    /// edits the shared block, and restarts the same number of workers.
    fn rebuild_shared(mut self, edit: impl FnOnce(&mut Shared<W>)) -> Self {
        let workers = self.workers.len();
        self.halt_workers();
        let shared =
            Arc::get_mut(self.shared.as_mut().expect("present")).expect("no worker holds the Arc");
        shared.stop = AtomicBool::new(false);
        edit(shared);
        self.spawn_workers(workers);
        self
    }

    fn spawn_workers(&mut self, n: usize) {
        for _ in 0..n {
            let shared = Arc::clone(self.sh());
            self.workers.push(std::thread::spawn(move || worker_loop(shared)));
        }
    }

    fn halt_workers(&mut self) {
        let Some(shared) = self.shared.as_ref() else { return };
        {
            // The store must happen under the state lock: a worker between
            // its `stop` check and `cv.wait` holds that lock, so a bare
            // store+notify here could land in that window and be lost —
            // the worker would sleep through shutdown and `join` would
            // hang. Holding the lock forces the worker to either see the
            // flag on its next check or be parked where notify reaches it.
            let _state = lock_unpoisoned(&shared.state);
            shared.stop.store(true, Ordering::Release);
        }
        shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Block until no exchange is in flight and no runnable speculative
    /// work remains. After this returns (and until the next exchange),
    /// wrapper-level traffic counters are stable. Without workers nothing
    /// speculative ever runs, so there is nothing to wait for.
    pub fn quiesce(&self) {
        if self.workers.is_empty() {
            return;
        }
        let shared = self.sh();
        let mut state = lock_unpoisoned(&shared.state);
        while !state.in_flight.is_empty() || state.runnable() {
            state = wait_unpoisoned(&shared.cv, state);
        }
    }

    /// Stop the workers and recover the wrapped wrapper.
    pub fn into_inner(mut self) -> W {
        self.halt_workers();
        let shared = self.shared.take().expect("present");
        match Arc::try_unwrap(shared) {
            Ok(s) => s.wire.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner),
            Err(_) => panic!("worker still holds the shared block after join"),
        }
    }

    /// Fills answered from the speculative cache (no critical-path wire).
    pub fn hits(&self) -> u64 {
        self.sh().hits.load(Ordering::Relaxed)
    }

    /// Fills that went to the wire on the critical path.
    pub fn misses(&self) -> u64 {
        self.sh().misses.load(Ordering::Relaxed)
    }

    /// Fills that rendezvoused with an in-flight speculative exchange.
    pub fn waits(&self) -> u64 {
        self.sh().waits.load(Ordering::Relaxed)
    }

    /// Speculative wire fills completed by workers.
    pub fn prefetched(&self) -> u64 {
        self.sh().prefetched.load(Ordering::Relaxed)
    }

    /// Speculative wire fills that failed (best-effort, un-claimed).
    pub fn failures(&self) -> u64 {
        self.sh().failures.load(Ordering::Relaxed)
    }

    /// Replies sitting in the speculative cache right now.
    pub fn cached(&self) -> usize {
        lock_unpoisoned(&self.sh().state).cache.len()
    }
}

impl<W: LxpWrapper + Send + 'static> Drop for ConcurrentPrefetcher<W> {
    fn drop(&mut self) {
        self.halt_workers();
    }
}

fn worker_loop<W: LxpWrapper + Send + 'static>(shared: Arc<Shared<W>>) {
    loop {
        let hole = {
            let mut state = lock_unpoisoned(&shared.state);
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if state.cache.len() < DEFAULT_PREFETCH_CAP {
                    if let Some(h) = state.queue.pop_front() {
                        state.queued.remove(&h);
                        if state.done.contains(&h) {
                            continue; // someone filled it while queued
                        }
                        state.done.insert(h.clone());
                        state.in_flight.insert(h.clone());
                        break h;
                    }
                }
                // Nothing runnable: tell quiescers, then sleep.
                shared.cv.notify_all();
                state = wait_unpoisoned(&shared.cv, state);
            }
        };
        let result = exchange_protected(&shared, |wire| wire.fill(&hole));
        let mut state = lock_unpoisoned(&shared.state);
        state.in_flight.remove(&hole);
        match result {
            Ok(fragments) => {
                shared.prefetched.fetch_add(1, Ordering::Relaxed);
                state.seed_from(&fragments);
                state.cache.insert(hole, fragments);
            }
            Err(e) => {
                // Un-claim: the client's own fill faces the error (and any
                // retries) on the critical path.
                state.done.remove(&hole);
                shared.failures.fetch_add(1, Ordering::Relaxed);
                shared.health.record_prefetch_failure();
                if shared.trace.is_enabled() {
                    shared.trace.emit(
                        Some(&shared.source),
                        TraceKind::PrefetchFail { hole: hole.clone(), error: e.to_string() },
                    );
                }
            }
        }
        shared.cv.notify_all();
    }
}

impl<W: LxpWrapper + Send + 'static> LxpWrapper for ConcurrentPrefetcher<W> {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        let shared = Arc::clone(self.sh());
        let root = exchange_protected(&shared, |wire| wire.get_root(uri))?;
        // Seed the chase: workers start pulling the document toward the
        // client before its first fill even arrives.
        let mut state = lock_unpoisoned(&shared.state);
        if !state.done.contains(&root) && !state.queued.contains(&root) {
            state.queued.insert(root.clone());
            state.queue.push_back(root.clone());
            shared.cv.notify_all();
        }
        Ok(root)
    }

    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        let shared = Arc::clone(self.sh());
        let mut state = lock_unpoisoned(&shared.state);
        loop {
            if let Some(fragments) = state.cache.remove(hole) {
                shared.hits.fetch_add(1, Ordering::Relaxed);
                if shared.trace.is_enabled() {
                    shared
                        .trace
                        .emit(Some(&shared.source), TraceKind::PrefetchHit { hole: hole.clone() });
                }
                shared.cv.notify_all(); // cache shrank: wake workers
                return Ok(fragments);
            }
            if state.in_flight.contains(hole) {
                shared.waits.fetch_add(1, Ordering::Relaxed);
                state = wait_unpoisoned(&shared.cv, state);
                continue;
            }
            // Claim it ourselves.
            state.done.insert(hole.clone());
            state.in_flight.insert(hole.clone());
            break;
        }
        drop(state);
        shared.misses.fetch_add(1, Ordering::Relaxed);
        if shared.trace.is_enabled() {
            shared.trace.emit(Some(&shared.source), TraceKind::PrefetchMiss { hole: hole.clone() });
        }
        let result = exchange_protected(&shared, |wire| wire.fill(hole));
        let mut state = lock_unpoisoned(&shared.state);
        state.in_flight.remove(hole);
        match &result {
            Ok(fragments) => {
                state.seed_from(fragments);
            }
            Err(_) => {
                // Un-claim so a retry can cross the wire again.
                state.done.remove(hole);
            }
        }
        shared.cv.notify_all();
        result
    }

    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        // Rendezvous with any in-flight speculative fills, then split the
        // batch into cache-served holes and a residual wire batch.
        let shared = Arc::clone(self.sh());
        let mut served: HashMap<HoleId, Vec<Fragment>> = HashMap::new();
        let mut residual: Vec<HoleId> = Vec::new();
        {
            let mut state = lock_unpoisoned(&shared.state);
            for h in holes {
                while state.in_flight.contains(h) {
                    shared.waits.fetch_add(1, Ordering::Relaxed);
                    state = wait_unpoisoned(&shared.cv, state);
                }
                if let Some(frags) = state.cache.remove(h) {
                    shared.hits.fetch_add(1, Ordering::Relaxed);
                    served.insert(h.clone(), frags);
                } else if !served.contains_key(h) && !residual.contains(h) {
                    state.done.insert(h.clone());
                    state.in_flight.insert(h.clone());
                    residual.push(h.clone());
                }
            }
            if !served.is_empty() {
                shared.cv.notify_all();
            }
        }
        let wire_reply = if residual.is_empty() {
            Ok(Vec::new())
        } else {
            shared.misses.fetch_add(residual.len() as u64, Ordering::Relaxed);
            exchange_protected(&shared, |wire| wire.fill_many(&residual))
        };
        let mut state = lock_unpoisoned(&shared.state);
        for h in &residual {
            state.in_flight.remove(h);
        }
        let mut items = match wire_reply {
            Ok(items) => items,
            Err(e) => {
                // Put back what we took so nothing is lost, and un-claim
                // the residual for the retry.
                for h in &residual {
                    state.done.remove(h);
                }
                for (h, frags) in served {
                    state.cache.insert(h, frags);
                }
                shared.cv.notify_all();
                return Err(e);
            }
        };
        for item in &items {
            state.seed_from(&item.fragments);
        }
        shared.cv.notify_all();
        drop(state);
        // Reassemble in request order: one item per requested hole first
        // (LXP contract), then the wire's continuation items.
        let continuations = items.split_off(residual.len().min(items.len()));
        let mut by_hole: HashMap<HoleId, Vec<Fragment>> =
            items.into_iter().map(|it| (it.hole, it.fragments)).collect();
        by_hole.extend(served);
        let mut out = Vec::with_capacity(holes.len() + continuations.len());
        for h in holes {
            if let Some(frags) = by_hole.remove(h) {
                out.push(BatchItem { hole: h.clone(), fragments: frags });
            }
        }
        out.extend(continuations);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferNavigator;
    use crate::fault::{FaultConfig, FaultyWrapper};
    use crate::lxp::collect_holes;
    use crate::retry::RetryPolicy;
    use crate::treewrap::{FillPolicy, TreeWrapper};
    use mix_nav::explore::materialize;
    use mix_nav::Navigator;
    use mix_xml::term::parse_term;

    const TERM: &str = "view[a[x,y],b[z],c,d[w[u],v]]";

    fn wrapper() -> TreeWrapper {
        TreeWrapper::single(&parse_term(TERM).unwrap(), FillPolicy::NodeAtATime)
    }

    #[test]
    fn answers_stay_exact_under_background_prefetch() {
        let mut nav =
            BufferNavigator::new(ConcurrentPrefetcher::new(wrapper(), 3), "doc");
        assert_eq!(materialize(&mut nav).to_string(), TERM);
    }

    #[test]
    fn quiesce_then_counters_account_every_hole_once() {
        let pf = ConcurrentPrefetcher::new(wrapper(), 2);
        let mut nav = BufferNavigator::new(pf, "doc");
        assert_eq!(materialize(&mut nav).to_string(), TERM);
        let pf = nav.into_wrapper();
        pf.quiesce();
        // Every wire fill is either a client miss or a worker prefetch;
        // hits + misses == buffer-issued fills, and no hole crossed twice.
        let client_fills = pf.hits() + pf.misses();
        let wire_fills = pf.misses() + pf.prefetched();
        let seq = {
            let mut nav = BufferNavigator::new(wrapper(), "doc");
            let _ = materialize(&mut nav);
            nav.stats().snapshot().fills
        };
        assert_eq!(client_fills, seq, "buffer issued the same fills as sequential");
        assert!(wire_fills >= seq, "chasing may run ahead, never behind");
        assert_eq!(pf.cached() as u64, wire_fills - client_fills, "surplus is cached, not lost");
    }

    #[test]
    fn speculative_failures_unclaim_and_let_the_client_retry() {
        let faulty = FaultyWrapper::new(wrapper(), FaultConfig::transient(5, 0.3));
        let stats = faulty.stats();
        let pf = ConcurrentPrefetcher::new(faulty, 2);
        let mut nav = BufferNavigator::with_retry(
            pf,
            "doc",
            RetryPolicy { max_attempts: 32, ..RetryPolicy::default() },
        );
        assert_eq!(materialize(&mut nav).to_string(), TERM, "faults retried away");
        assert!(stats.snapshot().requests > 0);
    }

    #[test]
    fn zero_workers_degenerates_to_passthrough() {
        let sink = TraceSink::enabled(256);
        let pf = ConcurrentPrefetcher::new(wrapper(), 0).with_trace("doc", sink.clone());
        let mut nav = BufferNavigator::new(pf, "doc");
        assert_eq!(materialize(&mut nav).to_string(), TERM);
        let pf = nav.into_wrapper();
        assert_eq!(pf.prefetched(), 0);
        assert_eq!(pf.hits(), 0);
        let traced_misses = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::PrefetchMiss { .. }))
            .count() as u64;
        assert_eq!(traced_misses, pf.misses(), "every critical-path fill is traced as a miss");
        // Wrapper errors pass straight through.
        let mut pf = ConcurrentPrefetcher::new(wrapper(), 0);
        assert!(pf.get_root("nope").is_err());
        assert!(pf.fill(&"garbage".to_string()).is_err());
    }

    #[test]
    fn quiesced_readahead_leaves_no_fill_on_the_critical_path() {
        // `get_root` seeds the chase and the workers pull the whole
        // document; once they are quiescent a client scan — the root via
        // the batched entry point, the rest hole by hole — is answered
        // entirely from the speculative cache, with no further wire fill.
        let sink = TraceSink::enabled(256);
        let mut pf = ConcurrentPrefetcher::new(wrapper(), 2).with_trace("doc", sink.clone());
        let root = pf.get_root("doc").unwrap();
        pf.quiesce();
        let prefetched = pf.prefetched();
        assert!(prefetched > 0 && pf.cached() as u64 == prefetched);
        let items = pf.fill_many(std::slice::from_ref(&root)).unwrap();
        assert_eq!(items[0].hole, root);
        let mut queue = Vec::new();
        collect_holes(&items[0].fragments, &mut queue);
        while let Some(h) = queue.pop() {
            let reply = pf.fill(&h).unwrap();
            collect_holes(&reply, &mut queue);
        }
        assert_eq!(pf.misses(), 0, "the client never waited for the wire");
        assert_eq!(pf.hits(), prefetched, "every speculative reply was consumed");
        assert_eq!(pf.prefetched(), prefetched, "…and nothing crossed the wire twice");
        assert!(sink.events().iter().any(|e| matches!(e.kind, TraceKind::PrefetchHit { .. })));
    }

    #[test]
    fn speculation_never_launders_a_protocol_violation() {
        // Workers cache whatever the wrapper answers, violating replies
        // included; the buffer's own progress check still faces them when
        // the client really asks.
        struct Bad;
        impl LxpWrapper for Bad {
            fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
                Ok("0".into())
            }
            fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                Ok(match hole.as_str() {
                    "0" => vec![Fragment::node("r", vec![Fragment::hole("1")])],
                    _ => vec![Fragment::hole("x"), Fragment::hole("y")],
                })
            }
        }
        let mut nav = BufferNavigator::new(ConcurrentPrefetcher::new(Bad, 2), "doc");
        let root = nav.root();
        assert_eq!(nav.down(&root), None, "the violating reply degrades");
        let err = nav.last_degraded().expect("cause recorded");
        assert!(err.contains("protocol violation"), "{err}");
    }

    #[test]
    fn into_inner_recovers_the_wrapper_after_joining() {
        let pf = ConcurrentPrefetcher::new(wrapper(), 4);
        let mut inner = pf.into_inner();
        assert!(inner.get_root("doc").is_ok(), "wrapper survives the teardown");
    }

    #[test]
    fn teardown_never_hangs_while_workers_race_the_stop_flag() {
        // Churn construction and teardown while workers are mid-transition
        // between claiming work and parking on the condvar: the stop flag
        // is published under the state lock, so no worker can park through
        // a shutdown notification and wedge the join.
        for round in 0..200 {
            let mut pf = ConcurrentPrefetcher::new(wrapper(), 2);
            if round % 2 == 0 {
                let _ = pf.get_root("doc"); // seed the queue → workers wake
            }
            drop(pf); // must always join promptly
        }
    }

    #[test]
    fn batched_fills_merge_cache_and_wire() {
        let inner = TreeWrapper::single(&parse_term(TERM).unwrap(), FillPolicy::Chunked { n: 2 });
        let pf = ConcurrentPrefetcher::new(inner, 2);
        let mut nav = BufferNavigator::new(pf, "doc").batched(4);
        assert_eq!(materialize(&mut nav).to_string(), TERM);
    }

    /// Delegating wrapper whose first `panics_left` fills panic outright —
    /// the injection instrument for the poison-cascade regression tests.
    struct PanicOnFill<W> {
        inner: W,
        panics_left: u64,
    }

    impl<W: LxpWrapper> LxpWrapper for PanicOnFill<W> {
        fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
            self.inner.get_root(uri)
        }

        fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
            if self.panics_left > 0 {
                self.panics_left -= 1;
                panic!("injected wrapper panic");
            }
            self.inner.fill(hole)
        }
    }

    #[test]
    fn panicking_worker_closure_still_quiesces_and_joins() {
        // Every speculative fill panics. Pre-fix this poisoned the shared
        // state and wedged/poisoned quiesce + Drop; now the panic is
        // absorbed as a prefetch failure and the pool stays serviceable.
        let inner = PanicOnFill { inner: wrapper(), panics_left: u64::MAX };
        let health = SourceHealth::new();
        let sink = TraceSink::enabled(64);
        let mut pf = ConcurrentPrefetcher::new(inner, 2)
            .with_health(health.clone())
            .with_trace("doc", sink.clone());
        let root = pf.get_root("doc").expect("root exchange does not fill");
        pf.quiesce();
        assert!(pf.failures() >= 1, "panicked speculative fill counted as failure");
        // Skipped, but never silently: reported to health (without
        // degrading the answer) and recorded by the flight recorder.
        assert_eq!(health.snapshot().prefetch_failures, pf.failures());
        assert_eq!(health.status(), crate::health::HealthStatus::Healthy);
        let fails: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceKind::PrefetchFail { .. }))
            .collect();
        assert_eq!(fails.len() as u64, pf.failures());
        assert!(matches!(
            &fails[0].kind,
            TraceKind::PrefetchFail { hole, error } if *hole == root && error.contains("panicked")
        ));
        assert_eq!(fails[0].source.as_deref(), Some("doc"), "tagged with the source");
        // The client's own fill meets the panic as a typed error, not an
        // unwind — and the hole stays claimable for retries.
        let err = pf.fill(&root).unwrap_err();
        assert!(err.to_string().contains("panicked"), "typed panic error: {err}");
        drop(pf); // must join cleanly, never double-panic
    }

    #[test]
    fn client_path_panic_unclaims_and_retry_succeeds() {
        let inner = PanicOnFill { inner: wrapper(), panics_left: 1 };
        let mut pf = ConcurrentPrefetcher::new(inner, 0); // no speculation: deterministic path
        let root = pf.get_root("doc").unwrap();
        let err = pf.fill(&root).unwrap_err();
        assert!(matches!(err, LxpError::SourceError(_)), "panic became a source error");
        let frags = pf.fill(&root).expect("un-claimed hole crossed the wire on retry");
        assert!(!frags.is_empty());
    }

    #[test]
    fn panics_retried_away_like_faults() {
        // End-to-end: sporadic wrapper panics behave exactly like injected
        // transient faults — the navigator's retry policy absorbs them and
        // the answer stays exact.
        let inner = PanicOnFill { inner: wrapper(), panics_left: 3 };
        let pf = ConcurrentPrefetcher::new(inner, 2);
        let mut nav = BufferNavigator::with_retry(
            pf,
            "doc",
            RetryPolicy { max_attempts: 32, ..RetryPolicy::default() },
        );
        assert_eq!(materialize(&mut nav).to_string(), TERM);
    }
}
