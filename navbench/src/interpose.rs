//! Benchmark-owned decorators on the program's public traits. Layers are
//! measured from outside: nothing under `crates/` knows it is being timed.
//!
//! * [`Interposed`] sits between a buffer and its `LxpWrapper`. It always
//!   counts exchanges and shipped bytes without reading a clock — that is
//!   where `source_exchanges_per_knav` and `source_bytes_per_knav` come
//!   from — and records a `wrappers.fill` span per exchange when tracing.
//! * [`TimedNavigator`] sits between the engine and a source's
//!   `BufferNavigator` (traced pass only): one `buffer.nav` span per
//!   source navigation.
//! * [`CountedStream`] sits under `VxdClient`: frames, write calls and
//!   bytes on the client's side of the socket.
//! * [`serve_traced`] is the traced pass's connection loop, built from
//!   the same public pieces as `VxdServer::serve_connection`, with a span
//!   around each.

use crate::span::{self, Kind};
use crate::stats::Decimated;
use mix_buffer::{BatchItem, Fragment, HoleId, LxpError, LxpWrapper};
use mix_nav::{LabelPred, Navigator};
use mix_serve::codec::{read_frame, write_frame};
use mix_serve::{ErrorCode, Reply, Request, Verb, VxdServer};
use mix_xml::Label;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// All counters below are statistics that publish no other data, so
// `Relaxed` is enough; they are read after the threads that bump them
// have been joined or have passed a barrier.
fn bump(cell: &AtomicU64, by: u64) {
    cell.fetch_add(by, Ordering::Relaxed);
}

fn read(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

/// What every source of a workload shipped, summed.
#[derive(Default)]
pub struct SourceCounters {
    exchanges: AtomicU64,
    bytes: AtomicU64,
    items: AtomicU64,
    records: AtomicU64,
    errors: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceSnapshot {
    /// `get_root`, `fill` and `fill_many` calls.
    pub exchanges: u64,
    /// `Fragment::wire_bytes` of everything replied.
    pub bytes: u64,
    /// Per-hole replies (a `fill_many` ships several per exchange).
    pub items: u64,
    /// Record elements (`row`, `home`, `school`) at the top of a reply;
    /// counted in the traced pass only.
    pub records: u64,
    pub errors: u64,
}

impl SourceCounters {
    pub fn snapshot(&self) -> SourceSnapshot {
        SourceSnapshot {
            exchanges: read(&self.exchanges),
            bytes: read(&self.bytes),
            items: read(&self.items),
            records: read(&self.records),
            errors: read(&self.errors),
        }
    }
}

impl SourceSnapshot {
    pub fn since(&self, earlier: &SourceSnapshot) -> SourceSnapshot {
        SourceSnapshot {
            exchanges: self.exchanges - earlier.exchanges,
            bytes: self.bytes - earlier.bytes,
            items: self.items - earlier.items,
            records: self.records - earlier.records,
            errors: self.errors - earlier.errors,
        }
    }
}

/// An `LxpWrapper` that counts what its inner wrapper ships.
pub struct Interposed<W> {
    inner: W,
    counters: Arc<SourceCounters>,
}

impl<W> Interposed<W> {
    pub fn new(inner: W, counters: Arc<SourceCounters>) -> Self {
        Interposed { inner, counters }
    }

    fn account<'a>(&self, replies: impl IntoIterator<Item = &'a [Fragment]>) {
        let count_records = span::enabled();
        let (mut items, mut bytes, mut records) = (0, 0, 0);
        for fragment in replies.into_iter().inspect(|_| items += 1).flatten() {
            bytes += fragment.wire_bytes() as u64;
            let is_record = |label: &Label| matches!(label.as_str(), "row" | "home" | "school");
            if count_records && matches!(fragment, Fragment::Node { label, .. } if is_record(label))
            {
                records += 1;
            }
        }
        let c = &self.counters;
        bump(&c.items, items);
        bump(&c.bytes, bytes);
        bump(&c.records, records);
    }

    fn exchange<T>(
        &mut self,
        call: impl FnOnce(&mut W) -> Result<T, LxpError>,
    ) -> Result<T, LxpError> {
        bump(&self.counters.exchanges, 1);
        let result = span::within(Kind::WrapperFill, || call(&mut self.inner));
        if result.is_err() {
            bump(&self.counters.errors, 1);
        }
        result
    }
}

impl<W: LxpWrapper> LxpWrapper for Interposed<W> {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        let hole = self.exchange(|w| w.get_root(uri))?;
        bump(
            &self.counters.bytes,
            Fragment::Hole(hole.clone()).wire_bytes() as u64,
        );
        Ok(hole)
    }

    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        let reply = self.exchange(|w| w.fill(hole))?;
        self.account([reply.as_slice()]);
        Ok(reply)
    }

    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        let reply = self.exchange(|w| w.fill_many(holes))?;
        self.account(reply.iter().map(|item| item.fragments.as_slice()));
        Ok(reply)
    }
}

/// A `Navigator` that records one `buffer.nav` span per command.
pub struct TimedNavigator<N> {
    inner: N,
}

impl<N> TimedNavigator<N> {
    pub fn new(inner: N) -> Self {
        TimedNavigator { inner }
    }
}

impl<N: Navigator> Navigator for TimedNavigator<N> {
    type Handle = N::Handle;

    fn root(&mut self) -> Self::Handle {
        self.inner.root()
    }

    fn down(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        span::within(Kind::SourceNav, || self.inner.down(p))
    }

    fn right(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        span::within(Kind::SourceNav, || self.inner.right(p))
    }

    fn fetch(&mut self, p: &Self::Handle) -> Label {
        span::within(Kind::SourceNav, || self.inner.fetch(p))
    }

    fn select(&mut self, p: &Self::Handle, pred: &LabelPred) -> Option<Self::Handle> {
        span::within(Kind::SourceNav, || self.inner.select(p, pred))
    }
}

/// Traffic on the client's side of one connection.
#[derive(Default)]
pub struct StreamCounters {
    pub write_calls: AtomicU64,
    pub bytes_written: AtomicU64,
    pub bytes_read: AtomicU64,
}

/// A transport that counts the calls and bytes that cross it while spans
/// are being recorded (the traced window, not its warm-up).
pub struct CountedStream<S> {
    inner: S,
    counters: Arc<StreamCounters>,
}

impl<S> CountedStream<S> {
    pub fn new(inner: S, counters: Arc<StreamCounters>) -> Self {
        CountedStream { inner, counters }
    }
}

impl<S: Read> Read for CountedStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if span::enabled() {
            bump(&self.counters.bytes_read, n as u64);
        }
        Ok(n)
    }
}

impl<S: Write> Write for CountedStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        if span::enabled() {
            bump(&self.counters.write_calls, 1);
            bump(&self.counters.bytes_written, n as u64);
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// What the traced connection loop shares with the client it serves.
#[derive(Default)]
pub struct ConnShared {
    /// The client's current iteration, so server-side spans carry it.
    pub iteration: AtomicU32,
    /// Request frames read and reply frames written.
    pub frames: AtomicU64,
    pub error_replies: AtomicU64,
    /// Time from a request frame fully read to its reply fully written,
    /// one entry per request, in arrival order. The client pairs the
    /// k-th entry with its k-th round trip (the loop is closed, and both
    /// logs are decimated in step).
    pub service_ns: Mutex<Decimated>,
}

/// Serve one connection like `VxdServer::serve_connection` does — read a
/// frame, decode, `handle`, encode, write — with a span around each step.
/// Sessions still open when the peer disconnects are closed.
pub fn serve_traced<S: Read + Write>(server: &VxdServer, mut stream: S, shared: &ConnShared) {
    let mut owned: HashSet<u64> = HashSet::new();
    let mut service_ns = Decimated::default();
    // Reading blocks until the client's next request: waiting, not work,
    // so it is outside every span.
    while let Ok(payload) = read_frame(&mut stream) {
        let read_done = Instant::now();
        // Read before the request is handled: the client logs a round
        // trip under the switch as it stood while the request was out (it
        // is thrown while the client waits at a barrier), and the reply
        // may leave before this thread gets to its own log.
        let logged = span::enabled();
        span::set_iteration(shared.iteration.load(Ordering::Relaxed));
        let request_span = span::enter(Kind::ServeRequest);
        let decoded = span::within(Kind::CodecDecode, || Request::decode(&payload));
        let reply = match decoded {
            Err(parse_err) => Reply::Error {
                code: ErrorCode::BadFrame,
                msg: parse_err.to_string(),
            },
            Ok(request) => {
                let kind = match request.verb {
                    Verb::Open { .. } => Kind::HandleOpen,
                    Verb::Close => Kind::HandleClose,
                    _ => Kind::HandleNav,
                };
                let reply = span::within(kind, || server.handle(&request));
                match &reply {
                    Reply::Opened { session, .. } => {
                        owned.insert(*session);
                    }
                    Reply::Closed
                    | Reply::Error {
                        code: ErrorCode::Internal,
                        ..
                    } => {
                        owned.remove(&request.session);
                    }
                    _ => {}
                }
                reply
            }
        };
        let encoded = span::within(Kind::CodecEncode, || reply.encode());
        let written = span::within(Kind::WireWrite, || write_frame(&mut stream, &encoded));
        drop(request_span);
        if logged {
            service_ns.push(read_done.elapsed().as_nanos() as f64);
            bump(&shared.frames, 2);
            if matches!(reply, Reply::Error { .. }) {
                bump(&shared.error_replies, 1);
            }
        }
        if written.is_err() {
            break;
        }
    }
    for session in owned {
        server.handle(&Request::new(session, Verb::Close));
    }
    *shared
        .service_ns
        .lock()
        .expect("the client only reads this after the loop ended") = service_ns;
    span::flush_thread();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_buffer::{FillPolicy, TreeWrapper};
    use mix_xml::term::parse_term;

    #[test]
    fn interposed_wrapper_counts_exchanges_and_wire_bytes() {
        let tree = parse_term("homes[home[zip[1]],home[zip[2]]]").unwrap();
        let counters = Arc::new(SourceCounters::default());
        let mut w = Interposed::new(
            TreeWrapper::single(&tree, FillPolicy::WholeSubtree),
            counters.clone(),
        );
        let root = w.get_root("doc").unwrap();
        let reply = w.fill(&root).unwrap();
        let shipped: usize = reply.iter().map(Fragment::wire_bytes).sum();
        let snap = counters.snapshot();
        assert_eq!((snap.exchanges, snap.items, snap.errors), (2, 1, 0));
        assert_eq!(
            snap.bytes as usize,
            shipped + Fragment::Hole(root).wire_bytes()
        );
        assert!(w.fill(&"no-such-hole".to_string()).is_err());
        let after = counters.snapshot().since(&snap);
        assert_eq!((after.exchanges, after.errors, after.bytes), (1, 1, 0));
    }

    #[test]
    fn counted_stream_counts_calls_and_bytes() {
        let _serial = span::TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        span::set_enabled(true);
        let counters = Arc::new(StreamCounters::default());
        let mut s = CountedStream::new(std::io::Cursor::new(Vec::new()), counters.clone());
        write_frame(&mut s, b"abc").unwrap();
        assert!(read(&counters.write_calls) >= 1);
        assert_eq!(read(&counters.bytes_written), 7);
        let mut s =
            CountedStream::new(std::io::Cursor::new(s.inner.into_inner()), counters.clone());
        assert_eq!(read_frame(&mut s).unwrap(), b"abc");
        assert_eq!(read(&counters.bytes_read), 7);
        span::set_enabled(false);
    }
}
