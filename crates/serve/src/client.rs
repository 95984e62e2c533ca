//! A synchronous DOM-VXD client.
//!
//! [`VxdClient`] wraps any `Read + Write` transport in the frame codec
//! and exposes the session verbs as methods. One client (one connection)
//! can hold any number of sessions open at once — the session id travels
//! in every request frame.
//!
//! The client keeps what the server ships with `d`/`r`/`select` replies
//! ([`Reply::Nodes`]), per session: each shipped node's label and, where
//! the server knew them, its `d` and `r` answers. It answers `f` of a
//! shipped node, and each known `d`/`r`, without a frame. The root's
//! label is never shipped (the server does not resolve it at `Open`),
//! nor is a degraded or over-long one: `f` of such a node crosses the
//! wire, as does every `select`.

use crate::codec::{
    ErrorCode, FrameError, FrameStream, Link, Reply, Request, ShippedNode, TraceContext, Verb,
};
use mix_core::{TraceKind, TraceSink};
use std::collections::HashMap;
use std::io::{Read, Write};

/// A typed client-side failure: either the transport/codec broke, or the
/// server answered with a protocol error.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// The server replied with a typed error.
    Server { code: ErrorCode, msg: String },
    /// The server replied, but not with a reply this verb can produce.
    UnexpectedReply(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Server { code, msg } => write!(f, "server error ({code:?}): {msg}"),
            ClientError::UnexpectedReply(r) => write!(f, "unexpected reply: {r}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// An open session: its id and its root node handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSession {
    pub session: u64,
    pub root: u64,
}

/// A fetched label, tagged with whether any source degraded while
/// producing it — the wire-side mirror of `Engine::fetch_checked`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Every contributing source answered.
    Complete(String),
    /// The label as served, plus the sources that failed while serving
    /// it. An empty label here means "unknown", not "empty".
    Degraded { label: String, sources: Vec<String> },
}

impl FetchOutcome {
    /// The label regardless of degradation.
    pub fn label(&self) -> &str {
        match self {
            FetchOutcome::Complete(l) => l,
            FetchOutcome::Degraded { label, .. } => label,
        }
    }

    pub fn is_degraded(&self) -> bool {
        matches!(self, FetchOutcome::Degraded { .. })
    }
}

/// A synchronous DOM-VXD client over any `Read + Write` transport.
///
/// In **traced mode** ([`Self::with_trace`]) every verb begins a span in
/// the client's own flight recorder, records the frame it sends as a
/// [`TraceKind::WireRequest`], and stamps the frame with a
/// [`TraceContext`] carrying that span id — a traced server parents its
/// server-side cascade on it, and [`mix_core::TraceLog::merge_remote`]
/// stitches the two rings back into one. The frames a traced client
/// sends differ from an untraced client's only by the trailer: replies,
/// and therefore answers, are byte-identical either way. A command
/// answered from what the server shipped sends no frame, so it records
/// nothing.
pub struct VxdClient<S: Read + Write> {
    frames: FrameStream<S>,
    trace: TraceSink,
    /// What the server shipped: session → node handle → what is known of
    /// that node. A session's map goes at `close`, and when a reply says
    /// the session is gone.
    known: HashMap<u64, HashMap<u64, Known>>,
}

/// One shipped node: its complete label, and its `d` and `r` answers
/// where the server knew them (`None` is unknown, `Some(None)` the end
/// of the axis).
struct Known {
    label: String,
    down: Option<Option<u64>>,
    right: Option<Option<u64>>,
}

impl<S: Read + Write> VxdClient<S> {
    pub fn new(stream: S) -> Self {
        VxdClient {
            frames: FrameStream::new(stream),
            trace: TraceSink::default(),
            known: HashMap::new(),
        }
    }

    /// Record this client's navigations into `sink` and propagate its
    /// span ids to the server in every request frame.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The client-side flight recorder (off unless [`Self::with_trace`]).
    pub fn trace_sink(&self) -> TraceSink {
        self.trace.clone()
    }

    /// The stable span name of a verb, matching the engine's nav names.
    fn span_name(verb: &Verb) -> &'static str {
        match verb {
            Verb::Open { .. } => "open",
            Verb::Down { .. } => "d",
            Verb::Right { .. } => "r",
            Verb::Fetch { .. } => "f",
            Verb::Select { .. } => "s",
            Verb::Close => "close",
        }
    }

    fn exchange(&mut self, session: u64, verb: Verb) -> Result<Reply, ClientError> {
        let mut request = Request::new(session, verb);
        if !request.fits() {
            return Err(ClientError::Frame(FrameError::StringTooLong));
        }
        if self.trace.is_enabled() {
            let name = Self::span_name(&request.verb);
            let span = self.trace.begin_span(name);
            self.trace.emit(None, TraceKind::WireRequest { verb: name });
            request = request.with_trace(TraceContext { span, sampled: true });
        }
        self.frames.send_request(&request)?;
        let reply = self.frames.recv_reply()?;
        if let Reply::Error { code, msg } = reply {
            // Both mean the server no longer holds the session.
            if matches!(code, ErrorCode::UnknownSession | ErrorCode::Internal) {
                self.known.remove(&session);
            }
            return Err(ClientError::Server { code, msg });
        }
        Ok(reply)
    }

    /// Open a session over a server template. Returns the session id and
    /// the root node handle.
    pub fn open(&mut self, template: &str) -> Result<OpenSession, ClientError> {
        match self.exchange(0, Verb::Open { template: template.to_string() })? {
            Reply::Opened { session, root } => Ok(OpenSession { session, root }),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    fn step(&mut self, session: u64, verb: Verb) -> Result<Option<u64>, ClientError> {
        match self.exchange(session, verb)? {
            Reply::Node { handle } => Ok(Some(handle)),
            Reply::Nodes { nodes } if !nodes.is_empty() => {
                let reached = nodes[0].handle;
                self.keep(session, nodes);
                Ok(Some(reached))
            }
            Reply::End => Ok(None),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// File a shipped node list under its session.
    fn keep(&mut self, session: u64, nodes: Vec<ShippedNode>) {
        let handles: Vec<u64> = nodes.iter().map(|n| n.handle).collect();
        let resolve = |link: Link| match link {
            Link::Unknown => None,
            Link::End => Some(None),
            Link::To(i) => handles.get(usize::from(i)).map(|&h| Some(h)),
        };
        let held = self.known.entry(session).or_default();
        for n in nodes {
            let known = Known { label: n.label, down: resolve(n.down), right: resolve(n.right) };
            held.insert(n.handle, known);
        }
    }

    fn shipped(&self, session: u64, node: u64) -> Option<&Known> {
        self.known.get(&session)?.get(&node)
    }

    /// First child of `node`, or `None` at the frontier. Answered without
    /// a frame when the server shipped it.
    pub fn down(&mut self, session: u64, node: u64) -> Result<Option<u64>, ClientError> {
        if let Some(answer) = self.shipped(session, node).and_then(|k| k.down) {
            return Ok(answer);
        }
        self.step(session, Verb::Down { node })
    }

    /// Next sibling of `node`, or `None` past the last. Answered without
    /// a frame when the server shipped it.
    pub fn right(&mut self, session: u64, node: u64) -> Result<Option<u64>, ClientError> {
        if let Some(answer) = self.shipped(session, node).and_then(|k| k.right) {
            return Ok(answer);
        }
        self.step(session, Verb::Right { node })
    }

    /// First child of `node` whose label equals `label`.
    pub fn select(
        &mut self,
        session: u64,
        node: u64,
        label: &str,
    ) -> Result<Option<u64>, ClientError> {
        self.step(session, Verb::Select { node, label: label.to_string() })
    }

    /// The label of `node`, with degradation status. Use this when the
    /// client must distinguish "empty" from "sources failed". A label the
    /// server shipped with `node` is answered here, without a frame —
    /// even after another connection closed the session, until a reply
    /// to this client says the session is gone. Shipped `d`/`r` answers
    /// outlive the session the same way.
    pub fn fetch_checked(&mut self, session: u64, node: u64) -> Result<FetchOutcome, ClientError> {
        if let Some(known) = self.shipped(session, node) {
            return Ok(FetchOutcome::Complete(known.label.clone()));
        }
        match self.exchange(session, Verb::Fetch { node })? {
            Reply::Label { label } => Ok(FetchOutcome::Complete(label)),
            Reply::DegradedLabel { label, sources } => {
                Ok(FetchOutcome::Degraded { label, sources })
            }
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// The label of `node`, ignoring degradation status.
    pub fn fetch(&mut self, session: u64, node: u64) -> Result<String, ClientError> {
        Ok(match self.fetch_checked(session, node)? {
            FetchOutcome::Complete(l) => l,
            FetchOutcome::Degraded { label, .. } => label,
        })
    }

    /// Close a session, releasing its server-side state.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        self.known.remove(&session);
        match self.exchange(session, Verb::Close)? {
            Reply::Closed => Ok(()),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }
}
