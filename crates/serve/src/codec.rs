//! The DOM-VXD frame codec: navigation verbs on the wire.
//!
//! The paper's client API is exactly four verbs (`d`, `r`, `f`,
//! `select_φ`) over opaque node handles — the ideal shape for a compact
//! framed protocol. A frame is a 4-byte little-endian length prefix
//! followed by that many payload bytes:
//!
//! ```text
//!   +----------------+---------------------------+
//!   | len: u32 LE    | payload (len bytes)       |
//!   +----------------+---------------------------+
//! ```
//!
//! Request payloads carry the session id in every frame — *session
//! multiplexing*: one connection interleaves any number of sessions, so
//! a thousand concurrent sessions need a handful of sockets, not a
//! thousand.
//!
//! ```text
//!   request  := session: u64 LE, opcode: u8, args, [trace]
//!     0x01 Open    { template: str }        (session must be 0)
//!     0x02 Down    { node: u64 LE }
//!     0x03 Right   { node: u64 LE }
//!     0x04 Fetch   { node: u64 LE }
//!     0x05 Select  { node: u64 LE, label: str }   (label-equality NC)
//!     0x06 Close   {}
//!
//!   trace    := 0x54 ('T'), span: u64 LE, flags: u8   (optional trailer)
//!     flags bit 0: sampled — the client asks the server to record the
//!     cascade this request triggers. All other flag bits are reserved
//!     and MUST be zero (strictness: a nonzero reserved bit is a typed
//!     error, so the trailer stays a lossless round-trip).
//!
//!   reply    := tag: u8, args
//!     0x81 Opened        { session: u64 LE, root: u64 LE, first }
//!     0x82 Node          { handle: u64 LE }
//!     0x83 End           {}                 (navigation returned None)
//!     0x84 Label         { label: str }
//!     0x85 DegradedLabel { label: str, n: u16 LE, sources: n × str }
//!     0x86 Closed        {}
//!     0x87 Nodes         { n: u16 LE, n × node }      (n ≥ 1)
//!     0xC0 Error         { code: u8, msg: str }
//!
//!   first    := 0x00, n: u16 LE, n × str   d(root) unknown; the sources
//!                                           that degraded answering it
//!             | 0x01                       d(root) is the end (empty view)
//!             | 0x87, n: u16 LE, n × node  d(root)'s node list (n ≥ 1)
//!   node     := handle: u64 LE, label: str, down: link, right: link
//!   link     := 0x00                  unknown
//!             | 0x01                  end of the axis (⊥)
//!             | 0x02, index: u16 LE   node `index` of this list (< n)
//!   str      := len: u16 LE, len × UTF-8 bytes   (len ≤ MAX_STR)
//! ```
//!
//! `Nodes` answers `d`/`r`/`select` with an open tree around the reached
//! node — PAPER.md §4's fragment of labels plus holes. The reached node
//! comes first; every other node is reachable from it over the links.
//! Each node carries its complete label and what its `d` and `r` answer,
//! where the server knew that without a source command: another node of
//! the list, the end of the axis, or unknown (a hole). The client answers
//! `f`, and each known `d`/`r`, of a shipped node without a round trip.
//! A reached node whose label is degraded or longer than [`MAX_STR`] is
//! answered with a bare `Node`, and its `f` crosses the wire.
//!
//! `Opened` carries what `d(root)` answers ([`FirstAnswer`]), since every
//! client's first command is `d(root)`: the same node list, the end of
//! the axis, or unknown. It is unknown when the reached node's label
//! cannot ship, and when a source degraded while the server answered it;
//! the reply then names those sources, as `DegradedLabel` does.
//!
//! # Strictness
//!
//! The decoder is a *round-trip oracle* in the same spirit as the
//! Prometheus text parser from the metrics layer: `decode(encode(x)) ==
//! x` for every valid value, and every malformed byte string — truncated
//! prefix, oversized frame, unknown opcode/tag, trailing garbage, broken
//! UTF-8, malformed trace trailer — is a typed [`FrameError`], never a
//! panic and never a silent partial parse. Servers must stay up when
//! handed garbage.
//!
//! # Back compatibility
//!
//! The trace trailer is strictly optional: a request frame that ends
//! after its verb arguments decodes to `trace: None`, byte-for-byte the
//! pre-trailer protocol. Old clients talk to new servers unchanged; a
//! new client only appends the trailer when its flight recorder is on.

use std::io::{Read, Write};

/// Hard ceiling on one frame's payload (1 MiB). A length prefix above
/// this is rejected *before* allocating, so a hostile or corrupt peer
/// cannot make the server balloon on a 4 GiB prefix.
pub const MAX_FRAME: u32 = 1 << 20;

/// Longest `str` field a frame carries, in bytes (its length is a `u16`).
pub const MAX_STR: usize = u16::MAX as usize;

/// Everything that can be wrong with bytes claiming to be a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the structure it promised.
    Truncated { expected: usize, got: usize },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized { len: u32 },
    /// Unknown request opcode.
    UnknownOpcode(u8),
    /// Unknown reply tag.
    UnknownTag(u8),
    /// Unknown error code in an `Error` reply.
    UnknownErrorCode(u8),
    /// Valid structure followed by extra bytes.
    TrailingBytes { extra: usize },
    /// Bytes after the verb arguments that do not start a trace trailer.
    BadTraceMarker(u8),
    /// A trace trailer with reserved flag bits set.
    BadTraceFlags(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The peer closed the connection cleanly (EOF between frames).
    Closed,
    /// Transport-level I/O failure.
    Io(String),
    /// A request string longer than [`MAX_STR`] bytes: it was not sent.
    StringTooLong,
    /// A node list (in `Nodes` or `Opened`) with no node in it.
    EmptyNodeList,
    /// A link tag other than unknown, end or index; in `Opened`, a
    /// first-answer tag other than unknown, end or node list.
    BadLinkTag(u8),
    /// A link to an index past the end of its node list.
    LinkOutOfRange { index: u16, nodes: u16 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes exceeds the {MAX_FRAME} B cap")
            }
            FrameError::UnknownOpcode(op) => write!(f, "unknown request opcode 0x{op:02x}"),
            FrameError::UnknownTag(tag) => write!(f, "unknown reply tag 0x{tag:02x}"),
            FrameError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame body")
            }
            FrameError::BadTraceMarker(b) => {
                write!(f, "byte 0x{b:02x} after the verb is not a trace trailer (0x{TRACE_MARKER:02x})")
            }
            FrameError::BadTraceFlags(b) => {
                write!(f, "trace trailer flags 0x{b:02x} set reserved bits")
            }
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(msg) => write!(f, "frame transport error: {msg}"),
            FrameError::StringTooLong => {
                write!(f, "a request string exceeds the {MAX_STR} B field cap")
            }
            FrameError::EmptyNodeList => write!(f, "a node list reply holds no node"),
            FrameError::BadLinkTag(tag) => write!(f, "unknown link tag 0x{tag:02x}"),
            FrameError::LinkOutOfRange { index, nodes } => {
                write!(f, "link to node {index} of a {nodes}-node list")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Typed error codes a server can return; part of the wire contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame's session id names no live session.
    UnknownSession = 1,
    /// The node handle names no handle of that session.
    UnknownHandle = 2,
    /// `Open` named a query template the server does not export.
    UnknownTemplate = 3,
    /// The request frame itself failed to parse.
    BadFrame = 4,
    /// The session's engine panicked or failed internally; the session
    /// has been force-closed.
    Internal = 5,
    /// The server is at its concurrent-session limit.
    SessionLimit = 6,
    /// `Fetch` of a node whose label is longer than [`MAX_STR`] bytes:
    /// no frame can carry it.
    LabelTooLong = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, FrameError> {
        Ok(match v {
            1 => ErrorCode::UnknownSession,
            2 => ErrorCode::UnknownHandle,
            3 => ErrorCode::UnknownTemplate,
            4 => ErrorCode::BadFrame,
            5 => ErrorCode::Internal,
            6 => ErrorCode::SessionLimit,
            7 => ErrorCode::LabelTooLong,
            other => return Err(FrameError::UnknownErrorCode(other)),
        })
    }
}

/// The navigation verb of one request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// Open a session over a named query template; replies `Opened`.
    Open { template: String },
    /// `d(node)` — first child.
    Down { node: u64 },
    /// `r(node)` — right sibling.
    Right { node: u64 },
    /// `f(node)` — the label, checked for degradation server-side.
    Fetch { node: u64 },
    /// `select_φ(node, label)` — next sibling with exactly this label.
    Select { node: u64, label: String },
    /// Tear the session down; replies `Closed`.
    Close,
}

/// Marker byte opening the optional trace trailer (`'T'`).
pub const TRACE_MARKER: u8 = 0x54;

/// The trace context a request frame may carry: the client-side span id
/// of the command that sent it, plus the sampling flag asking the server
/// to record the cascade. This is what lets a merged trace parent every
/// server-side source exchange on the exact client navigation that
/// caused it — the flight recorder's span model, stretched across the
/// wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The client's span id for this command.
    pub span: u64,
    /// Should the server record server-side spans for this session?
    pub sampled: bool,
}

/// One request frame: which session, and what to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Session the verb applies to; 0 for `Open` (no session yet).
    pub session: u64,
    /// The verb.
    pub verb: Verb,
    /// Optional trace context — `None` encodes exactly the pre-trailer
    /// protocol, so context-free peers interoperate unchanged.
    pub trace: Option<TraceContext>,
}

impl Request {
    /// A context-free request (the PR-8 wire shape).
    pub fn new(session: u64, verb: Verb) -> Self {
        Request { session, verb, trace: None }
    }

    /// Attach a trace context.
    pub fn with_trace(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }
}

/// Where a shipped node's `d` or `r` leads, as far as the server knew
/// without a source command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Not known: the client's command crosses the wire.
    Unknown,
    /// The end of the axis: no child, or no right sibling.
    End,
    /// The node at this index of the same list.
    To(u16),
}

/// One node of a [`Reply::Nodes`] list: its handle, its complete label,
/// and where its `d` and `r` lead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedNode {
    pub handle: u64,
    pub label: String,
    pub down: Link,
    pub right: Link,
}

/// Bytes one shipped node with a `label_len`-byte label takes in a
/// node list, links at their longest.
pub(crate) fn shipped_node_len(label_len: usize) -> usize {
    8 + 2 + label_len + 2 * 3
}

/// Bytes before the first node of a node list in the longer of the two
/// replies that carry one: `Opened`'s tag, session, root, answer tag and
/// count (a `Nodes` reply needs 3 of them).
pub(crate) const NODES_HEADER_LEN: usize = 1 + 8 + 8 + 1 + 2;

/// What `d(root)` answers, as [`Reply::Opened`] carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirstAnswer {
    /// Not answered at open: the client's `d(root)` crosses the wire.
    /// `degraded` names the sources that degraded while the server
    /// answered it (empty when none did).
    Unknown { degraded: Vec<String> },
    /// The view is empty: `d(root)` is the end of the axis.
    End,
    /// `d(root)`'s reached node and its known neighbourhood, as
    /// [`Reply::Nodes`] carries them.
    Nodes(Vec<ShippedNode>),
}

/// One reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A session is live; navigate from `root`, whose `d` is `first`.
    Opened { session: u64, root: u64, first: FirstAnswer },
    /// A navigation produced this node; its label stayed behind.
    Node { handle: u64 },
    /// A navigation produced `nodes[0]`; the rest are the nodes reachable
    /// from it over known links, each with its complete label.
    Nodes { nodes: Vec<ShippedNode> },
    /// A navigation returned `None` (no child / no sibling / no match).
    End,
    /// A complete label for `Fetch`.
    Label { label: String },
    /// A *partial* answer: the label served after one or more sources
    /// degraded, with the guilty sources named. Distinct from `Label` on
    /// the wire so a remote client can never mistake a degraded empty
    /// answer for a genuinely empty PCDATA node.
    DegradedLabel { label: String, sources: Vec<String> },
    /// The session is gone; its resources are released.
    Closed,
    /// Typed failure.
    Error { code: ErrorCode, msg: String },
}

// ---------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------

fn fits(s: &str) -> bool {
    s.len() <= MAX_STR
}

/// Append a `str` field. A string over [`MAX_STR`] bytes is cut at the
/// last char boundary that fits, so encoding never panics; a sender that
/// must not lose bytes checks [`Request::fits`] / [`Reply::fits`] first.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut len = s.len().min(MAX_STR);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

fn put_link(out: &mut Vec<u8>, link: Link) {
    match link {
        Link::Unknown => out.push(0x00),
        Link::End => out.push(0x01),
        Link::To(index) => {
            out.push(0x02);
            out.extend_from_slice(&index.to_le_bytes());
        }
    }
}

/// Append a count and that many `str` fields (at most `u16::MAX`).
fn put_strs(out: &mut Vec<u8>, strs: &[String]) {
    let n = strs.len().min(usize::from(u16::MAX));
    out.extend_from_slice(&(n as u16).to_le_bytes());
    for s in &strs[..n] {
        put_str(out, s);
    }
}

/// Append a node list's body: its count, then each node.
fn put_nodes(out: &mut Vec<u8>, nodes: &[ShippedNode]) {
    let n = nodes.len().min(usize::from(u16::MAX));
    out.extend_from_slice(&(n as u16).to_le_bytes());
    for node in &nodes[..n] {
        out.extend_from_slice(&node.handle.to_le_bytes());
        put_str(out, &node.label);
        put_link(out, node.down);
        put_link(out, node.right);
    }
}

/// Does a node list encode whole, its reply within [`MAX_FRAME`]?
fn nodes_fit(nodes: &[ShippedNode]) -> bool {
    nodes.len() <= usize::from(u16::MAX)
        && nodes.iter().all(|n| fits(&n.label))
        && nodes.iter().map(|n| shipped_node_len(n.label.len())).sum::<usize>() + NODES_HEADER_LEN
            <= MAX_FRAME as usize
}

impl Request {
    /// Does [`Request::encode`] carry every byte of this request?
    pub fn fits(&self) -> bool {
        match &self.verb {
            Verb::Open { template: s } | Verb::Select { label: s, .. } => fits(s),
            _ => true,
        }
    }

    /// Encode the request payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.session.to_le_bytes());
        match &self.verb {
            Verb::Open { template } => {
                out.push(0x01);
                put_str(&mut out, template);
            }
            Verb::Down { node } => {
                out.push(0x02);
                out.extend_from_slice(&node.to_le_bytes());
            }
            Verb::Right { node } => {
                out.push(0x03);
                out.extend_from_slice(&node.to_le_bytes());
            }
            Verb::Fetch { node } => {
                out.push(0x04);
                out.extend_from_slice(&node.to_le_bytes());
            }
            Verb::Select { node, label } => {
                out.push(0x05);
                out.extend_from_slice(&node.to_le_bytes());
                put_str(&mut out, label);
            }
            Verb::Close => out.push(0x06),
        }
        if let Some(ctx) = &self.trace {
            out.push(TRACE_MARKER);
            out.extend_from_slice(&ctx.span.to_le_bytes());
            out.push(u8::from(ctx.sampled));
        }
        out
    }

    /// Strictly decode a request payload: the whole slice, nothing less,
    /// nothing more.
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        let mut r = Reader::new(payload);
        let session = r.u64()?;
        let opcode = r.u8()?;
        let verb = match opcode {
            0x01 => Verb::Open { template: r.string()? },
            0x02 => Verb::Down { node: r.u64()? },
            0x03 => Verb::Right { node: r.u64()? },
            0x04 => Verb::Fetch { node: r.u64()? },
            0x05 => Verb::Select { node: r.u64()?, label: r.string()? },
            0x06 => Verb::Close,
            other => return Err(FrameError::UnknownOpcode(other)),
        };
        // Anything after the verb must be exactly one strict trace
        // trailer: marker, span, flags with only bit 0 meaningful. The
        // strictness keeps the round-trip oracle lossless — every
        // successful decode re-encodes to the same bytes.
        let trace = if r.remaining() > 0 {
            let marker = r.u8()?;
            if marker != TRACE_MARKER {
                return Err(FrameError::BadTraceMarker(marker));
            }
            let span = r.u64()?;
            let flags = r.u8()?;
            if flags > 1 {
                return Err(FrameError::BadTraceFlags(flags));
            }
            Some(TraceContext { span, sampled: flags == 1 })
        } else {
            None
        };
        r.finish()?;
        Ok(Request { session, verb, trace })
    }
}

impl Reply {
    /// Does [`Reply::encode`] carry every byte of this reply's strings,
    /// and, for a node list, every node within [`MAX_FRAME`]?
    pub fn fits(&self) -> bool {
        match self {
            Reply::Nodes { nodes } | Reply::Opened { first: FirstAnswer::Nodes(nodes), .. } => {
                nodes_fit(nodes)
            }
            Reply::Label { label } => fits(label),
            Reply::DegradedLabel { label, sources } => {
                fits(label) && sources.iter().all(|s| fits(s))
            }
            Reply::Opened { first: FirstAnswer::Unknown { degraded }, .. } => {
                degraded.iter().all(|s| fits(s))
            }
            Reply::Error { msg, .. } => fits(msg),
            Reply::Opened { first: FirstAnswer::End, .. }
            | Reply::Node { .. }
            | Reply::End
            | Reply::Closed => true,
        }
    }

    /// Encode the reply payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Reply::Opened { session, root, first } => {
                out.push(0x81);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&root.to_le_bytes());
                match first {
                    FirstAnswer::Unknown { degraded } => {
                        out.push(0x00);
                        put_strs(&mut out, degraded);
                    }
                    FirstAnswer::End => out.push(0x01),
                    FirstAnswer::Nodes(nodes) => {
                        out.push(0x87);
                        put_nodes(&mut out, nodes);
                    }
                }
            }
            Reply::Node { handle } => {
                out.push(0x82);
                out.extend_from_slice(&handle.to_le_bytes());
            }
            Reply::End => out.push(0x83),
            Reply::Label { label } => {
                out.push(0x84);
                put_str(&mut out, label);
            }
            Reply::DegradedLabel { label, sources } => {
                out.push(0x85);
                put_str(&mut out, label);
                put_strs(&mut out, sources);
            }
            Reply::Closed => out.push(0x86),
            Reply::Nodes { nodes } => {
                out.push(0x87);
                put_nodes(&mut out, nodes);
            }
            Reply::Error { code, msg } => {
                out.push(0xC0);
                out.push(*code as u8);
                put_str(&mut out, msg);
            }
        }
        out
    }

    /// Strictly decode a reply payload.
    pub fn decode(payload: &[u8]) -> Result<Reply, FrameError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let reply = match tag {
            0x81 => {
                let (session, root) = (r.u64()?, r.u64()?);
                let first = match r.u8()? {
                    0x00 => FirstAnswer::Unknown { degraded: r.strings()? },
                    0x01 => FirstAnswer::End,
                    0x87 => FirstAnswer::Nodes(r.nodes()?),
                    tag => return Err(FrameError::BadLinkTag(tag)),
                };
                Reply::Opened { session, root, first }
            }
            0x82 => Reply::Node { handle: r.u64()? },
            0x83 => Reply::End,
            0x84 => Reply::Label { label: r.string()? },
            0x85 => Reply::DegradedLabel { label: r.string()?, sources: r.strings()? },
            0x86 => Reply::Closed,
            0x87 => Reply::Nodes { nodes: r.nodes()? },
            0xC0 => Reply::Error { code: ErrorCode::from_u8(r.u8()?)?, msg: r.string()? },
            other => return Err(FrameError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(reply)
    }
}

/// Cursor over a payload with exact-consumption discipline.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Truncated {
                expected: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)
    }

    /// A count, then that many `str` fields.
    fn strings(&mut self) -> Result<Vec<String>, FrameError> {
        let n = self.u16()?;
        let mut strs = Vec::with_capacity(usize::from(n).min(self.remaining() / 2));
        for _ in 0..n {
            strs.push(self.string()?);
        }
        Ok(strs)
    }

    /// A node list's body: a count of at least one, then each node.
    fn nodes(&mut self) -> Result<Vec<ShippedNode>, FrameError> {
        let n = self.u16()?;
        if n == 0 {
            return Err(FrameError::EmptyNodeList);
        }
        let mut nodes = Vec::with_capacity(usize::from(n).min(self.remaining() / 12));
        for _ in 0..n {
            nodes.push(ShippedNode {
                handle: self.u64()?,
                label: self.string()?,
                down: self.link(n)?,
                right: self.link(n)?,
            });
        }
        Ok(nodes)
    }

    /// A link of a node list `nodes` long.
    fn link(&mut self, nodes: u16) -> Result<Link, FrameError> {
        match self.u8()? {
            0x00 => Ok(Link::Unknown),
            0x01 => Ok(Link::End),
            0x02 => match self.u16()? {
                index if index < nodes => Ok(Link::To(index)),
                index => Err(FrameError::LinkOutOfRange { index, nodes }),
            },
            tag => Err(FrameError::BadLinkTag(tag)),
        }
    }

    /// The payload must be fully consumed — trailing bytes are an error,
    /// never silently ignored.
    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::TrailingBytes { extra: self.buf.len() - self.pos });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Framing over a byte stream
// ---------------------------------------------------------------------

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized { len: u32::MAX })?;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    w.write_all(&len.to_le_bytes()).map_err(|e| FrameError::Io(e.to_string()))?;
    w.write_all(payload).map_err(|e| FrameError::Io(e.to_string()))?;
    w.flush().map_err(|e| FrameError::Io(e.to_string()))?;
    Ok(())
}

/// Read one length-prefixed frame. EOF *between* frames is the clean
/// [`FrameError::Closed`]; EOF *inside* a frame is `Truncated`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated { expected: 4, got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated { expected: payload.len(), got });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(payload)
}

/// A request/reply frame stream over any byte transport — one end of a
/// connection. Both the server loop and the client drive one of these.
pub struct FrameStream<S> {
    stream: S,
}

impl<S: Read + Write> FrameStream<S> {
    /// Wrap a transport.
    pub fn new(stream: S) -> Self {
        FrameStream { stream }
    }

    /// Recover the transport.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Borrow the transport (e.g. to write raw bytes in protocol tests).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Send one request (client side).
    pub fn send_request(&mut self, req: &Request) -> Result<(), FrameError> {
        write_frame(&mut self.stream, &req.encode())
    }

    /// Receive one reply (client side).
    pub fn recv_reply(&mut self) -> Result<Reply, FrameError> {
        Reply::decode(&read_frame(&mut self.stream)?)
    }

    /// Receive one request (server side). A frame that fails to *parse*
    /// is `Ok(Err(_))` — the connection is still usable and the server
    /// answers with a typed `BadFrame` error; a frame that fails to
    /// *arrive* (EOF, I/O) is `Err(_)` and ends the connection.
    pub fn recv_request(&mut self) -> Result<Result<Request, FrameError>, FrameError> {
        let payload = read_frame(&mut self.stream)?;
        Ok(Request::decode(&payload))
    }

    /// Send one reply (server side).
    pub fn send_reply(&mut self, reply: &Reply) -> Result<(), FrameError> {
        write_frame(&mut self.stream, &reply.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for req in [
            Request::new(0, Verb::Open { template: "fig3".into() }),
            Request::new(7, Verb::Down { node: 3 }),
            Request::new(u64::MAX, Verb::Right { node: u64::MAX }),
            Request::new(1, Verb::Fetch { node: 0 }),
            Request::new(2, Verb::Select { node: 9, label: "zip".into() }),
            Request::new(3, Verb::Close),
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn traced_requests_round_trip() {
        for req in [
            Request::new(0, Verb::Open { template: "fig3".into() })
                .with_trace(TraceContext { span: 1, sampled: true }),
            Request::new(7, Verb::Down { node: 3 })
                .with_trace(TraceContext { span: u64::MAX, sampled: false }),
            Request::new(2, Verb::Select { node: 9, label: "zip".into() })
                .with_trace(TraceContext { span: 0, sampled: true }),
            Request::new(3, Verb::Close).with_trace(TraceContext { span: 42, sampled: true }),
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn context_free_bytes_decode_with_no_trace() {
        // The exact PR-8 byte shape: session, opcode, args, nothing more.
        let mut bytes = 9u64.to_le_bytes().to_vec();
        bytes.push(0x02); // Down
        bytes.extend_from_slice(&5u64.to_le_bytes());
        let req = Request::decode(&bytes).unwrap();
        assert_eq!(req, Request::new(9, Verb::Down { node: 5 }));
        assert_eq!(req.trace, None);
        assert_eq!(req.encode(), bytes, "context-free shape re-encodes identically");
    }

    #[test]
    fn malformed_trace_trailers_are_typed() {
        let base = Request::new(1, Verb::Fetch { node: 2 });
        // Wrong marker byte after the verb.
        let mut bad = base.clone().with_trace(TraceContext { span: 3, sampled: true }).encode();
        let marker_at = bad.len() - 10;
        bad[marker_at] = 0x55;
        assert_eq!(Request::decode(&bad), Err(FrameError::BadTraceMarker(0x55)));
        // Reserved flag bits set.
        let mut bad = base.clone().with_trace(TraceContext { span: 3, sampled: true }).encode();
        let n = bad.len();
        bad[n - 1] = 0x02;
        assert_eq!(Request::decode(&bad), Err(FrameError::BadTraceFlags(0x02)));
        // Truncated trailer (marker present, span cut short).
        let enc = base.with_trace(TraceContext { span: 3, sampled: true }).encode();
        assert!(matches!(
            Request::decode(&enc[..enc.len() - 4]),
            Err(FrameError::Truncated { .. })
        ));
        // Extra bytes after a complete trailer.
        let mut padded = enc.clone();
        padded.push(0);
        assert!(matches!(Request::decode(&padded), Err(FrameError::TrailingBytes { .. })));
    }

    #[test]
    fn reply_round_trips() {
        for reply in [
            Reply::Opened { session: 12, root: 1, first: FirstAnswer::End },
            Reply::Opened {
                session: u64::MAX,
                root: 1,
                first: FirstAnswer::Unknown { degraded: vec![] },
            },
            Reply::Opened {
                session: 3,
                root: 1,
                first: FirstAnswer::Unknown { degraded: vec!["homesSrc".into(), "".into()] },
            },
            Reply::Opened {
                session: 3,
                root: 1,
                first: FirstAnswer::Nodes(vec![
                    shipped(2, "med_home", Link::To(1), Link::Unknown),
                    shipped(3, "home", Link::Unknown, Link::End),
                ]),
            },
            Reply::Node { handle: 42 },
            Reply::Nodes { nodes: vec![shipped(43, "zip", Link::Unknown, Link::End)] },
            Reply::Nodes {
                nodes: vec![
                    shipped(u64::MAX, "", Link::To(1), Link::To(2)),
                    shipped(7, "home", Link::End, Link::Unknown),
                    shipped(8, "zip", Link::To(1), Link::To(0)),
                ],
            },
            Reply::End,
            Reply::Label { label: "med_home".into() },
            Reply::DegradedLabel { label: String::new(), sources: vec!["homesSrc".into()] },
            Reply::DegradedLabel { label: "x".into(), sources: vec![] },
            Reply::Closed,
            Reply::Error { code: ErrorCode::UnknownSession, msg: "gone".into() },
        ] {
            assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    fn shipped(handle: u64, label: &str, down: Link, right: Link) -> ShippedNode {
        ShippedNode { handle, label: label.into(), down, right }
    }

    #[test]
    fn malformed_node_lists_are_typed() {
        assert_eq!(Reply::decode(&[0x87, 0, 0]), Err(FrameError::EmptyNodeList));
        let one = Reply::Nodes { nodes: vec![shipped(1, "a", Link::Unknown, Link::To(0))] };
        let mut bad = one.encode();
        let n = bad.len();
        bad[n - 3] = 0x03;
        assert_eq!(Reply::decode(&bad), Err(FrameError::BadLinkTag(0x03)));
        bad[n - 3] = 0x02;
        bad[n - 2] = 1;
        assert_eq!(
            Reply::decode(&bad),
            Err(FrameError::LinkOutOfRange { index: 1, nodes: 1 })
        );
    }

    #[test]
    fn malformed_first_answers_are_typed() {
        let opened = |first| Reply::Opened { session: 1, root: 1, first }.encode();
        let mut bad = opened(FirstAnswer::End);
        bad[17] = 0x02;
        assert_eq!(Reply::decode(&bad), Err(FrameError::BadLinkTag(0x02)));
        bad[17] = 0x87;
        assert!(matches!(Reply::decode(&bad), Err(FrameError::Truncated { .. })));
        bad.extend_from_slice(&[0, 0]);
        assert_eq!(Reply::decode(&bad), Err(FrameError::EmptyNodeList));
        let list = opened(FirstAnswer::Nodes(vec![shipped(2, "a", Link::To(0), Link::End)]));
        let mut bad = list.clone();
        let n = bad.len();
        bad[n - 3] = 1;
        assert_eq!(Reply::decode(&bad), Err(FrameError::LinkOutOfRange { index: 1, nodes: 1 }));
        for cut in 0..list.len() {
            assert!(matches!(Reply::decode(&list[..cut]), Err(FrameError::Truncated { .. })));
        }
        let mut padded = list;
        padded.push(0);
        assert_eq!(Reply::decode(&padded), Err(FrameError::TrailingBytes { extra: 1 }));
        let degraded = opened(FirstAnswer::Unknown { degraded: vec!["src".into()] });
        assert!(matches!(
            Reply::decode(&degraded[..degraded.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_opcode_and_tag_are_typed() {
        let mut bad = Request::new(1, Verb::Close).encode();
        bad[8] = 0x7F;
        assert_eq!(Request::decode(&bad), Err(FrameError::UnknownOpcode(0x7F)));
        let mut bad = Reply::End.encode();
        bad[0] = 0x00;
        assert_eq!(Reply::decode(&bad), Err(FrameError::UnknownTag(0x00)));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed() {
        let enc = Request::new(1, Verb::Down { node: 5 }).encode();
        assert!(matches!(
            Request::decode(&enc[..enc.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        // A byte past the verb is read as the start of a trace trailer:
        // a non-marker byte is a typed marker error…
        let mut padded = enc.clone();
        padded.push(0);
        assert_eq!(Request::decode(&padded), Err(FrameError::BadTraceMarker(0)));
        // …and bytes past a *complete* trailer are trailing garbage.
        let mut traced = Request::new(1, Verb::Down { node: 5 })
            .with_trace(TraceContext { span: 9, sampled: true })
            .encode();
        traced.push(0);
        assert_eq!(Request::decode(&traced), Err(FrameError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut enc = Request::new(0, Verb::Open { template: "ab".into() }).encode();
        let n = enc.len();
        enc[n - 1] = 0xFF; // clobber a UTF-8 byte inside the string
        enc[n - 2] = 0xFE;
        assert_eq!(Request::decode(&enc), Err(FrameError::BadUtf8));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut bytes: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0, 0];
        assert!(matches!(read_frame(&mut bytes), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn truncated_length_prefix_is_typed() {
        let mut bytes: &[u8] = &[0x01, 0x02];
        assert!(matches!(read_frame(&mut bytes), Err(FrameError::Truncated { .. })));
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty), Err(FrameError::Closed));
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let req = Request::new(5, Verb::Select { node: 2, label: "home".into() });
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    #[test]
    fn over_long_strings_do_not_fit_and_encode_cut_without_panicking() {
        // 65,534 ASCII bytes then a 2-byte char: the cut lands before it.
        let label = format!("{}é", "x".repeat(MAX_STR - 1));
        let reply = Reply::Nodes { nodes: vec![shipped(1, &label, Link::End, Link::End)] };
        assert!(!reply.fits());
        assert!(!Reply::Label { label: label.clone() }.fits());
        assert!(!Request::new(1, Verb::Select { node: 2, label: label.clone() }).fits());
        let decoded = Reply::decode(&reply.encode()).unwrap();
        let cut = "x".repeat(MAX_STR - 1);
        assert_eq!(decoded, Reply::Nodes { nodes: vec![shipped(1, &cut, Link::End, Link::End)] });
        let at_cap = Reply::Label { label: "x".repeat(MAX_STR) };
        assert!(at_cap.fits());
        assert_eq!(Reply::decode(&at_cap.encode()).unwrap(), at_cap);
    }

    #[test]
    fn a_node_list_past_the_frame_cap_does_not_fit() {
        // Sixteen labels at the string cap are over 1 MiB together.
        let node = shipped(1, &"x".repeat(MAX_STR), Link::Unknown, Link::Unknown);
        let full = |n: usize| Reply::Nodes { nodes: vec![node.clone(); n] };
        assert!(full(15).fits());
        assert!(full(15).encode().len() <= MAX_FRAME as usize);
        assert!(!full(16).fits());
        assert!(full(16).encode().len() > MAX_FRAME as usize);
    }
}
