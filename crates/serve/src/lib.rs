//! # mix-serve — serving mediated views over the wire
//!
//! The paper's mediator answers navigations, not documents: a client
//! explores a *virtual* mediated view one `down`/`right`/`fetch` at a
//! time, and only the explored region is ever computed. This crate puts
//! that interaction on a wire. A [`VxdServer`] exports named query
//! templates; a [`VxdClient`] opens *sessions* over them and navigates
//! with DOM-VXD verbs carried in length-prefixed frames ([`codec`]).
//!
//! Three properties carry the design:
//!
//! - **Session multiplexing.** Every request frame names its session, so
//!   one connection interleaves thousands of sessions — connections are
//!   transport, sessions are state.
//! - **Shared sources, private navigation.** Sessions share one wrapper
//!   connection per source, one fragment cache, and one metrics registry
//!   ([`SessionSources`]); each owns its engine, buffers, and handle
//!   table, all released at close.
//! - **Fault containment.** A panicking session is force-closed and
//!   answered with a typed error; malformed frames get typed errors
//!   without dropping the connection; degraded answers cross the wire as
//!   [`Reply::DegradedLabel`], never as silently-empty labels.
//!
//! PR 9 adds the **observability plane**: request frames optionally carry
//! a [`TraceContext`] so server-side spans parent on client spans (one
//! merged cascade via [`mix_core::TraceLog::merge_remote`]), and the
//! server exposes a live scrape surface ([`scrape`]): `/metrics`,
//! `/healthz`, `/sessions`, `/slow`, per-verb RED series, and a
//! slow-navigation log whose entries carry span ids.

pub mod client;
pub mod codec;
pub mod pipe;
pub mod pool;
pub mod scrape;
pub mod server;

pub use client::{ClientError, FetchOutcome, OpenSession, VxdClient};
pub use codec::{
    ErrorCode, FrameError, FrameStream, Link, Reply, Request, ShippedNode, TraceContext, Verb,
    MAX_FRAME, TRACE_MARKER,
};
pub use pipe::{pipe, PipeEnd};
pub use pool::{SessionSources, DEFAULT_SESSION_BATCH};
pub use scrape::HttpResponse;
pub use server::{
    ServerHandle, SessionInfo, SlowNav, SourceHealthInfo, VxdServer, WhyAnswer,
    DEFAULT_MAX_SESSIONS, DEFAULT_SLOW_NAV_NS, MAX_SHIPPED_NODES, SEMCACHE_OUTCOME_LABELS,
    VERB_LABELS,
};
