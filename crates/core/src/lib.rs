//! # mix-core — the lazy mediator engine
//!
//! The paper's primary contribution (§3, Appendix A): every XMAS algebra
//! operator is implemented as a *lazy mediator* — a transducer that
//! receives navigation commands on its output tree and answers them by
//! issuing the minimal navigations on its input trees. The overall plan is
//! a tree of such transducers "through which results from the sources are
//! pipelined upwards, driven by the navigations which flow downwards from
//! the client".
//!
//! Key design points, mirrored from the paper:
//!
//! * **Node-ids encode associations.** "The mediator does not store the
//!   node-ids and their associations. Instead the node-ids directly encode
//!   the association information, similar to Skolem-ids." Our
//!   [`VNode`]/`BHandle` are reference-counted values whose fields are
//!   the input handles an operator needs to continue navigation from that
//!   node — e.g. a groupBy member carries `⟨LS, p_b, p_g⟩` exactly like
//!   Figure 10.
//! * **Attribute jumps between operators.** Operators request the value of
//!   a binding attribute directly (`b.H`, `b.LSs`) instead of walking the
//!   `bs`/`b` tree — Appendix A: "it is wasteful to navigate over the
//!   attribute lists of the input mediator".
//! * **Targeted caches.** Stateless wherever possible; caches exactly
//!   where §3 calls for them — groupBy's buffered input scan (`G_prev`
//!   plus a member list per group), the nested-loop join's inner-side
//!   cache — toggleable via
//!   [`EngineConfig`] for the ablation experiment (E8).
//! * **The client sees only DOM-VXD.** [`Engine`] implements
//!   [`Navigator`]; [`VirtualDocument`] wraps it in the thin client
//!   library of §5, making the virtual answer indistinguishable from a
//!   materialized document.
//!
//! The [`eager`] module provides the conventional fully-materializing
//! evaluator — the baseline the paper argues against, and the oracle for
//! differential testing.
//!
//! [`Navigator`]: mix_nav::Navigator

mod bindings;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_fig9_10;
#[cfg(test)]
mod tests_ops;
pub mod client;
pub mod eager;
pub mod engine;
pub mod handle;
pub mod matchcur;
pub mod metrics;
pub mod profile;
pub(crate) mod ops;
pub mod registry;
pub mod trace;
pub mod values;

pub use client::{VirtualDocument, VirtualElement};
pub use engine::{Degraded, Engine, EngineConfig, EngineStats};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricsRegistry, MetricsSnapshot,
    PromFamily, PromSeries, PromText, Sample, SampleValue,
};
pub use mix_buffer::DEFAULT_TRACE_CAPACITY;
pub use trace::{SpanStats, TraceEvent, TraceKind, TraceLog, TraceRollup, TraceSink};
pub use handle::VNode;
pub use profile::{profile, Profile};
pub use registry::SourceRegistry;
// Health types surface through `Engine::health` / `VirtualDocument::health`;
// re-exported so engine clients need not depend on mix-buffer directly.
pub use mix_buffer::{HealthSnapshot, HealthStatus, SourceHealth};
// Same for the shared cross-query fragment cache surfaced through
// `Engine::fragment_cache` / `VirtualDocument::fragment_cache`.
pub use mix_buffer::{FragmentCache, FragmentCacheStats, SourceCacheStats};
// And for the semantic answer cache consulted at engine build time
// (`SourceRegistry::set_view_catalog`, `EngineConfig::semantic_cache`,
// `Engine::semantic_outcome` / `Engine::record_view`).
pub use mix_algebra::{
    parse_view_source, view_source_name, SemanticOutcome, ViewCatalog, ViewId,
};

/// Errors raised while wiring a plan to sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Description of the problem.
    pub message: String,
}

impl EngineError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        EngineError { message: message.into() }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine error: {}", self.message)
    }
}

impl std::error::Error for EngineError {}
