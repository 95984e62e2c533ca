//! Shared source infrastructure for concurrent sessions.
//!
//! The tentpole sharing contract: N concurrent sessions each own a
//! `VirtualDocument` (their private navigation state) while sharing
//! **one** wrapper connection per source, **one** [`FragmentCache`], and
//! **one** [`MetricsRegistry`]. [`SessionSources`] is that shared half: a
//! pool of [`SharedWrapper`]s plus the cache and registry, from which
//! [`registry_for_session`](SessionSources::registry_for_session) builds
//! a cheap per-session [`SourceRegistry`] view.
//!
//! Per-session [`BufferNavigator`]s are what make teardown leak-free: a
//! session's open trees and pending batch caches die with *its*
//! navigators at close, while fill replies live on in the shared
//! fragment cache for the next session to hit. The navigators do **not**
//! bind their traffic counters into the shared registry — those series
//! re-bind per navigator, which under session churn would leak dead
//! bindings; serving-layer series (sessions gauge, latency histograms,
//! per-session counters) are owned by the server and unregistered at
//! session close instead.

use mix_buffer::{
    BufferNavigator, FillPolicy, FragmentCache, LxpWrapper, MetricsRegistry, SharedWrapper,
    SourceHealth, TreeWrapper,
};
use mix_core::{SourceRegistry, TraceSink, ViewCatalog};
use mix_xml::{Document, Tree};
use std::sync::Arc;

/// Default batch limit for per-session buffers (holes per `fill_many`).
pub const DEFAULT_SESSION_BATCH: usize = 8;

/// The shared half of a serving deployment: one wrapper connection per
/// source, one fragment cache, one metrics registry — shared by every
/// session the server opens.
pub struct SessionSources {
    sources: Vec<PooledSource>,
    cache: FragmentCache,
    /// The shared semantic answer cache: recorded views are visible to
    /// every session's registry, so one warmed template covers all later
    /// sessions (the answer-level twin of the fragment cache).
    catalog: ViewCatalog,
    metrics: MetricsRegistry,
    batch_limit: usize,
}

/// One shared source: the wrapper connection plus a pool-level
/// [`SourceHealth`] cell every session's navigator records into, so
/// `/healthz` sees one aggregated row per physical source rather than one
/// per session.
struct PooledSource {
    name: String,
    wrapper: SharedWrapper<Box<dyn LxpWrapper + Send>>,
    health: SourceHealth,
}

impl SessionSources {
    /// An empty pool sharing `cache` and `metrics`. The cache's gauges
    /// are bound into the registry here, once — not per session.
    pub fn new(cache: FragmentCache, metrics: MetricsRegistry) -> Self {
        cache.bind_into(&metrics);
        SessionSources {
            sources: Vec::new(),
            cache,
            catalog: ViewCatalog::new(),
            metrics,
            batch_limit: DEFAULT_SESSION_BATCH,
        }
    }

    /// Override the per-session batched-fill limit.
    pub fn with_batch_limit(mut self, limit: usize) -> Self {
        self.batch_limit = limit.max(1);
        self
    }

    /// Register one shared wrapper connection under `name`. All sessions
    /// fill through this single wrapper, serialized per source.
    pub fn add_wrapper<W>(&mut self, name: impl Into<String>, wrapper: W) -> &mut Self
    where
        W: LxpWrapper + Send + 'static,
    {
        self.sources.push(PooledSource {
            name: name.into(),
            wrapper: SharedWrapper::new(Box::new(wrapper)),
            health: SourceHealth::new(),
        });
        self
    }

    /// Convenience: serve a materialized tree through a [`TreeWrapper`]
    /// with the given fill policy.
    pub fn add_tree(&mut self, name: impl Into<String>, tree: &Tree, policy: FillPolicy) -> &mut Self {
        let name = name.into();
        let mut w = TreeWrapper::new(policy);
        w.add(&name, Arc::new(Document::from_tree(tree)));
        self.add_wrapper(name, w)
    }

    /// The shared fragment cache.
    pub fn cache(&self) -> FragmentCache {
        self.cache.clone()
    }

    /// The shared semantic answer cache (a cheap handle; all clones see
    /// the same recorded views).
    pub fn view_catalog(&self) -> ViewCatalog {
        self.catalog.clone()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Registered source names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.name.as_str()).collect()
    }

    /// Pool-level health, one `(name, handle)` row per source. Every
    /// session navigator over a source records into the same cell, so
    /// these aggregate fault/retry/breaker state across all sessions —
    /// the `/healthz` surface.
    pub fn health(&self) -> Vec<(String, SourceHealth)> {
        self.sources.iter().map(|s| (s.name.clone(), s.health.clone())).collect()
    }

    /// Build one session's private [`SourceRegistry`]: fresh batched
    /// [`BufferNavigator`]s (own open tree, own pending cache — released
    /// when the session's engine drops) over the shared wrappers, all
    /// reading through the shared fragment cache.
    pub fn registry_for_session(&self) -> SourceRegistry {
        self.registry_for_session_traced(&TraceSink::default())
    }

    /// Like [`Self::registry_for_session`], but every navigator shares
    /// `trace` — the traced-session path. The engine built over this
    /// registry adopts the sink, so one ring holds the whole cascade:
    /// wire-span links, operator steps, and source fills, all under the
    /// span ids [`mix_core::TraceLog::merge_remote`] stitches onto the
    /// client's spans.
    pub fn registry_for_session_traced(&self, trace: &TraceSink) -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        for s in &self.sources {
            let nav = BufferNavigator::new(s.wrapper.clone(), s.name.clone())
                .batched(self.batch_limit)
                .with_fragment_cache(self.cache.clone())
                .with_health(s.health.clone())
                .with_trace(trace.clone());
            reg.add_buffer(s.name.clone(), nav);
        }
        reg.set_view_catalog(self.catalog.clone());
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_algebra::translate;
    use mix_core::Engine;
    use mix_nav::explore::materialize;
    use mix_xmas::parse_query;
    use mix_xml::term::parse_term;

    const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";

    fn pool() -> SessionSources {
        let mut pool = SessionSources::new(FragmentCache::new(), MetricsRegistry::enabled());
        pool.add_tree(
            "src",
            &parse_term("items[a[1],b[2],c[3]]").unwrap(),
            FillPolicy::NodeAtATime,
        );
        pool
    }

    #[test]
    fn second_session_is_answered_from_the_shared_cache() {
        let pool = pool();
        let plan = translate(&parse_query(QUERY).unwrap()).unwrap();
        let run = |pool: &SessionSources| {
            let mut engine = Engine::new(plan.clone(), &pool.registry_for_session()).unwrap();
            materialize(&mut engine).to_string()
        };
        let cold = run(&pool);
        let stats_after_cold = pool.cache().stats();
        let warm = run(&pool);
        assert_eq!(cold, warm, "sessions over one pool agree byte-for-byte");
        let stats_after_warm = pool.cache().stats();
        assert!(
            stats_after_warm.hits > stats_after_cold.hits,
            "the warm session hit the shared cache"
        );
        assert_eq!(
            stats_after_warm.insertions, stats_after_cold.insertions,
            "the warm session inserted nothing new"
        );
    }
}
