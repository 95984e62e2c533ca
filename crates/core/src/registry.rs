//! Source registry: wiring plan `source` leaves to navigable sources.

use crate::EngineError;
use mix_algebra::{parse_view_source, ViewCatalog};
use mix_buffer::{
    BufferNavigator, BufferStats, FragmentCache, LxpWrapper, MetricsRegistry, SourceHealth,
    TraceSink,
};
use mix_nav::{erase, DocNavigator, DynNavigator, IntHandle, Navigator};
use mix_xml::Tree;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A shared, interiorly-mutable source connection. Two `source` leaves
/// naming the same source (a self-join) share one connection — and one set
/// of navigation counters.
pub(crate) type SharedSource = Arc<Mutex<Box<DynNavigator>>>;

/// One registered source: the navigator plus, for a buffered source,
/// the handles its [`BufferNavigator`] carries — fault/retry health,
/// traffic counters, and (when attached and enabled) flight recorder,
/// metrics registry and fragment cache.
#[derive(Clone)]
pub(crate) struct Registered {
    pub nav: SharedSource,
    pub health: Option<SourceHealth>,
    pub stats: Option<BufferStats>,
    pub trace: Option<TraceSink>,
    pub metrics: Option<MetricsRegistry>,
    pub cache: Option<FragmentCache>,
}

impl Registered {
    /// A source with nothing to observe: it never touches the wire.
    fn plain<N>(nav: N) -> Self
    where
        N: Navigator + Send + 'static,
        N::Handle: IntHandle,
    {
        Registered {
            nav: Arc::new(Mutex::new(erase(nav))),
            health: None,
            stats: None,
            trace: None,
            metrics: None,
            cache: None,
        }
    }
}

/// Maps source names (the `homesSrc` of a XMAS query) to navigators.
///
/// Anything that navigates can be a source: materialized documents
/// ([`DocNavigator`]), buffered LXP wrappers (`mix_buffer::BufferNavigator`
/// over relational / web / OODB wrappers), or another [`Engine`] behind a
/// [`HandleTable`](mix_nav::HandleTable) — lazy mediators compose, which
/// is how Figure 1 stacks mediator `m_q1` on top of lower-level mediators
/// and wrappers.
///
/// [`Engine`]: crate::Engine
#[derive(Default)]
pub struct SourceRegistry {
    sources: HashMap<String, Registered>,
    /// The shared semantic answer cache, when one is attached
    /// ([`SourceRegistry::set_view_catalog`]). Engines built from this
    /// registry resolve `~view:N` plan leaves against it, and — with
    /// [`EngineConfig::semantic_cache`](crate::EngineConfig) — rewrite new
    /// plans against its recorded views before touching the wire.
    view_catalog: Option<ViewCatalog>,
}

impl SourceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SourceRegistry::default()
    }

    /// Register any navigator with integer handles ([`IntHandle`]) under
    /// a source name: a materialized document, an instrumented adapter.
    /// Another [`Engine`](crate::Engine) hands out richer node-ids, so it
    /// is registered through a [`HandleTable`](mix_nav::HandleTable):
    /// `add_navigator(name, HandleTable::new(engine))`. The table keeps
    /// every handle the lower engine hands out for as long as the
    /// registry's sources live. Buffered LXP sources go through
    /// [`SourceRegistry::add_buffer`] instead, so the engine can see their
    /// health and traffic.
    pub fn add_navigator<N>(&mut self, name: impl Into<String>, nav: N) -> &mut Self
    where
        N: Navigator + Send + 'static,
        N::Handle: IntHandle,
    {
        self.sources.insert(name.into(), Registered::plain(nav));
        self
    }

    /// Register a buffered LXP source. Everything the engine surfaces
    /// about it is read off the navigator itself:
    ///
    /// * its [`SourceHealth`] and [`BufferStats`] handles, behind
    ///   [`Engine::health`] / [`Engine::traffic`] and the profiler's
    ///   per-command wire columns;
    /// * its flight-recorder sink (`BufferNavigator::with_trace`), which
    ///   the engine adopts so every client command begins a span in the
    ///   same ring the buffer's fill/retry/degradation events land in —
    ///   the link that lets a trace answer "which client command caused
    ///   this wire exchange?";
    /// * its metrics registry (`BufferNavigator::with_metrics`), which the
    ///   engine adopts and registers its own per-operator, per-command and
    ///   per-source series in, so one snapshot or Prometheus scrape covers
    ///   the whole mediator stack;
    /// * its shared fragment cache (`BufferNavigator::with_fragment_cache`),
    ///   behind the hits column of `explain_analyze()` and
    ///   `VirtualDocument::fragment_cache`.
    ///
    /// A sink or registry that is disabled at registration counts as
    /// absent. Across several sources the engine adopts the first sink,
    /// registry and cache it meets in plan order.
    ///
    /// [`Engine::health`]: crate::Engine::health
    /// [`Engine::traffic`]: crate::Engine::traffic
    pub fn add_buffer<W>(&mut self, name: impl Into<String>, nav: BufferNavigator<W>) -> &mut Self
    where
        W: LxpWrapper + Send + 'static,
    {
        let observed = Registered {
            health: Some(nav.health()),
            stats: Some(nav.stats()),
            trace: Some(nav.trace_sink()).filter(TraceSink::is_enabled),
            metrics: Some(nav.metrics_registry()).filter(MetricsRegistry::is_enabled),
            cache: nav.fragment_cache(),
            ..Registered::plain(nav)
        };
        self.sources.insert(name.into(), observed);
        self
    }

    /// Register a materialized tree (the "ideal source" of §4).
    pub fn add_tree(&mut self, name: impl Into<String>, tree: &Tree) -> &mut Self {
        self.add_navigator(name, DocNavigator::from_tree(tree))
    }

    /// Register a tree given in the paper's term syntax (tests, examples).
    /// Panics on malformed input.
    pub fn add_term(&mut self, name: impl Into<String>, term: &str) -> &mut Self {
        self.add_navigator(name, DocNavigator::from_term(term))
    }

    /// Attach the shared semantic answer cache. Engines built from this
    /// registry can then resolve `~view:N` leaves (emitted by
    /// [`ViewCatalog::rewrite_against_views`]) to zero-wire navigators
    /// over the catalog's materialized answers. One catalog handle is
    /// typically shared across every session of a server, so a view
    /// recorded by one session answers the next session's query.
    pub fn set_view_catalog(&mut self, catalog: ViewCatalog) -> &mut Self {
        self.view_catalog = Some(catalog);
        self
    }

    /// The attached semantic answer cache, if any.
    pub fn view_catalog(&self) -> Option<ViewCatalog> {
        self.view_catalog.clone()
    }

    /// The combined invalidation epoch for `name`: the source's
    /// fragment-cache epoch (bumped by `FragmentCache::invalidate`) plus
    /// the catalog's own epoch (bumped by
    /// [`ViewCatalog::invalidate_source`]). A recorded view is only
    /// served while the combined epoch it was recorded under still
    /// matches — so invalidation through *either* channel retires the
    /// dependent views.
    pub fn source_epoch(&self, name: &str) -> u64 {
        let cache_epoch = self
            .sources
            .get(name)
            .and_then(|r| r.cache.as_ref())
            .map(|c| c.source_epoch(name))
            .unwrap_or(0);
        let catalog_epoch =
            self.view_catalog.as_ref().map(|c| c.source_epoch(name)).unwrap_or(0);
        cache_epoch + catalog_epoch
    }

    /// Shared handle to the navigator (and health, if any) for `name`.
    /// Registered sources win; otherwise a `~view:N` name resolves to a
    /// fresh [`DocNavigator`] over the catalog's materialized answer —
    /// the zero-wire backend a semantically rewritten plan navigates.
    /// View-backed sources carry no health/stats/trace: they never touch
    /// the wire, so there is nothing to observe.
    pub(crate) fn resolve(&self, name: &str) -> Result<Registered, EngineError> {
        if let Some(reg) = self.sources.get(name) {
            return Ok(reg.clone());
        }
        if let Some(id) = parse_view_source(name) {
            if let Some(doc) = self.view_catalog.as_ref().and_then(|c| c.view_doc(id)) {
                return Ok(Registered::plain(DocNavigator::new(doc)));
            }
            return Err(EngineError::new(format!(
                "plan references cached view `{name}` that is no longer in the catalog"
            )));
        }
        Err(EngineError::new(format!("plan references unknown source `{name}`")))
    }

    /// Names currently registered.
    pub fn names(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_get() {
        let mut reg = SourceRegistry::new();
        reg.add_term("homesSrc", "homes[h1]");
        reg.add_term("schoolsSrc", "schools[s1]");
        let mut names = reg.names();
        names.sort_unstable();
        assert_eq!(names, ["homesSrc", "schoolsSrc"]);
        let a = reg.resolve("homesSrc").unwrap();
        let b = reg.resolve("homesSrc").unwrap();
        assert!(Arc::ptr_eq(&a.nav, &b.nav), "same connection shared");
        assert!(a.health.is_none(), "plain navigators report no health");
        assert!(reg.resolve("never").is_err());
    }

    #[test]
    fn buffer_handles_travel_with_the_navigator() {
        use mix_buffer::{BufferNavigator, FillPolicy, TreeWrapper};
        use mix_xml::term::parse_term;

        let tree = parse_term("homes[h1,h2]").unwrap();
        let nav =
            BufferNavigator::new(TreeWrapper::single(&tree, FillPolicy::NodeAtATime), "homes");
        let (health, stats) = (nav.health(), nav.stats());
        let mut reg = SourceRegistry::new();
        reg.add_buffer("homesSrc", nav);
        let got = reg.resolve("homesSrc").unwrap();
        // Same shared cells: what happens on the registered connection is
        // visible on the caller's handles and vice versa.
        assert_eq!(got.stats.expect("stats registered").snapshot(), stats.snapshot());
        health.record_degraded(&"synthetic");
        assert_eq!(got.health.expect("health registered").snapshot().degraded_ops, 1);
    }
}
