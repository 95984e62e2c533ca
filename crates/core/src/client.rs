//! The thin client library (paper §5).
//!
//! "A thin client library between the mediator and the client application
//! makes the virtual document exported by the mediator indistinguishable
//! from a main memory resident document accessed via DOM." Each
//! [`VirtualElement`] holds the mediator's node-id privately (the paper's
//! `node_id` field) and exposes plain DOM-style methods; the client code
//! below never learns it is driving a tree of lazy mediators over remote
//! sources.

use crate::engine::Degraded;
use crate::handle::VNode;
use crate::trace::{TraceLog, TraceSink};
use crate::Engine;
use mix_buffer::lock_unpoisoned;
use mix_nav::{LabelPred, Navigator};
use mix_xml::{Label, Tree};
use std::sync::{Arc, Mutex};

/// A virtual XML document backed by a lazy-mediator engine.
#[derive(Clone)]
pub struct VirtualDocument {
    engine: Arc<Mutex<Engine>>,
}

impl VirtualDocument {
    /// Wrap an engine. Cheap: no source access happens here.
    pub fn new(engine: Engine) -> Self {
        VirtualDocument { engine: Arc::new(Mutex::new(engine)) }
    }

    /// Handle to the root element of the virtual answer document —
    /// returned "without even accessing the sources".
    pub fn root(&self) -> VirtualElement {
        let node = lock_unpoisoned(&self.engine).root();
        VirtualElement { engine: self.engine.clone(), node }
    }

    /// Source-navigation statistics accumulated so far.
    pub fn stats(&self) -> crate::EngineStats {
        lock_unpoisoned(&self.engine).stats()
    }

    /// Fault/retry health per source (see [`Engine::health`]). A client
    /// that received a partial answer can look here for which source
    /// degraded and why — without ever leaving the DOM illusion.
    pub fn health(&self) -> Vec<(String, Option<mix_buffer::HealthSnapshot>)> {
        lock_unpoisoned(&self.engine).health()
    }

    /// The worst health status across sources — `Healthy` means the
    /// answer seen so far is complete with respect to the sources.
    pub fn overall_health(&self) -> mix_buffer::HealthStatus {
        lock_unpoisoned(&self.engine).overall_health()
    }

    /// Reset the statistics.
    pub fn reset_stats(&self) {
        lock_unpoisoned(&self.engine).reset_stats();
    }

    /// Access the engine (experiments that mix client-level and
    /// engine-level operations).
    pub fn engine(&self) -> Arc<Mutex<Engine>> {
        self.engine.clone()
    }

    /// Snapshot the flight recorder: every client command, operator
    /// cascade, wire exchange, retry, and degradation recorded so far,
    /// queryable by span / source / kind (see [`TraceLog`]).
    pub fn trace(&self) -> TraceLog {
        TraceLog::from_sink(&lock_unpoisoned(&self.engine).trace_sink())
    }

    /// The shared recorder sink (to enable/disable recording, clear the
    /// ring, or hand it to more buffers).
    pub fn trace_sink(&self) -> TraceSink {
        lock_unpoisoned(&self.engine).trace_sink()
    }

    /// Replace the engine's recorder sink (see
    /// [`Engine::set_trace_sink`](crate::Engine::set_trace_sink)).
    pub fn set_trace_sink(&self, sink: TraceSink) {
        lock_unpoisoned(&self.engine).set_trace_sink(sink);
    }

    /// The engine's live metrics registry (see [`Engine::metrics`]).
    pub fn metrics(&self) -> crate::MetricsRegistry {
        lock_unpoisoned(&self.engine).metrics()
    }

    /// A point-in-time copy of every registered metric series.
    pub fn metrics_snapshot(&self) -> crate::MetricsSnapshot {
        lock_unpoisoned(&self.engine).metrics_snapshot()
    }

    /// The shared cross-query fragment cache, if any source carries one
    /// (see [`Engine::fragment_cache`]).
    pub fn fragment_cache(&self) -> Option<mix_buffer::FragmentCache> {
        lock_unpoisoned(&self.engine).fragment_cache()
    }

    /// The plan tree annotated with live per-operator metrics (see
    /// [`Engine::explain_analyze`]).
    pub fn explain_analyze(&self) -> String {
        lock_unpoisoned(&self.engine).explain_analyze()
    }

    /// A DTD-style structural summary of the *virtual* document, computed
    /// by navigating it lazily — the guide a BBQ-style browser (§6) would
    /// show before the user commits to a query. Navigation costs accrue to
    /// the usual per-source counters.
    pub fn summary(&self, max_depth: usize) -> mix_nav::Summary {
        let mut engine = lock_unpoisoned(&self.engine);
        mix_nav::Summary::infer(&mut *engine, max_depth)
    }
}

/// One element of a virtual document. The API mirrors §5's `XMLElement`:
/// `p.right()` on the client becomes `right(p.node_id)` on the mediator.
#[derive(Clone)]
pub struct VirtualElement {
    engine: Arc<Mutex<Engine>>,
    node: VNode,
}

impl VirtualElement {
    /// The element's label (tag name or atomic content).
    pub fn label(&self) -> Label {
        lock_unpoisoned(&self.engine).fetch(&self.node)
    }

    /// The element's label, *checked*: `Err` when a source degraded while
    /// answering, so an empty label from a dead source is distinguishable
    /// from a real empty PCDATA node (the unchecked [`label`] cannot tell
    /// them apart).
    ///
    /// [`label`]: VirtualElement::label
    pub fn label_checked(&self) -> Result<Label, Degraded> {
        lock_unpoisoned(&self.engine).fetch_checked(&self.node)
    }

    /// First child, or `None` on a leaf.
    pub fn down(&self) -> Option<VirtualElement> {
        let node = lock_unpoisoned(&self.engine).down(&self.node)?;
        Some(VirtualElement { engine: self.engine.clone(), node })
    }

    /// Right sibling, or `None`.
    pub fn right(&self) -> Option<VirtualElement> {
        let node = lock_unpoisoned(&self.engine).right(&self.node)?;
        Some(VirtualElement { engine: self.engine.clone(), node })
    }

    /// First right sibling whose label satisfies the predicate.
    pub fn select(&self, pred: &LabelPred) -> Option<VirtualElement> {
        let node = lock_unpoisoned(&self.engine).select(&self.node, pred)?;
        Some(VirtualElement { engine: self.engine.clone(), node })
    }

    /// Iterate the children (materializes handles lazily, one sibling per
    /// step).
    pub fn children(&self) -> ChildIter {
        ChildIter { next: self.down() }
    }

    /// First child with the given label.
    pub fn child(&self, label: &str) -> Option<VirtualElement> {
        self.children().find(|c| c.label() == label)
    }

    /// Concatenated text of the subtree (pulls the whole subtree).
    pub fn text(&self) -> String {
        self.to_tree().text()
    }

    /// Materialize the whole subtree (the client's "copy into memory").
    pub fn to_tree(&self) -> Tree {
        lock_unpoisoned(&self.engine).nav(|n| n.materialize_value(&self.node))
    }
}

/// Iterator over a virtual element's children.
pub struct ChildIter {
    next: Option<VirtualElement>,
}

impl Iterator for ChildIter {
    type Item = VirtualElement;

    fn next(&mut self) -> Option<VirtualElement> {
        let cur = self.next.take()?;
        self.next = cur.right();
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SourceRegistry};
    use mix_algebra::translate;
    use mix_xmas::parse_query;

    fn demo_doc() -> VirtualDocument {
        let plan = translate(
            &parse_query("CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X").unwrap(),
        )
        .unwrap();
        let mut reg = SourceRegistry::new();
        reg.add_term("src", "items[a[1],b[2],c[3]]");
        VirtualDocument::new(Engine::new(plan, &reg).unwrap())
    }

    #[test]
    fn stats_and_reset() {
        let doc = demo_doc();
        assert_eq!(doc.stats().total().total(), 0, "root costs nothing");
        let root = doc.root();
        let _ = root.down().unwrap().label();
        assert!(doc.stats().total().total() > 0);
        doc.reset_stats();
        assert_eq!(doc.stats().total().total(), 0);
    }

    #[test]
    fn children_and_child_lookup() {
        let doc = demo_doc();
        let root = doc.root();
        let labels: Vec<String> =
            root.children().map(|c| c.label().to_string()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert!(root.child("b").is_some());
        assert!(root.child("zzz").is_none());
        assert_eq!(root.child("b").unwrap().text(), "2");
    }

    #[test]
    fn to_tree_and_text() {
        let doc = demo_doc();
        let root = doc.root();
        assert_eq!(root.to_tree().to_string(), "all[a[1],b[2],c[3]]");
        assert_eq!(root.text(), "123");
    }

    #[test]
    fn select_on_the_client() {
        let doc = demo_doc();
        let first = doc.root().down().unwrap();
        let hit = first.select(&LabelPred::equals("c")).unwrap();
        assert_eq!(hit.label(), "c");
        assert!(hit.select(&LabelPred::equals("a")).is_none());
    }

    #[test]
    fn summary_of_the_virtual_view() {
        let doc = demo_doc();
        let guide = doc.summary(8).to_string();
        assert!(guide.contains("all → a, b, c"), "{guide}");
        // The guide was produced by real lazy navigation.
        assert!(doc.stats().total().total() > 0);
    }

    #[test]
    fn shared_engine_across_clones() {
        let doc = demo_doc();
        let doc2 = doc.clone();
        let _ = doc.root().down();
        // The clone observes the same counters (same engine).
        assert_eq!(doc.stats().total(), doc2.stats().total());
        assert!(doc2.stats().total().total() > 0);
    }
}
