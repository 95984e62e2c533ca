//! Navigator over a materialized [`Document`].
//!
//! This is the "ideal source" of the paper (§4): one that can be accessed
//! at the finest granularity, node-at-a-time. It also models a lazy
//! mediator's *input* in unit tests, and the client's view of an eagerly
//! materialized answer.

use crate::pred::LabelPred;
use crate::{Axis, Navigator};
use mix_xml::{Document, Label, NodeId, Tree};
use std::sync::Arc;

/// Navigator over an in-memory [`Document`]. Cloning shares the document.
#[derive(Clone, Debug)]
pub struct DocNavigator {
    doc: Arc<Document>,
}

impl DocNavigator {
    /// Wrap an existing document.
    pub fn new(doc: Arc<Document>) -> Self {
        DocNavigator { doc }
    }

    /// Flatten a tree and navigate over it.
    pub fn from_tree(t: &Tree) -> Self {
        DocNavigator { doc: Arc::new(Document::from_tree(t)) }
    }

    /// Parse the paper's term syntax and navigate over the result.
    /// Panics on malformed input — intended for tests and fixtures.
    pub fn from_term(s: &str) -> Self {
        Self::from_tree(&mix_xml::term::parse_term(s).expect("valid term syntax"))
    }

    /// The underlying document.
    pub fn document(&self) -> &Document {
        &self.doc
    }
}

impl Navigator for DocNavigator {
    type Handle = NodeId;

    fn root(&mut self) -> NodeId {
        self.doc.root()
    }

    fn down(&mut self, p: &NodeId) -> Option<NodeId> {
        self.doc.down(*p)
    }

    fn right(&mut self, p: &NodeId) -> Option<NodeId> {
        self.doc.right(*p)
    }

    fn fetch(&mut self, p: &NodeId) -> Label {
        self.doc.fetch(*p).clone()
    }

    fn select(&mut self, p: &NodeId, pred: &LabelPred) -> Option<NodeId> {
        // Native sibling selection: a materialized document can satisfy
        // select_φ in a single (local) scan without emitting observable
        // r/f commands — this is what makes σφ-views bounded browsable
        // when NC includes select (§2).
        let mut cur = self.doc.right(*p)?;
        loop {
            if pred.matches(self.doc.fetch(cur)) {
                return Some(cur);
            }
            cur = self.doc.right(cur)?;
        }
    }

    /// A materialized document knows every answer.
    fn peek(&mut self, p: &NodeId, axis: Axis) -> Option<Option<NodeId>> {
        Some(match axis {
            Axis::Down => self.doc.down(*p),
            Axis::Right => self.doc.right(*p),
        })
    }

    fn peek_label(&mut self, p: &NodeId) -> Option<Label> {
        Some(self.doc.fetch(*p).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn navigates_document() {
        let mut n = DocNavigator::from_term("a[b[d,e],c]");
        let root = n.root();
        assert_eq!(n.fetch(&root), "a");
        let b = n.down(&root).unwrap();
        let c = n.right(&b).unwrap();
        assert_eq!(n.fetch(&c), "c");
        assert_eq!(n.right(&c), None);
    }

    #[test]
    fn handles_stay_valid_across_navigation() {
        // Paper §1: "client navigation may proceed from multiple nodes".
        let mut n = DocNavigator::from_term("r[x[p],y[q],z]");
        let root = n.root();
        let x = n.down(&root).unwrap();
        let y = n.right(&x).unwrap();
        let z = n.right(&y).unwrap();
        // Now resume from x even though we walked to z.
        let p = n.down(&x).unwrap();
        assert_eq!(n.fetch(&p), "p");
        assert_eq!(n.fetch(&z), "z");
    }

    #[test]
    fn select_finds_matching_sibling() {
        let mut n = DocNavigator::from_term("r[a,b,a,c]");
        let r = n.root();
        let first = n.down(&r).unwrap();
        let hit = n.select(&first, &LabelPred::equals("a")).unwrap();
        assert_eq!(n.fetch(&hit), "a");
        // It is the *second* `a` (first right sibling matching).
        let after = n.right(&hit).unwrap();
        assert_eq!(n.fetch(&after), "c");
        // No matching sibling.
        assert_eq!(n.select(&hit, &LabelPred::equals("zzz")), None);
    }

    #[test]
    fn clone_shares_document() {
        let n = DocNavigator::from_term("a[b]");
        let mut m = n.clone();
        let r = m.root();
        assert_eq!(m.fetch(&r), "a");
        assert!(Arc::ptr_eq(&n.doc, &m.doc));
    }
}
