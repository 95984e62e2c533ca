//! Type erasure for heterogeneous sources.
//!
//! The mediator integrates sources of different kinds behind one plan
//! (Figure 1: RDB, Web sites, OODB). Each wrapper has its own handle type,
//! but a source node-id "directly encodes the association information"
//! (§3, App. A), and for a source node that is one integer. So the engine
//! talks to every source as a [`DynNavigator`], a navigator with plain
//! `u64` handles, and [`erase`] adapts any [`Navigator`] whose handle is
//! an [`IntHandle`]. A navigator with richer handles (an `Engine` stacked
//! as a source) is erased through a [`HandleTable`](crate::HandleTable),
//! which numbers its handles.

use crate::pred::LabelPred;
use crate::Navigator;
use mix_xml::{Label, NodeId};

/// A handle that is one integer: it converts to a `u64` and back without
/// a table. Only ids a navigator issued are ever converted back.
pub trait IntHandle {
    /// The handle as an integer.
    fn to_int(&self) -> u64;
    /// The handle `to_int` produced `raw` from.
    fn from_int(raw: u64) -> Self;
}

impl IntHandle for u64 {
    fn to_int(&self) -> u64 {
        *self
    }

    fn from_int(raw: u64) -> Self {
        raw
    }
}

impl IntHandle for NodeId {
    fn to_int(&self) -> u64 {
        self.index() as u64
    }

    fn from_int(raw: u64) -> Self {
        NodeId::from_index(raw as usize)
    }
}

/// An erased source: a navigator with `u64` handles, used for plan
/// leaves. `Send` so erased sources can be owned by a shared registry and
/// driven from worker threads (behind a lock).
pub type DynNavigator = dyn Navigator<Handle = u64> + Send;

struct Erased<N>(N);

impl<N: Navigator> Navigator for Erased<N>
where
    N::Handle: IntHandle,
{
    type Handle = u64;

    fn root(&mut self) -> u64 {
        self.0.root().to_int()
    }

    fn down(&mut self, p: &u64) -> Option<u64> {
        self.0.down(&N::Handle::from_int(*p)).map(|h| h.to_int())
    }

    fn right(&mut self, p: &u64) -> Option<u64> {
        self.0.right(&N::Handle::from_int(*p)).map(|h| h.to_int())
    }

    fn fetch(&mut self, p: &u64) -> Label {
        self.0.fetch(&N::Handle::from_int(*p))
    }

    fn select(&mut self, p: &u64, pred: &LabelPred) -> Option<u64> {
        self.0.select(&N::Handle::from_int(*p), pred).map(|h| h.to_int())
    }
}

/// Erase a concrete navigator into a boxed [`DynNavigator`]. The box is
/// itself a [`Navigator`], so all generic utilities (materialize,
/// explored_part, CountedNavigator) apply.
pub fn erase<N>(nav: N) -> Box<DynNavigator>
where
    N: Navigator + Send + 'static,
    N::Handle: IntHandle,
{
    Box::new(Erased(nav))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::DocNavigator;
    use crate::explore::materialize;

    #[test]
    fn erased_navigation_works() {
        let mut n = erase(DocNavigator::from_term("a[b[d,e],c]"));
        let root = n.root();
        assert_eq!(n.fetch(&root), "a");
        let b = n.down(&root).unwrap();
        assert_eq!(n.fetch(&b), "b");
        let c = n.right(&b).unwrap();
        assert_eq!(n.fetch(&c), "c");
        assert!(n.right(&c).is_none());
    }

    #[test]
    fn erased_select() {
        let mut n = erase(DocNavigator::from_term("r[a,b,c]"));
        let r = n.root();
        let a = n.down(&r).unwrap();
        let c = n.select(&a, &LabelPred::equals("c")).unwrap();
        assert_eq!(n.fetch(&c), "c");
    }

    #[test]
    fn generic_utilities_apply_to_erased() {
        let mut n = erase(DocNavigator::from_term("a[b[d,e],c]"));
        let t = materialize(&mut *n);
        assert_eq!(t.to_string(), "a[b[d,e],c]");
    }
}
