//! Integer ids for navigators whose handles are not integers.
//!
//! A served session hands its client wire handles, and a mediator
//! stacked on another mediator (Figure 1) reaches it through `u64`
//! source handles ([`DynNavigator`](crate::DynNavigator)). In both cases
//! the navigator underneath is an engine whose node-ids are richer
//! values. [`HandleTable`] numbers them: it keeps every handle it hands
//! out, so an id stays valid for the table's lifetime (§3: a command "may
//! involve any previously encountered pointer").

use crate::pred::LabelPred;
use crate::{Axis, Navigator};
use mix_xml::Label;

/// A navigator with dense `u64` handles over any navigator `N`.
///
/// Ids start at 1 and grow by one per node handed out; the root keeps
/// one id however often [`Navigator::root`] is called. Nothing is ever
/// released: the table grows by one entry per `d`/`r`/`select` that
/// returns a node, and per [`Navigator::peek`] that knows one. An id the
/// table never issued navigates to `None` and fetches the empty label.
pub struct HandleTable<N: Navigator> {
    nav: N,
    /// The handle of id `i` sits at `handles[i - 1]`.
    handles: Vec<N::Handle>,
    root: Option<u64>,
}

impl<N: Navigator> HandleTable<N> {
    /// A table over `nav` that has issued no id yet.
    pub fn new(nav: N) -> Self {
        HandleTable { nav, handles: Vec::new(), root: None }
    }

    /// The navigator and the handle behind `id`, if the table issued it:
    /// for calls beyond the navigation verbs. Number a node the call
    /// returns with [`HandleTable::issue`].
    pub fn lookup(&mut self, id: u64) -> Option<(&mut N, &N::Handle)> {
        Some((&mut self.nav, slot(&self.handles, id)?))
    }

    /// Number `h` with the next id.
    pub fn issue(&mut self, h: N::Handle) -> u64 {
        self.handles.push(h);
        self.handles.len() as u64
    }

    /// Ids issued so far; the last one issued is this number.
    pub fn issued(&self) -> u64 {
        self.handles.len() as u64
    }
}

fn slot<H>(handles: &[H], id: u64) -> Option<&H> {
    handles.get(usize::try_from(id).ok()?.checked_sub(1)?)
}

impl<N: Navigator> Navigator for HandleTable<N> {
    type Handle = u64;

    fn root(&mut self) -> u64 {
        match self.root {
            Some(id) => id,
            None => {
                let h = self.nav.root();
                let id = self.issue(h);
                self.root = Some(id);
                id
            }
        }
    }

    fn down(&mut self, p: &u64) -> Option<u64> {
        let out = self.nav.down(slot(&self.handles, *p)?)?;
        Some(self.issue(out))
    }

    fn right(&mut self, p: &u64) -> Option<u64> {
        let out = self.nav.right(slot(&self.handles, *p)?)?;
        Some(self.issue(out))
    }

    fn fetch(&mut self, p: &u64) -> Label {
        match slot(&self.handles, *p) {
            Some(h) => self.nav.fetch(h),
            None => Label::new(""),
        }
    }

    fn select(&mut self, p: &u64, pred: &LabelPred) -> Option<u64> {
        let out = self.nav.select(slot(&self.handles, *p)?, pred)?;
        Some(self.issue(out))
    }

    /// A known node is numbered like the `d`/`r` that would reach it.
    fn peek(&mut self, p: &u64, axis: Axis) -> Option<Option<u64>> {
        let known = self.nav.peek(slot(&self.handles, *p)?, axis)?;
        Some(known.map(|h| self.issue(h)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::DocNavigator;
    use crate::erase;
    use crate::explore::materialize;

    #[test]
    fn repeated_roots_share_one_id() {
        let mut t = HandleTable::new(DocNavigator::from_term("a[b,c]"));
        let root = t.root();
        assert_eq!(root, 1);
        assert_eq!(t.root(), root);
        assert_eq!(t.root(), root);
        // Ids are dense, so the next one issued counts the table.
        let b = t.down(&root).unwrap();
        assert_eq!(b, 2, "the root is issued once");
        assert_eq!(t.fetch(&b), "b");
    }

    #[test]
    fn a_known_peek_is_numbered_like_the_command() {
        let mut t = HandleTable::new(DocNavigator::from_term("a[b,c]"));
        let root = t.root();
        let b = t.peek(&root, Axis::Down).flatten().expect("a document knows its children");
        assert_eq!((b, t.fetch(&b).as_str()), (2, "b"));
        assert_eq!(t.peek(&b, Axis::Down), Some(None), "an end issues nothing");
        assert_eq!(t.issued(), 2);
        assert_eq!(t.peek(&99, Axis::Right), None, "an id never issued knows nothing");
    }

    #[test]
    fn unissued_ids_navigate_nowhere() {
        let mut t = HandleTable::new(DocNavigator::from_term("a[b,c]"));
        let root = t.root();
        for id in [0, root + 1, u64::MAX] {
            assert!(t.lookup(id).is_none());
            assert!(t.down(&id).is_none());
            assert!(t.right(&id).is_none());
            assert!(t.select(&id, &LabelPred::equals("c")).is_none());
            assert_eq!(t.fetch(&id), "");
        }
        assert_eq!(t.down(&root), Some(2), "misses issue nothing");
    }

    #[test]
    fn a_table_erases_and_explores_like_its_navigator() {
        let term = "a[b[d,e],c]";
        let mut n = erase(HandleTable::new(DocNavigator::from_term(term)));
        assert_eq!(materialize(&mut *n).to_string(), term);
    }
}
