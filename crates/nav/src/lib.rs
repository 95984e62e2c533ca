//! # mix-nav — the DOM-VXD navigational interface
//!
//! DOM-VXD (*DOM for Virtual XML Documents*, paper §2) is the abstraction of
//! a subset of the DOM API through which every document in the MIX
//! architecture is accessed — materialized sources, buffered wrappers, and
//! the virtual answer views exported by lazy mediators alike. The minimal
//! command set `NC` is:
//!
//! * `d` (*down*) — first child, `⊥` on a leaf,
//! * `r` (*right*) — right sibling, `⊥` if none,
//! * `f` (*fetch*) — the label of a node,
//!
//! optionally extended (in the style of XPointer) with
//!
//! * `select(φ)` — first right sibling whose label satisfies `φ`.
//!
//! This minimal set suffices to completely explore arbitrary documents
//! (§2); whether `select` is in `NC` changes the *browsability class* of
//! some views (Example 1), which experiment E4 measures.
//!
//! The crate provides the [`Navigator`] trait, concrete navigators over
//! materialized [`Document`]s, command counting/recording adapters used by
//! the navigational-complexity experiments, integer source handles for
//! heterogeneous sources ([`erase`], [`HandleTable`]), and utilities to
//! run navigation *sequences* (Def. 1) and to fully explore a virtual
//! document into an owned tree.
//!
//! [`Document`]: mix_xml::Document

pub mod command;
pub mod counted;
pub mod doc;
pub mod erased;
pub mod explore;
pub mod pred;
pub mod recorded;
pub mod summary;
pub mod table;

pub use command::{Cmd, NavProgram, Step};
pub use counted::{CountedNavigator, NavCounters, NavStats};
pub use doc::DocNavigator;
pub use erased::{erase, DynNavigator, IntHandle};
pub use explore::{explored_part, materialize, materialize_children};
pub use pred::LabelPred;
pub use recorded::{Recorded, RecordingNavigator, Trace};
pub use summary::Summary;
pub use table::HandleTable;

use mix_xml::Label;

/// The axis of a [`Navigator::peek`]: the command whose answer is asked
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `d`: the first child.
    Down,
    /// `r`: the right sibling.
    Right,
}

/// The DOM-VXD navigational interface.
///
/// Implementations may be stateful (`&mut self`): lazy mediators cache
/// parts of their input and buffered wrappers fill holes on demand, so even
/// a "read" can change internal state. Handles are cheap to clone and stay
/// valid for the navigator's lifetime — the paper's model lets a client
/// continue navigation "from multiple nodes whose descendants or siblings
/// have not been visited yet" (§1), unlike a relational cursor.
pub trait Navigator {
    /// The node-id type (`p` in the paper).
    type Handle: Clone;

    /// A handle to the (virtual) document root. This must not access any
    /// source data: the paper's preprocessing phase "returns a handle to
    /// the root element of the virtual XML answer document without even
    /// accessing the sources" (§1).
    fn root(&mut self) -> Self::Handle;

    /// `d(p)`: first child of `p`, or `None` if `p` is a leaf.
    fn down(&mut self, p: &Self::Handle) -> Option<Self::Handle>;

    /// `r(p)`: right sibling of `p`, or `None`.
    fn right(&mut self, p: &Self::Handle) -> Option<Self::Handle>;

    /// `f(p)`: the label of `p`.
    fn fetch(&mut self, p: &Self::Handle) -> Label;

    /// `select_φ(p)`: first sibling to the right of `p` whose label
    /// satisfies `φ`, or `None`.
    ///
    /// The default implementation derives `select` from `r` and `f` — a
    /// navigator that only provides the minimal `NC` still answers
    /// `select`, but pays one `r`/`f` pair per skipped sibling. Sources
    /// that support native sibling selection override this with a bounded
    /// implementation ("if `NC` includes the sibling selection σφ, the
    /// query becomes bounded browsable", §2).
    fn select(&mut self, p: &Self::Handle, pred: &LabelPred) -> Option<Self::Handle> {
        let mut cur = self.right(p)?;
        loop {
            if pred.matches(&self.fetch(&cur)) {
                return Some(cur);
            }
            cur = self.right(&cur)?;
        }
    }

    /// What `d(p)` or `r(p)` would answer, when the navigator already
    /// knows it without a source command: `Some(Some(n))` is a node,
    /// `Some(None)` the end of the axis, and `None` means "unknown". A
    /// peek is not a command: it counts nothing, records nothing and
    /// moves no data. A buffer knows its open tree, a lazy mediator what
    /// its operators' state holds, and both answer a node only when
    /// [`peek_label`](Navigator::peek_label) knows its label too, so
    /// reading a peeked node's label does no source work either. The
    /// default knows nothing.
    fn peek(&mut self, p: &Self::Handle, axis: Axis) -> Option<Option<Self::Handle>> {
        let _ = (p, axis);
        None
    }

    /// What `f(p)` would answer, when the navigator already knows it
    /// without a source command; `None` means "unknown". Like
    /// [`peek`](Navigator::peek), not a command. The default knows
    /// nothing.
    fn peek_label(&mut self, p: &Self::Handle) -> Option<Label> {
        let _ = p;
        None
    }
}

impl<N: Navigator + ?Sized> Navigator for &mut N {
    type Handle = N::Handle;

    fn root(&mut self) -> Self::Handle {
        (**self).root()
    }

    fn down(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        (**self).down(p)
    }

    fn right(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        (**self).right(p)
    }

    fn fetch(&mut self, p: &Self::Handle) -> Label {
        (**self).fetch(p)
    }

    fn select(&mut self, p: &Self::Handle, pred: &LabelPred) -> Option<Self::Handle> {
        (**self).select(p, pred)
    }

    fn peek(&mut self, p: &Self::Handle, axis: Axis) -> Option<Option<Self::Handle>> {
        (**self).peek(p, axis)
    }

    fn peek_label(&mut self, p: &Self::Handle) -> Option<Label> {
        (**self).peek_label(p)
    }
}

impl<N: Navigator + ?Sized> Navigator for Box<N> {
    type Handle = N::Handle;

    fn root(&mut self) -> Self::Handle {
        (**self).root()
    }

    fn down(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        (**self).down(p)
    }

    fn right(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        (**self).right(p)
    }

    fn fetch(&mut self, p: &Self::Handle) -> Label {
        (**self).fetch(p)
    }

    fn select(&mut self, p: &Self::Handle, pred: &LabelPred) -> Option<Self::Handle> {
        (**self).select(p, pred)
    }

    fn peek(&mut self, p: &Self::Handle, axis: Axis) -> Option<Option<Self::Handle>> {
        (**self).peek(p, axis)
    }

    fn peek_label(&mut self, p: &Self::Handle) -> Option<Label> {
        (**self).peek_label(p)
    }
}
