//! Skolem-style node-ids (paper §3, Appendix A).
//!
//! "Maintaining association tables for each operator is wasteful … the
//! node-ids directly encode the association information `a(p)`." A handle
//! is a small reference-counted value whose fields are exactly the input
//! pointers the owning operator needs to continue navigation — compare
//! Figure 9's `⟨v, p_b⟩` (createElement value level) and Figure 10's
//! `⟨LS, p_b, p_g⟩` (groupBy member level).
//!
//! Handles come in two sorts:
//!
//! * [`BHandle`] — a *binding* (one `b[…]` of a binding list): the unit
//!   the inter-operator interface enumerates;
//! * [`VNode`] — a node of a *value* tree (what the client ultimately
//!   navigates).

use crate::matchcur::MatchCursor;
use mix_algebra::PlanId;
use mix_xml::{Document, NodeId};
use std::sync::Arc;

/// Handle to one variable binding in an operator's output binding list.
///
/// The shape of the payload corresponds to the operator that issued it;
/// handles are persistent (cloning shares them) and never invalidated, so
/// "an incoming navigation command `c(p)` may involve any previously
/// encountered pointer `p`" (§3).
#[derive(Clone, Debug)]
pub struct BHandle(pub(crate) Arc<BData>);

impl BHandle {
    pub(crate) fn new(data: BData) -> Self {
        BHandle(Arc::new(data))
    }

    /// The same binding: handles are persistent, so identity is the `Arc`.
    pub(crate) fn same(&self, other: &BHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Operator-specific binding associations.
#[derive(Debug)]
pub(crate) enum BData {
    /// `source`: the singleton binding `b[v[root]]`.
    Source,
    /// `getDescendants`: the input binding plus the match cursor that
    /// identifies the extracted descendant (and how to find the next one).
    GetDesc { input: BHandle, cursor: MatchCursor },
    /// `select`: a qualifying input binding, passed through.
    Filtered { input: BHandle },
    /// `join` / `cross`: the pair of input bindings. `ridx` is the inner
    /// binding's position in the join's inner cache (unused by `cross`
    /// and by cache-disabled joins).
    Pair { left: BHandle, right: BHandle, ridx: usize },
    /// `union`: a binding of one side (0 = left, 1 = right).
    Tagged { side: u8, inner: BHandle },
    /// Pass-through operators (`project`, `difference`, `concatenate`,
    /// `createElement`, `constant`, `wrap`): output bindings are 1:1 with
    /// input bindings.
    Through { inner: BHandle },
    /// `groupBy`: a group, identified by the *first* input binding with
    /// this group's key (`p_g` in Fig. 10). `first` is `None` only for the
    /// synthetic all-in-one group that `groupBy {}` produces over empty
    /// input. `first_idx` is the binding's position in the groupBy's
    /// shared input scan — the paper's "reference to the buffer" carried
    /// inside the node-id; `None` in cache-disabled mode.
    Group { first: Option<BHandle>, first_idx: Option<usize> },
    /// `orderBy`: position in the materialized sort order.
    Ordered { index: usize },
}

/// Handle to a node of a (virtual) value tree — the engine's client-facing
/// handle type.
#[derive(Clone, Debug)]
pub struct VNode(pub(crate) Arc<VData>);

impl VNode {
    pub(crate) fn new(data: VData) -> Self {
        VNode(Arc::new(data))
    }
}

/// The node-id payloads. Each synthesized variant records the operator it
/// belongs to plus the binding (and inner value pointers) needed to answer
/// `d`/`r`/`f` — the association information `a(p)`.
#[derive(Debug)]
pub(crate) enum VData {
    /// The virtual *document node* above source `src`'s root element.
    /// XMAS paths are rooted here: `homesSrc homes.home $H` consumes the
    /// root element's label (`homes`) as its first step, exactly like the
    /// tree-pattern form `<homes> … </homes> IN homesSrc` of footnote 6.
    /// One per source, built with the engine and cloned wherever a
    /// binding of the source is read.
    SrcDoc { src: usize },
    /// A node inside wrapped source `src`: the source's own integer
    /// node-id (`DynNavigator`'s handle), as the source issued it.
    Src { src: usize, h: u64 },
    /// A node of an owned constant tree (literals in query heads).
    Const { doc: Arc<Document>, node: NodeId },
    /// A value torn from its original sibling context: `d`/`f` delegate,
    /// `r` is `⊥`. Used for singleton-list members and the client root.
    Solo { inner: VNode },
    /// The `list[v]` node synthesized by `wrap` for binding `b`.
    WrapList { op: PlanId, b: BHandle },
    /// The `list[…]` node synthesized by `concatenate` for binding `b`.
    ConcatList { op: PlanId, b: BHandle },
    /// A member of a concatenated list: `side` 0 = from `x`, 1 = from `y`;
    /// `from_list` tells whether `inner` iterates within a source list
    /// (true) or is a whole non-list value (false).
    ConcatMember { op: PlanId, b: BHandle, side: u8, from_list: bool, inner: VNode },
    /// The `list[coll]` node of groupBy item `item` for the group whose
    /// first input binding is `first` (at `first_idx` in the shared scan),
    /// as in [`BData::Group`].
    GroupList { op: PlanId, first: Option<BHandle>, first_idx: Option<usize>, item: usize },
    /// A member of a group's list: `⟨LS, p_b, p_g⟩` of Fig. 10 — the input
    /// binding `ib` holding this value, the group `p_g` (its first input
    /// binding `first`, at `first_idx`), and the value node itself.
    /// `ib_idx` is `ib`'s position in the shared input scan (cache-enabled
    /// mode only).
    GroupMember {
        op: PlanId,
        item: usize,
        first: BHandle,
        first_idx: Option<usize>,
        ib: BHandle,
        ib_idx: Option<usize>,
        inner: VNode,
    },
    /// The element created by `createElement` for binding `b`.
    Created { op: PlanId, b: BHandle },
    /// The unresolved root of the virtual answer document: handed to the
    /// client "without even accessing the sources" (§1); resolved on the
    /// first real navigation.
    ClientRoot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_cheap_to_clone() {
        let v = VNode::new(VData::ClientRoot);
        let w = v.clone();
        assert!(Arc::ptr_eq(&v.0, &w.0));
        let b = BHandle::new(BData::Source);
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.0, &c.0));
    }

    #[test]
    fn nesting_encodes_lineage() {
        // A groupMember-ish chain nests handles like the paper's Skolem
        // ids nest pointers.
        let src = BHandle::new(BData::Source);
        let through = BHandle::new(BData::Through { inner: src.clone() });
        let group = BHandle::new(BData::Group { first: Some(through), first_idx: Some(0) });
        match &*group.0 {
            BData::Group { first: Some(f), .. } => match &*f.0 {
                BData::Through { inner } => {
                    assert!(Arc::ptr_eq(&inner.0, &src.0));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
