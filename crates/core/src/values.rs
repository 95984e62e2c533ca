//! Value-level navigation: the `d`/`r`/`f` transducer tables.
//!
//! These methods are the Rust rendering of the paper's Figures 9 and 10 —
//! for each navigation command and node-id shape, produce a new node-id or
//! a label, issuing the minimal navigations on the inputs. Examples
//! (compare Fig. 9/10 line by line):
//!
//! * `f⟨created, b⟩ ↦ "med_home"` — fetching a created element's label
//!   costs nothing;
//! * `d⟨created, b⟩ ↦ d(b.HLSs)` — descending into a created element
//!   descends into its `ch` attribute's list;
//! * `r⟨LS, p_b, p_g⟩ ↦ ⟨LS, next(p_b, p_g), p_g⟩` — the next member of a
//!   group list is the next input binding with the same group-by list
//!   (with the group cache on, a lookup in the group's member list).

use crate::bindings::Nav;
use crate::handle::{BHandle, VData, VNode};
use crate::ops::{GroupSpec, OpSpec};
use mix_algebra::PlanId;
use mix_nav::LabelPred;
use mix_xmas::{LabelSpec, Var};
use mix_xml::{Label, Tree};

/// Label of the virtual document node above each source's root element
/// (re-exported from `mix-xml`, shared with plan composition).
pub use mix_xml::DOC_LABEL;

impl<'a> Nav<'a> {
    /// The spec of the operator that synthesized value node `v`; `None`
    /// for source, constant and torn-out values.
    fn value_spec(&self, v: &VData) -> Option<&'a OpSpec> {
        match v {
            VData::WrapList { op, .. }
            | VData::ConcatList { op, .. }
            | VData::ConcatMember { op, .. }
            | VData::GroupList { op, .. }
            | VData::GroupMember { op, .. }
            | VData::Created { op, .. } => Some(self.spec(*op)),
            _ => None,
        }
    }

    /// `d(p)` on a value node.
    pub(crate) fn val_down(&mut self, v: &VNode) -> Option<VNode> {
        match (&*v.0, self.value_spec(&v.0)) {
            // The document node's single child is the source's root
            // element; obtaining that handle is the free `get_root`.
            (VData::SrcDoc { src }, _) => Some(self.e.src_root(*src)),
            (VData::Src { src, h }, _) => self.e.src_down(*src, *h),
            (VData::Const { doc, node }, _) => {
                let child = doc.down(*node)?;
                Some(VNode::new(VData::Const { doc: doc.clone(), node: child }))
            }
            (
                VData::Solo { inner }
                | VData::ConcatMember { inner, .. }
                | VData::GroupMember { inner, .. },
                _,
            ) => self.val_down(inner),
            // list[v]: the single member is the wrapped value, torn from
            // its original sibling context.
            (VData::WrapList { op, b }, Some(OpSpec::Wrap { var, .. })) => {
                let value = self.attr(*op, b, var);
                Some(VNode::new(VData::Solo { inner: value }))
            }
            (VData::ConcatList { op, b }, Some(OpSpec::Concat { x, y, .. })) => {
                self.concat_first(*op, b, [x, y], 0)
            }
            (VData::GroupList { op, first, first_idx, item }, Some(OpSpec::GroupBy(g))) => {
                let first = first.as_ref()?;
                let value = self.group_item_value(g, first, *item);
                Some(VNode::new(VData::GroupMember {
                    op: *op,
                    item: *item,
                    first: first.clone(),
                    first_idx: *first_idx,
                    ib: first.clone(),
                    ib_idx: *first_idx,
                    inner: value,
                }))
            }
            // Children of the created element are the subtrees of bin.ch
            // (Fig. 9, 6th mapping).
            (VData::Created { op, b }, Some(OpSpec::Create { ch, .. })) => {
                let ch_val = self.attr(*op, b, ch);
                self.val_down(&ch_val)
            }
            (VData::ClientRoot, _) => {
                let root = self.resolve_client_root();
                self.val_down(&root)
            }
            _ => unreachable!("value node of another operator"),
        }
    }

    /// `r(p)` on a value node.
    pub(crate) fn val_right(&mut self, v: &VNode) -> Option<VNode> {
        match (&*v.0, self.value_spec(&v.0)) {
            (VData::Src { src, h }, _) => self.e.src_right(*src, *h),
            (VData::Const { doc, node }, _) => {
                let sib = doc.right(*node)?;
                Some(VNode::new(VData::Const { doc: doc.clone(), node: sib }))
            }
            // A document node has no siblings, nor has a torn-out value.
            // Attribute values themselves have no siblings at the client
            // level; they are reached only through attribute jumps.
            (
                VData::SrcDoc { .. }
                | VData::Solo { .. }
                | VData::WrapList { .. }
                | VData::ConcatList { .. }
                | VData::GroupList { .. }
                | VData::Created { .. }
                | VData::ClientRoot,
                _,
            ) => None,
            (
                VData::ConcatMember { op, b, side, from_list, inner },
                Some(OpSpec::Concat { x, y, .. }),
            ) => {
                if *from_list {
                    if let Some(next) = self.val_right(inner) {
                        return Some(VNode::new(VData::ConcatMember {
                            op: *op,
                            b: b.clone(),
                            side: *side,
                            from_list: true,
                            inner: next,
                        }));
                    }
                }
                if *side == 0 {
                    self.concat_first(*op, b, [x, y], 1)
                } else {
                    None
                }
            }
            // Fig. 10, 8th mapping: ⟨LS, next(p_b, p_g), p_g⟩.
            (
                VData::GroupMember { op, item, first, first_idx, ib, ib_idx, .. },
                Some(OpSpec::GroupBy(g)),
            ) => {
                let (next_idx, next) = match (ib_idx, first_idx) {
                    (Some(i), Some(fi)) => {
                        // Cached: the group id sits in the shared scan.
                        let gid = self.e.state.groups[g.slot].scanned[*fi].0;
                        let (ni, nh) = self.next_group_member_cached(g, gid, *i)?;
                        (Some(ni), nh)
                    }
                    _ => {
                        let key = self.group_key_of(g, first);
                        (None, self.next_group_member(g, &key, ib)?)
                    }
                };
                let value = self.group_item_value(g, &next, *item);
                Some(VNode::new(VData::GroupMember {
                    op: *op,
                    item: *item,
                    first: first.clone(),
                    first_idx: *first_idx,
                    ib: next,
                    ib_idx: next_idx,
                    inner: value,
                }))
            }
            _ => unreachable!("value node of another operator"),
        }
    }

    /// `f(p)` on a value node.
    pub(crate) fn val_fetch(&mut self, v: &VNode) -> Label {
        match (&*v.0, self.value_spec(&v.0)) {
            (VData::SrcDoc { .. }, _) => Label::new(DOC_LABEL),
            (VData::Src { src, h }, _) => self.e.src_fetch(*src, *h),
            (VData::Const { doc, node }, _) => doc.fetch(*node).clone(),
            (
                VData::Solo { inner }
                | VData::ConcatMember { inner, .. }
                | VData::GroupMember { inner, .. },
                _,
            ) => self.val_fetch(inner),
            // The special `list` label (§3).
            (VData::WrapList { .. } | VData::ConcatList { .. } | VData::GroupList { .. }, _) => {
                Label::list()
            }
            // Fig. 9, 7th mapping: the label is produced locally.
            (VData::Created { op, b }, Some(OpSpec::Create { label, .. })) => match label {
                // Query vocabulary: interned so every element this
                // operator creates shares one allocation and labels
                // compare by symbol downstream.
                LabelSpec::Const(s) => Label::intern(s),
                LabelSpec::Var(var) => {
                    let val = self.attr(*op, b, var);
                    let t = self.materialize_value(&val);
                    if t.is_leaf() {
                        t.label().clone()
                    } else {
                        Label::new(t.text())
                    }
                }
            },
            (VData::ClientRoot, _) => {
                let root = self.resolve_client_root();
                self.val_fetch(&root)
            }
            _ => unreachable!("value node of another operator"),
        }
    }

    /// `select_φ(p)`: native on source nodes (one source command), derived
    /// from `r`/`f` everywhere else.
    pub(crate) fn val_select(&mut self, v: &VNode, pred: &LabelPred) -> Option<VNode> {
        if let VData::Src { src, h } = &*v.0 {
            return self.e.src_select(*src, *h, pred);
        }
        let mut cur = self.val_right(v)?;
        loop {
            if pred.matches(&self.val_fetch(&cur)) {
                return Some(cur);
            }
            cur = self.val_right(&cur)?;
        }
    }

    /// Fully materialize the subtree below a value node (used for
    /// predicate evaluation, group keys, and sort keys).
    pub(crate) fn materialize_value(&mut self, v: &VNode) -> Tree {
        let label = self.val_fetch(v);
        let mut children = Vec::new();
        let mut cur = self.val_down(v);
        while let Some(c) = cur {
            children.push(self.materialize_value(&c));
            cur = self.val_right(&c);
        }
        Tree::node(label, children)
    }

    // ---- helpers ------------------------------------------------------------

    /// First element of side `side` (0 = `x`, 1 = `y`) of a concatenation,
    /// falling through to the other side / `None` on empty lists.
    fn concat_first(&mut self, op: PlanId, b: &BHandle, xy: [&Var; 2], side: u8) -> Option<VNode> {
        let value = self.attr(op, b, xy[side as usize]);
        let result = if self.val_fetch(&value) == Label::list() {
            self.val_down(&value).map(|first| {
                VNode::new(VData::ConcatMember {
                    op,
                    b: b.clone(),
                    side,
                    from_list: true,
                    inner: first,
                })
            })
        } else {
            Some(VNode::new(VData::ConcatMember {
                op,
                b: b.clone(),
                side,
                from_list: false,
                inner: value,
            }))
        };
        match result {
            Some(m) => Some(m),
            None if side == 0 => self.concat_first(op, b, xy, 1),
            None => None,
        }
    }

    /// The value of groupBy item `item` under input binding `ib`.
    fn group_item_value(&mut self, g: &GroupSpec, ib: &BHandle, item: usize) -> VNode {
        self.attr(g.input, ib, &g.items[item].value)
    }

    /// Resolve (and cache) the client root below `tupleDestroy`.
    fn resolve_client_root(&mut self) -> VNode {
        if let Some(root) = &self.e.state.client_root {
            return root.clone();
        }
        let (input, var) = (self.e.root_input, self.e.root_var.clone());
        let first = self
            .first_binding(input)
            .expect("the query produced no answer document (empty binding list)");
        let value = self.attr(input, &first, &var);
        let resolved = VNode::new(VData::Solo { inner: value });
        self.e.state.client_root = Some(resolved.clone());
        resolved
    }
}
