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

use crate::handle::{BData, BHandle, VData, VNode};
use crate::ops::OpState;
use crate::Engine;
use mix_algebra::PlanId;
use mix_nav::LabelPred;
use mix_xmas::LabelSpec;
use mix_xml::{Label, Tree};

/// Label of the virtual document node above each source's root element
/// (re-exported from `mix-xml`, shared with plan composition).
pub use mix_xml::DOC_LABEL;

impl Engine {
    /// `d(p)` on a value node.
    pub(crate) fn val_down(&mut self, v: &VNode) -> Option<VNode> {
        match &*v.0 {
            // The document node's single child is the source's root
            // element; obtaining that handle is the free `get_root`.
            VData::SrcDoc { src } => Some(self.src_root(*src)),
            VData::Src { src, h } => {
                let (src, h) = (*src, h.clone());
                self.src_down(src, &h)
            }
            VData::Const { doc, node } => {
                let child = doc.down(*node)?;
                Some(VNode::new(VData::Const { doc: doc.clone(), node: child }))
            }
            VData::Solo { inner } => self.val_down(&inner.clone()),
            VData::WrapList { op, b } => {
                // list[v]: the single member is the wrapped value, torn
                // from its original sibling context.
                let (op, b) = (*op, b.clone());
                let OpState::Wrap { var, .. } = self.op(op) else { unreachable!("wrap op") };
                let var = var.clone();
                let value = self.attr(op, &b, &var);
                Some(VNode::new(VData::Solo { inner: value }))
            }
            VData::ConcatList { op, b } => {
                let (op, b) = (*op, b.clone());
                self.concat_first(op, &b, 0)
            }
            VData::ConcatMember { inner, .. } => self.val_down(&inner.clone()),
            VData::GroupList { op, gb, item } => {
                let (op, gb, item) = (*op, gb.clone(), *item);
                self.group_first_member(op, &gb, item)
            }
            VData::GroupMember { inner, .. } => self.val_down(&inner.clone()),
            VData::Created { op, b } => {
                // Children of the created element are the subtrees of
                // bin.ch (Fig. 9, 6th mapping).
                let (op, b) = (*op, b.clone());
                let OpState::Create { ch, .. } = self.op(op) else {
                    unreachable!("createElement op")
                };
                let ch = ch.clone();
                let ch_val = self.attr(op, &b, &ch);
                self.val_down(&ch_val)
            }
            VData::ClientRoot => {
                let root = self.resolve_client_root();
                self.val_down(&root)
            }
        }
    }

    /// `r(p)` on a value node.
    pub(crate) fn val_right(&mut self, v: &VNode) -> Option<VNode> {
        match &*v.0 {
            // A document node has no siblings.
            VData::SrcDoc { .. } => None,
            VData::Src { src, h } => {
                let (src, h) = (*src, h.clone());
                self.src_right(src, &h)
            }
            VData::Const { doc, node } => {
                let sib = doc.right(*node)?;
                Some(VNode::new(VData::Const { doc: doc.clone(), node: sib }))
            }
            // Torn-out values have no siblings.
            VData::Solo { .. } => None,
            // Attribute values themselves have no siblings at the client
            // level; they are reached only through attribute jumps.
            VData::WrapList { .. }
            | VData::ConcatList { .. }
            | VData::GroupList { .. }
            | VData::Created { .. }
            | VData::ClientRoot => None,
            VData::ConcatMember { op, b, side, from_list, inner } => {
                let (op, b, side, from_list, inner) =
                    (*op, b.clone(), *side, *from_list, inner.clone());
                if from_list {
                    if let Some(next) = self.val_right(&inner) {
                        return Some(VNode::new(VData::ConcatMember {
                            op,
                            b,
                            side,
                            from_list: true,
                            inner: next,
                        }));
                    }
                }
                if side == 0 {
                    self.concat_first(op, &b, 1)
                } else {
                    None
                }
            }
            VData::GroupMember { op, gb, item, ib, ib_idx, .. } => {
                // Fig. 10, 8th mapping: ⟨LS, next(p_b, p_g), p_g⟩.
                let (op, gb, item, ib, ib_idx) =
                    (*op, gb.clone(), *item, ib.clone(), *ib_idx);
                let BData::Group { first, first_idx } = &*gb.0 else {
                    unreachable!("group handle")
                };
                let (first, first_idx) = (first.clone()?, *first_idx);
                match (ib_idx, first_idx) {
                    (Some(i), Some(fi)) => {
                        // Cached: the group id sits in the shared scan.
                        let g = self.group_cache(op).scanned[fi].0;
                        let (ni, nh) = self.next_group_member_cached(op, g, i)?;
                        let value = self.group_item_value(op, &nh, item);
                        Some(VNode::new(VData::GroupMember {
                            op,
                            gb,
                            item,
                            ib: nh,
                            ib_idx: Some(ni),
                            inner: value,
                        }))
                    }
                    _ => {
                        let key = self.group_key_of(op, &first);
                        let next_ib = self.next_group_member(op, &key, &ib)?;
                        let value = self.group_item_value(op, &next_ib, item);
                        Some(VNode::new(VData::GroupMember {
                            op,
                            gb,
                            item,
                            ib: next_ib,
                            ib_idx: None,
                            inner: value,
                        }))
                    }
                }
            }
        }
    }

    /// `f(p)` on a value node.
    pub(crate) fn val_fetch(&mut self, v: &VNode) -> Label {
        match &*v.0 {
            VData::SrcDoc { .. } => Label::new(DOC_LABEL),
            VData::Src { src, h } => {
                let (src, h) = (*src, h.clone());
                self.src_fetch(src, &h)
            }
            VData::Const { doc, node } => doc.fetch(*node).clone(),
            VData::Solo { inner } => self.val_fetch(&inner.clone()),
            // The special `list` label (§3).
            VData::WrapList { .. } | VData::ConcatList { .. } | VData::GroupList { .. } => {
                Label::list()
            }
            VData::ConcatMember { inner, .. } | VData::GroupMember { inner, .. } => {
                self.val_fetch(&inner.clone())
            }
            VData::Created { op, b } => {
                // Fig. 9, 7th mapping: the label is produced locally.
                let (op, b) = (*op, b.clone());
                let OpState::Create { label, .. } = self.op(op) else {
                    unreachable!("createElement op")
                };
                match label.clone() {
                    // Query vocabulary: interned so every element this
                    // operator creates shares one allocation and labels
                    // compare by symbol downstream.
                    LabelSpec::Const(s) => Label::intern(s),
                    LabelSpec::Var(var) => {
                        let val = self.attr(op, &b, &var);
                        let t = self.materialize_value(&val);
                        if t.is_leaf() {
                            t.label().clone()
                        } else {
                            Label::new(t.text())
                        }
                    }
                }
            }
            VData::ClientRoot => {
                let root = self.resolve_client_root();
                self.val_fetch(&root)
            }
        }
    }

    /// `select_φ(p)`: native on source nodes (one source command), derived
    /// from `r`/`f` everywhere else.
    pub(crate) fn val_select(&mut self, v: &VNode, pred: &LabelPred) -> Option<VNode> {
        if let VData::Src { src, h } = &*v.0 {
            let (src, h) = (*src, h.clone());
            return self.src_select(src, &h, pred);
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
    fn concat_first(&mut self, op: PlanId, b: &BHandle, side: u8) -> Option<VNode> {
        let OpState::Concat { x, y, .. } = self.op(op) else { unreachable!("concat op") };
        let var = if side == 0 { x.clone() } else { y.clone() };
        let value = self.attr(op, b, &var);
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
            None if side == 0 => self.concat_first(op, b, 1),
            None => None,
        }
    }

    /// The value of groupBy item `item` under input binding `ib`.
    pub(crate) fn group_item_value(&mut self, op: PlanId, ib: &BHandle, item: usize) -> VNode {
        let OpState::GroupBy { input, items, .. } = self.op(op) else {
            unreachable!("groupBy op")
        };
        let (input, value_var) = (*input, items[item].value.clone());
        self.attr(input, ib, &value_var)
    }

    /// First member of a group's item list.
    fn group_first_member(&mut self, op: PlanId, gb: &BHandle, item: usize) -> Option<VNode> {
        let BData::Group { first, first_idx } = &*gb.0 else {
            unreachable!("group handle")
        };
        let (first_ib, first_idx) = (first.clone()?, *first_idx);
        let value = self.group_item_value(op, &first_ib, item);
        Some(VNode::new(VData::GroupMember {
            op,
            gb: gb.clone(),
            item,
            ib: first_ib,
            ib_idx: first_idx,
            inner: value,
        }))
    }

    /// Resolve (and cache) the client root below `tupleDestroy`.
    pub(crate) fn resolve_client_root(&mut self) -> VNode {
        let root_op = self.root_op;
        let OpState::TupleDestroy { input, var, root } = self.op(root_op) else {
            unreachable!("plan root is tupleDestroy")
        };
        if let Some(r) = root {
            return r.clone();
        }
        let (input, var) = (*input, var.clone());
        let first = self
            .first_binding(input)
            .expect("the query produced no answer document (empty binding list)");
        let value = self.attr(input, &first, &var);
        let resolved = VNode::new(VData::Solo { inner: value });
        let OpState::TupleDestroy { root, .. } = self.op_mut(root_op) else { unreachable!() };
        *root = Some(resolved.clone());
        resolved
    }
}
