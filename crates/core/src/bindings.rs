//! The inter-operator interface: enumerating bindings and jumping to
//! attribute values.
//!
//! Between lazy mediators, navigation happens at the *binding* level
//! (`first_binding` / `next_binding`) plus direct attribute jumps (`attr`)
//! — the `b.H`, `b.LSs` commands of the paper's Appendix A, which avoid
//! walking the `bs`/`b` spine of the binding-list tree. Only above the
//! root `tupleDestroy` does the engine expose plain DOM-VXD.
//!
//! Every function here is *persistent* over handles: computing the next
//! binding never invalidates earlier ones.

use crate::handle::{BData, BHandle, VData, VNode};
use crate::matchcur::{Frame, MatchCursor};
use crate::ops::{GroupCache, OpState};
use crate::Engine;
use mix_algebra::pred::value_ord;
use mix_algebra::{BindPred, PlanId};
use mix_buffer::TraceKind;
use mix_xmas::Var;
use mix_xml::Tree;
use std::collections::HashMap;
use std::sync::Arc;

/// Separator for composite group/difference keys; labels are
/// length-prefixed in canonical form, so no ambiguity arises.
const KEY_SEP: char = '\u{1f}';

/// Equality key matching `value_cmp`'s `=` semantics: numeric when the
/// content parses as an integer, textual otherwise (structural equality
/// implies text equality, so this never splits equal values).
fn eq_key(t: &Tree) -> String {
    let text = t.text();
    match text.trim().parse::<i64>() {
        Ok(n) => format!("#i{n}"),
        Err(_) => format!("#s{text}"),
    }
}

impl Engine {
    /// First binding of an operator's output list.
    pub(crate) fn first_binding(&mut self, op: PlanId) -> Option<BHandle> {
        // Metrics: count the call and keep `op` on the attribution stack
        // while it (and everything it pulls from below) executes.
        let metered = self.metrics_on();
        if metered {
            self.enter_op(op);
        }
        let out = if self.trace.is_enabled() {
            let name = self.op(op).kind_name();
            self.trace.emit(None, TraceKind::OperatorIn { op: name, call: "first_binding" });
            let out = self.first_binding_inner(op);
            self.trace.emit(None, TraceKind::OperatorOut { op: name, produced: out.is_some() });
            out
        } else {
            self.first_binding_inner(op)
        };
        if metered {
            self.exit_op(op, out.is_some());
        }
        out
    }

    fn first_binding_inner(&mut self, op: PlanId) -> Option<BHandle> {
        match self.op(op) {
            OpState::Source { .. } => Some(BHandle::new(BData::Source)),
            OpState::GetDesc { input, .. } => {
                let input = *input;
                let mut ib = self.first_binding(input);
                while let Some(b) = ib {
                    if let Some(cursor) = self.gd_start(op, &b) {
                        return Some(BHandle::new(BData::GetDesc { input: b, cursor }));
                    }
                    ib = self.next_binding(input, &b);
                }
                None
            }
            OpState::Select { input, pred } => {
                let (input, pred) = (*input, pred.clone());
                let start = self.first_binding(input);
                self.select_scan(op, input, &pred, start)
            }
            OpState::Join { left, .. } => {
                let left = *left;
                let mut lb = self.first_binding(left);
                while let Some(l) = lb {
                    if let Some(pair) = self.join_scan(op, &l, 0, None) {
                        return Some(pair);
                    }
                    lb = self.next_binding(left, &l);
                }
                None
            }
            OpState::Cross { left, right, .. } => {
                let (left, right) = (*left, *right);
                let l = self.first_binding(left)?;
                let r = self.first_binding(right)?;
                Some(BHandle::new(BData::Pair { left: l, right: r, ridx: 0 }))
            }
            OpState::Union { left, right } => {
                let (left, right) = (*left, *right);
                if let Some(l) = self.first_binding(left) {
                    return Some(BHandle::new(BData::Tagged { side: 0, inner: l }));
                }
                self.first_binding(right)
                    .map(|r| BHandle::new(BData::Tagged { side: 1, inner: r }))
            }
            OpState::Difference { left, .. } => {
                let left = *left;
                let start = self.first_binding(left);
                self.difference_scan(op, left, start)
            }
            OpState::Project { input, .. }
            | OpState::Concat { input, .. }
            | OpState::Create { input, .. }
            | OpState::Constant { input, .. }
            | OpState::Wrap { input, .. } => {
                let input = *input;
                let inner = self.first_binding(input)?;
                Some(BHandle::new(BData::Through { inner }))
            }
            OpState::GroupBy { input, group, .. } => {
                let (input, empty_group) = (*input, group.is_empty());
                let first = if self.config.group_cache {
                    self.group_first(op, 0).map(|idx| self.group_handle(op, idx))
                } else {
                    // Uncached: the first input binding always opens the
                    // first group.
                    self.first_binding(input)
                        .map(|h| BHandle::new(BData::Group { first: Some(h), first_idx: None }))
                };
                if first.is_none() && empty_group {
                    // `groupBy {}` always produces exactly one output
                    // binding (possibly with empty lists) — this keeps the
                    // root element of a query alive on empty inputs.
                    return Some(BHandle::new(BData::Group { first: None, first_idx: None }));
                }
                first
            }
            OpState::OrderBy { .. } => {
                self.ensure_sorted(op);
                let OpState::OrderBy { sorted, .. } = self.op(op) else { unreachable!() };
                if sorted.as_ref().is_some_and(|s| !s.is_empty()) {
                    Some(BHandle::new(BData::Ordered { index: 0 }))
                } else {
                    None
                }
            }
            OpState::Materialize { .. } => {
                self.ensure_materialized(op);
                let OpState::Materialize { rows, .. } = self.op(op) else { unreachable!() };
                if rows.as_ref().is_some_and(|r| !r.is_empty()) {
                    Some(BHandle::new(BData::Ordered { index: 0 }))
                } else {
                    None
                }
            }
            OpState::TupleDestroy { .. } => {
                unreachable!("tupleDestroy exports a document, not bindings")
            }
        }
    }

    /// Binding after `b` in an operator's output list.
    pub(crate) fn next_binding(&mut self, op: PlanId, b: &BHandle) -> Option<BHandle> {
        let metered = self.metrics_on();
        if metered {
            self.enter_op(op);
        }
        let out = if self.trace.is_enabled() {
            let name = self.op(op).kind_name();
            self.trace.emit(None, TraceKind::OperatorIn { op: name, call: "next_binding" });
            let out = self.next_binding_inner(op, b);
            self.trace.emit(None, TraceKind::OperatorOut { op: name, produced: out.is_some() });
            out
        } else {
            self.next_binding_inner(op, b)
        };
        if metered {
            self.exit_op(op, out.is_some());
        }
        out
    }

    fn next_binding_inner(&mut self, op: PlanId, b: &BHandle) -> Option<BHandle> {
        match self.op(op) {
            OpState::Source { .. } => None,
            OpState::GetDesc { input, .. } => {
                let input = *input;
                let BData::GetDesc { input: ib, cursor } = &*b.0 else {
                    unreachable!("getDescendants handle")
                };
                let (ib, cursor) = (ib.clone(), cursor.clone());
                // Next match within the same input binding…
                if let Some(next) = self.gd_advance(op, &ib, &cursor) {
                    return Some(BHandle::new(BData::GetDesc { input: ib, cursor: next }));
                }
                // …or the first match of a later input binding.
                let mut next_ib = self.next_binding(input, &ib);
                while let Some(nb) = next_ib {
                    if let Some(cursor) = self.gd_start(op, &nb) {
                        return Some(BHandle::new(BData::GetDesc { input: nb, cursor }));
                    }
                    next_ib = self.next_binding(input, &nb);
                }
                None
            }
            OpState::Select { input, pred } => {
                let (input, pred) = (*input, pred.clone());
                let BData::Filtered { input: inner } = &*b.0 else {
                    unreachable!("select handle")
                };
                let start = self.next_binding(input, &inner.clone());
                self.select_scan(op, input, &pred, start)
            }
            OpState::Join { left, .. } => {
                let left = *left;
                let BData::Pair { left: l, right: r, ridx } = &*b.0 else {
                    unreachable!("join handle")
                };
                let (l, r, ridx) = (l.clone(), r.clone(), *ridx);
                // Resume the inner scan past the current inner binding…
                let resume = if self.config.join_cache { None } else { Some(r) };
                if let Some(pair) = self.join_scan(op, &l, ridx + 1, resume) {
                    return Some(pair);
                }
                // …then restart it for later outer bindings.
                let mut lb = self.next_binding(left, &l);
                while let Some(nl) = lb {
                    if let Some(pair) = self.join_scan(op, &nl, 0, None) {
                        return Some(pair);
                    }
                    lb = self.next_binding(left, &nl);
                }
                None
            }
            OpState::Cross { left, right, .. } => {
                let (left, right) = (*left, *right);
                let BData::Pair { left: l, right: r, .. } = &*b.0 else {
                    unreachable!("cross handle")
                };
                let (l, r) = (l.clone(), r.clone());
                if let Some(nr) = self.next_binding(right, &r) {
                    return Some(BHandle::new(BData::Pair { left: l, right: nr, ridx: 0 }));
                }
                let nl = self.next_binding(left, &l)?;
                let r0 = self.first_binding(right)?;
                Some(BHandle::new(BData::Pair { left: nl, right: r0, ridx: 0 }))
            }
            OpState::Union { left, right } => {
                let (left, right) = (*left, *right);
                let BData::Tagged { side, inner } = &*b.0 else {
                    unreachable!("union handle")
                };
                let (side, inner) = (*side, inner.clone());
                if side == 0 {
                    if let Some(n) = self.next_binding(left, &inner) {
                        return Some(BHandle::new(BData::Tagged { side: 0, inner: n }));
                    }
                    return self
                        .first_binding(right)
                        .map(|r| BHandle::new(BData::Tagged { side: 1, inner: r }));
                }
                self.next_binding(right, &inner)
                    .map(|n| BHandle::new(BData::Tagged { side: 1, inner: n }))
            }
            OpState::Difference { left, .. } => {
                let left = *left;
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("difference handle")
                };
                let start = self.next_binding(left, &inner.clone());
                self.difference_scan(op, left, start)
            }
            OpState::Project { input, .. }
            | OpState::Concat { input, .. }
            | OpState::Create { input, .. }
            | OpState::Constant { input, .. }
            | OpState::Wrap { input, .. } => {
                let input = *input;
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("pass-through handle")
                };
                let n = self.next_binding(input, &inner.clone())?;
                Some(BHandle::new(BData::Through { inner: n }))
            }
            OpState::GroupBy { group, .. } => {
                if group.is_empty() {
                    return None; // the single all-in-one group
                }
                let BData::Group { first: Some(first), first_idx } = &*b.0 else {
                    unreachable!("groupBy handle")
                };
                let (first, first_idx) = (first.clone(), *first_idx);
                match (self.config.group_cache, first_idx) {
                    (true, Some(idx)) => {
                        let g = self.group_cache(op).scanned[idx].0;
                        self.group_first(op, g + 1).map(|nidx| self.group_handle(op, nidx))
                    }
                    _ => self
                        .next_group_uncached(op, &first)
                        .map(|h| BHandle::new(BData::Group { first: Some(h), first_idx: None })),
                }
            }
            OpState::OrderBy { sorted, .. } => {
                let BData::Ordered { index } = &*b.0 else { unreachable!("orderBy handle") };
                let len = sorted.as_ref().map(|s| s.len()).unwrap_or(0);
                if index + 1 < len {
                    Some(BHandle::new(BData::Ordered { index: index + 1 }))
                } else {
                    None
                }
            }
            OpState::Materialize { rows, .. } => {
                let BData::Ordered { index } = &*b.0 else {
                    unreachable!("materialize handle")
                };
                let len = rows.as_ref().map(|r| r.len()).unwrap_or(0);
                if index + 1 < len {
                    Some(BHandle::new(BData::Ordered { index: index + 1 }))
                } else {
                    None
                }
            }
            OpState::TupleDestroy { .. } => {
                unreachable!("tupleDestroy exports a document, not bindings")
            }
        }
    }

    /// Jump to the value of variable `var` in binding `b` of operator
    /// `op` (Appendix A's `b.H` command).
    pub(crate) fn attr(&mut self, op: PlanId, b: &BHandle, var: &Var) -> VNode {
        // Attribute jumps keep `op` on the attribution stack (they can
        // trigger source navigation) but are not enumeration calls, so
        // they don't count toward calls/produced.
        let metered = self.metrics_on();
        if metered {
            self.op_stack.push(op.index() as u32);
        }
        if self.trace.is_enabled() {
            self.trace.emit(
                None,
                TraceKind::AttrJump { op: self.op(op).kind_name(), var: var.to_string() },
            );
        }
        let out = self.attr_inner(op, b, var);
        if metered {
            self.op_stack.pop();
        }
        out
    }

    fn attr_inner(&mut self, op: PlanId, b: &BHandle, var: &Var) -> VNode {
        match self.op(op) {
            OpState::Source { src, out } => {
                debug_assert_eq!(var, out, "source binds exactly one variable");
                VNode::new(VData::SrcDoc { src: *src })
            }
            OpState::GetDesc { input, out, .. } => {
                let (input, out) = (*input, out.clone());
                let BData::GetDesc { input: ib, cursor } = &*b.0 else {
                    unreachable!("getDescendants handle")
                };
                if *var == out {
                    let (ib, cursor) = (ib.clone(), cursor.clone());
                    let root = self.gd_parent_value(op, &ib);
                    cursor.current(&root)
                } else {
                    let ib = ib.clone();
                    self.attr(input, &ib, var)
                }
            }
            OpState::Select { input, .. } => {
                let input = *input;
                let BData::Filtered { input: inner } = &*b.0 else {
                    unreachable!("select handle")
                };
                let inner = inner.clone();
                self.attr(input, &inner, var)
            }
            OpState::Join { left, right, left_schema, .. }
            | OpState::Cross { left, right, left_schema } => {
                let (left, right, ls) = (*left, *right, left_schema.clone());
                let BData::Pair { left: l, right: r, .. } = &*b.0 else {
                    unreachable!("join/cross handle")
                };
                let (l, r) = (l.clone(), r.clone());
                if ls.contains(var) {
                    self.attr(left, &l, var)
                } else {
                    self.attr(right, &r, var)
                }
            }
            OpState::Union { left, right } => {
                let (left, right) = (*left, *right);
                let BData::Tagged { side, inner } = &*b.0 else {
                    unreachable!("union handle")
                };
                let (side, inner) = (*side, inner.clone());
                self.attr(if side == 0 { left } else { right }, &inner, var)
            }
            OpState::Difference { left, .. } => {
                let left = *left;
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("difference handle")
                };
                let inner = inner.clone();
                self.attr(left, &inner, var)
            }
            OpState::Project { input, keep } => {
                assert!(keep.contains(var), "projected-away variable {var}");
                let input = *input;
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("project handle")
                };
                let inner = inner.clone();
                self.attr(input, &inner, var)
            }
            OpState::GroupBy { input, items, .. } => {
                let input = *input;
                if let Some(pos) = items.iter().position(|it| it.out == *var) {
                    return VNode::new(VData::GroupList { op, gb: b.clone(), item: pos });
                }
                let BData::Group { first, .. } = &*b.0 else {
                    unreachable!("groupBy handle")
                };
                let first = first
                    .clone()
                    .expect("group variables exist only when groups are non-synthetic");
                self.attr(input, &first, var)
            }
            OpState::Concat { input, out, .. } => {
                let input = *input;
                if var == out {
                    return VNode::new(VData::ConcatList { op, b: b.clone() });
                }
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("concatenate handle")
                };
                let inner = inner.clone();
                self.attr(input, &inner, var)
            }
            OpState::Create { input, out, .. } => {
                let input = *input;
                if var == out {
                    return VNode::new(VData::Created { op, b: b.clone() });
                }
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("createElement handle")
                };
                let inner = inner.clone();
                self.attr(input, &inner, var)
            }
            OpState::Constant { input, doc, out } => {
                let input = *input;
                if var == out {
                    let doc = doc.clone();
                    let root = doc.root();
                    return VNode::new(VData::Const { doc, node: root });
                }
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("constant handle")
                };
                let inner = inner.clone();
                self.attr(input, &inner, var)
            }
            OpState::Wrap { input, var: wrapped, out } => {
                let (input, wrapped) = (*input, wrapped.clone());
                if var == out {
                    // `wrap` yields the value itself when it is already a
                    // list, else the synthesized singleton list.
                    let BData::Through { inner } = &*b.0 else {
                        unreachable!("wrap handle")
                    };
                    let inner = inner.clone();
                    let value = self.attr(input, &inner, &wrapped);
                    if self.val_fetch(&value) == mix_xml::Label::list() {
                        return value;
                    }
                    return VNode::new(VData::WrapList { op, b: b.clone() });
                }
                let BData::Through { inner } = &*b.0 else { unreachable!("wrap handle") };
                let inner = inner.clone();
                self.attr(input, &inner, var)
            }
            OpState::OrderBy { input, sorted, .. } => {
                let input = *input;
                let BData::Ordered { index } = &*b.0 else { unreachable!("orderBy handle") };
                let inner = sorted
                    .as_ref()
                    .expect("orderBy materialized before binding handles exist")[*index]
                    .clone();
                self.attr(input, &inner, var)
            }
            OpState::Materialize { rows, .. } => {
                let BData::Ordered { index } = &*b.0 else {
                    unreachable!("materialize handle")
                };
                let row = &rows.as_ref().expect("materialized before handles exist")[*index];
                let doc = row
                    .iter()
                    .find(|(v, _)| v == var)
                    .map(|(_, d)| d.clone())
                    .expect("validated plans bind every used variable");
                let root = doc.root();
                VNode::new(VData::Const { doc, node: root })
            }
            OpState::TupleDestroy { .. } => {
                unreachable!("tupleDestroy exports a document, not bindings")
            }
        }
    }

    /// Pull the complete input of an intermediate eager step into memory
    /// (one arena document per value), so everything above navigates
    /// without further source access.
    fn ensure_materialized(&mut self, op: PlanId) {
        let OpState::Materialize { input, schema, rows } = self.op(op) else {
            unreachable!("materialize op")
        };
        if rows.is_some() {
            return;
        }
        let (input, schema) = (*input, schema.clone());
        let mut out: Vec<crate::ops::MatRow> = Vec::new();
        let mut cur = self.first_binding(input);
        while let Some(ib) = cur {
            let mut row = Vec::with_capacity(schema.len());
            for v in &schema {
                let node = self.attr(input, &ib, v);
                let t = self.materialize_value(&node);
                row.push((v.clone(), Arc::new(mix_xml::Document::from_tree(&t))));
            }
            out.push(row);
            cur = self.next_binding(input, &ib);
        }
        let OpState::Materialize { rows, .. } = self.op_mut(op) else { unreachable!() };
        *rows = Some(Arc::new(out));
    }

    // ---- select ---------------------------------------------------------

    /// Scan input bindings from `start` until the predicate holds.
    fn select_scan(
        &mut self,
        op: PlanId,
        input: PlanId,
        pred: &BindPred,
        start: Option<BHandle>,
    ) -> Option<BHandle> {
        let mut cur = start;
        while let Some(ib) = cur {
            let cand = BHandle::new(BData::Filtered { input: ib.clone() });
            if self.eval_pred(op, &cand, pred) {
                return Some(cand);
            }
            cur = self.next_binding(input, &ib);
        }
        None
    }

    /// Evaluate a predicate by materializing the values of its variables
    /// through attribute jumps on the candidate binding.
    pub(crate) fn eval_pred(&mut self, op: PlanId, cand: &BHandle, pred: &BindPred) -> bool {
        let mut vals: HashMap<Var, Tree> = HashMap::new();
        for v in pred.vars() {
            let node = self.attr(op, cand, &v);
            let t = self.materialize_value(&node);
            vals.insert(v, t);
        }
        pred.eval(&|v: &Var| vals.get(v))
    }

    // ---- join -----------------------------------------------------------

    /// Find the next inner binding (at cache index ≥ `from_idx`, or — in
    /// uncached mode — after handle `resume`) that joins with outer
    /// binding `l`.
    fn join_scan(
        &mut self,
        op: PlanId,
        l: &BHandle,
        from_idx: usize,
        resume: Option<BHandle>,
    ) -> Option<BHandle> {
        let OpState::Join { right, pred, left_schema, .. } = self.op(op) else {
            unreachable!("join op")
        };
        let (right, pred, left_schema) = (*right, pred.clone(), left_schema.clone());

        // Materialize the outer side's predicate values once per outer
        // binding.
        let mut left_vals: HashMap<Var, Tree> = HashMap::new();
        for v in pred.vars() {
            if left_schema.contains(&v) {
                let node = self.attr_on_left_of_pair(op, l, &v);
                let t = self.materialize_value(&node);
                left_vals.insert(v, t);
            }
        }

        if self.config.join_cache {
            let outer_key = {
                let OpState::Join { eq_keys, .. } = self.op(op) else { unreachable!() };
                eq_keys.as_ref().map(|(lk, _)| {
                    eq_key(left_vals.get(lk).expect("outer key materialized above"))
                })
            };
            let mut from = from_idx;
            loop {
                let OpState::Join { cache, .. } = self.op(op) else { unreachable!() };
                let hit = match &outer_key {
                    // Entries are appended in order, so each hit list is
                    // ascending: its first index ≥ `from` is the answer.
                    Some(key) => cache
                        .index
                        .get(key)
                        .and_then(|hits| hits.get(hits.partition_point(|&i| i < from)).copied()),
                    None => (from..cache.handles.len()).find(|&i| {
                        let rv = &cache.pred_vals[i];
                        pred.eval(&|v: &Var| left_vals.get(v).or_else(|| rv.get(v)))
                    }),
                };
                if let Some(idx) = hit {
                    return Some(BHandle::new(BData::Pair {
                        left: l.clone(),
                        right: cache.handles[idx].clone(),
                        ridx: idx,
                    }));
                }
                // Nothing cached joins: pull one more inner binding and
                // probe again from there.
                from = cache.handles.len();
                if !self.join_cache_extend(op) {
                    return None;
                }
            }
        } else {
            let mut cur = match resume {
                Some(r) => self.next_binding(right, &r),
                None => self.first_binding(right),
            };
            while let Some(r) = cur {
                let mut right_vals: HashMap<Var, Tree> = HashMap::new();
                for v in pred.vars() {
                    if !left_schema.contains(&v) {
                        let node = self.attr(right, &r, &v);
                        let t = self.materialize_value(&node);
                        right_vals.insert(v, t);
                    }
                }
                let ok = pred.eval(&|v: &Var| left_vals.get(v).or_else(|| right_vals.get(v)));
                if ok {
                    return Some(BHandle::new(BData::Pair {
                        left: l.clone(),
                        right: r,
                        ridx: 0,
                    }));
                }
                cur = self.next_binding(right, &r);
            }
            None
        }
    }

    /// Attribute jump into the outer (left) half of a join before the pair
    /// handle exists.
    fn attr_on_left_of_pair(&mut self, op: PlanId, l: &BHandle, var: &Var) -> VNode {
        let OpState::Join { left, .. } = self.op(op) else { unreachable!("join op") };
        let left = *left;
        self.attr(left, l, var)
    }

    /// Pull one more inner binding into the join's cache, together with
    /// its key (keyed joins) or its predicate values (scanned joins).
    /// `false` once the inner input is exhausted.
    fn join_cache_extend(&mut self, op: PlanId) -> bool {
        let OpState::Join { cache, right, right_pred_vars, eq_keys, .. } = self.op(op) else {
            unreachable!("join op")
        };
        if cache.complete {
            return false;
        }
        let (right, pred_vars) = (*right, right_pred_vars.clone());
        let inner_key = eq_keys.as_ref().map(|(_, rk)| rk.clone());
        let next = match cache.handles.last().cloned() {
            Some(h) => self.next_binding(right, &h),
            None => self.first_binding(right),
        };
        let Some(h) = next else {
            let OpState::Join { cache, .. } = self.op_mut(op) else { unreachable!() };
            cache.complete = true;
            return false;
        };
        let mut vals = HashMap::new();
        for v in pred_vars {
            let node = self.attr(right, &h, &v);
            let t = self.materialize_value(&node);
            vals.insert(v, t);
        }
        let OpState::Join { cache, .. } = self.op_mut(op) else { unreachable!() };
        match inner_key {
            Some(rk) => {
                let key = eq_key(&vals[&rk]);
                cache.index.entry(key).or_default().push(cache.handles.len());
            }
            None => cache.pred_vals.push(vals),
        }
        cache.handles.push(h);
        true
    }

    // ---- difference -------------------------------------------------------

    /// Composite key of a binding over the given variables.
    fn binding_key(&mut self, op: PlanId, b: &BHandle, vars: &[Var]) -> String {
        let mut key = String::new();
        for v in vars {
            let node = self.attr(op, b, v);
            let t = self.materialize_value(&node);
            t.canonical_into(&mut key);
            key.push(KEY_SEP);
        }
        key
    }

    fn difference_scan(
        &mut self,
        op: PlanId,
        left: PlanId,
        start: Option<BHandle>,
    ) -> Option<BHandle> {
        // Materialize the right side's keys once (the operator is
        // unbrowsable: Def. 2).
        let keys = {
            let OpState::Difference { right_keys, .. } = self.op(op) else {
                unreachable!("difference op")
            };
            match right_keys {
                Some(k) => k.clone(),
                None => {
                    let OpState::Difference { right, schema, .. } = self.op(op) else {
                        unreachable!()
                    };
                    let (right, schema) = (*right, schema.clone());
                    let mut set = std::collections::HashSet::new();
                    let mut cur = self.first_binding(right);
                    while let Some(rb) = cur {
                        let k = self.binding_key(right, &rb, &schema);
                        set.insert(k);
                        cur = self.next_binding(right, &rb);
                    }
                    let set = Arc::new(set);
                    let OpState::Difference { right_keys, .. } = self.op_mut(op) else {
                        unreachable!()
                    };
                    *right_keys = Some(set.clone());
                    set
                }
            }
        };
        let OpState::Difference { schema, .. } = self.op(op) else { unreachable!() };
        let schema = schema.clone();
        let mut cur = start;
        while let Some(lb) = cur {
            let k = self.binding_key(left, &lb, &schema);
            if !keys.contains(&k) {
                return Some(BHandle::new(BData::Through { inner: lb }));
            }
            cur = self.next_binding(left, &lb);
        }
        None
    }

    // ---- groupBy ----------------------------------------------------------

    /// Key of the group an input binding belongs to.
    pub(crate) fn group_key_of(&mut self, op: PlanId, ib: &BHandle) -> String {
        let OpState::GroupBy { input, group, .. } = self.op(op) else {
            unreachable!("groupBy op")
        };
        let (input, group) = (*input, group.clone());
        self.binding_key(input, ib, &group)
    }

    /// The groupBy's shared-scan cache.
    pub(crate) fn group_cache(&self, op: PlanId) -> &GroupCache {
        let OpState::GroupBy { cache, .. } = self.op(op) else { unreachable!("groupBy op") };
        cache
    }

    fn group_cache_mut(&mut self, op: PlanId) -> &mut GroupCache {
        let OpState::GroupBy { cache, .. } = self.op_mut(op) else { unreachable!("groupBy op") };
        cache
    }

    /// Extend the groupBy's shared input scan by exactly one binding —
    /// never ahead of demand — computing its key once and filing it under
    /// its group. `false` once the input is exhausted. Cached mode only.
    fn group_scan_one(&mut self, op: PlanId) -> bool {
        let OpState::GroupBy { input, cache, .. } = self.op(op) else {
            unreachable!("groupBy op")
        };
        if cache.exhausted {
            return false;
        }
        let (input, last) = (*input, cache.scanned.last().map(|(_, h)| h.clone()));
        let next = match last {
            None => self.first_binding(input),
            Some(h) => self.next_binding(input, &h),
        };
        let Some(ib) = next else {
            self.group_cache_mut(op).exhausted = true;
            return false;
        };
        let key = self.group_key_of(op, &ib);
        let cache = self.group_cache_mut(op);
        let fresh = cache.members.len();
        let g = *cache.ids.entry(key).or_insert(fresh);
        if g == fresh {
            cache.members.push(Vec::new());
        }
        cache.members[g].push(cache.scanned.len());
        cache.scanned.push((g, ib));
        true
    }

    /// Scan index of group `g`'s first binding, scanning on until `g` is
    /// discovered. Cached mode only.
    fn group_first(&mut self, op: PlanId, g: usize) -> Option<usize> {
        loop {
            if let Some(m) = self.group_cache(op).members.get(g) {
                return Some(m[0]);
            }
            if !self.group_scan_one(op) {
                return None;
            }
        }
    }

    /// The group whose first binding sits at scan index `idx`.
    fn group_handle(&self, op: PlanId, idx: usize) -> BHandle {
        let first = self.group_cache(op).scanned[idx].1.clone();
        BHandle::new(BData::Group { first: Some(first), first_idx: Some(idx) })
    }

    /// Next group without persistent state: rescan the input from the
    /// start, reconstructing `G_prev` (the expensive stateless variant the
    /// paper's buffering remark avoids — ablation E8).
    fn next_group_uncached(&mut self, op: PlanId, first: &BHandle) -> Option<BHandle> {
        let OpState::GroupBy { input, .. } = self.op(op) else { unreachable!() };
        let input = *input;
        let my_key = self.group_key_of(op, first);
        let mut seen = std::collections::HashSet::new();
        let mut passed = false;
        let mut cur = self.first_binding(input);
        while let Some(ib) = cur {
            let key = self.group_key_of(op, &ib);
            if passed && !seen.contains(&key) {
                return Some(ib);
            }
            if key == my_key {
                passed = true;
            }
            seen.insert(key);
            cur = self.next_binding(input, &ib);
        }
        None
    }

    /// Next member of group `g` after scan index `ib_idx` (Fig. 10's
    /// `next(p_b, p_g)`): looked up in the group's member list, scanning
    /// on only past the end of the scan so far.
    pub(crate) fn next_group_member_cached(
        &mut self,
        op: PlanId,
        g: usize,
        ib_idx: usize,
    ) -> Option<(usize, BHandle)> {
        loop {
            let cache = self.group_cache(op);
            let m = &cache.members[g];
            if let Some(&idx) = m.get(m.partition_point(|&i| i <= ib_idx)) {
                return Some((idx, cache.scanned[idx].1.clone()));
            }
            if !self.group_scan_one(op) {
                return None;
            }
        }
    }

    /// Handle-based member scan for cache-disabled mode.
    pub(crate) fn next_group_member(
        &mut self,
        op: PlanId,
        gb_key: &str,
        ib: &BHandle,
    ) -> Option<BHandle> {
        let OpState::GroupBy { input, .. } = self.op(op) else { unreachable!() };
        let input = *input;
        let mut cur = self.next_binding(input, ib);
        while let Some(nb) = cur {
            if self.group_key_of(op, &nb) == gb_key {
                return Some(nb);
            }
            cur = self.next_binding(input, &nb);
        }
        None
    }

    // ---- orderBy ----------------------------------------------------------

    /// Materialize and sort the input — the unbrowsable step.
    fn ensure_sorted(&mut self, op: PlanId) {
        let OpState::OrderBy { input, keys, sorted } = self.op(op) else {
            unreachable!("orderBy op")
        };
        if sorted.is_some() {
            return;
        }
        let (input, keys) = (*input, keys.clone());
        let mut entries: Vec<(Vec<Tree>, BHandle)> = Vec::new();
        let mut cur = self.first_binding(input);
        while let Some(ib) = cur {
            let mut kv = Vec::with_capacity(keys.len());
            for k in &keys {
                let node = self.attr(input, &ib, k);
                kv.push(self.materialize_value(&node));
            }
            entries.push((kv, ib.clone()));
            cur = self.next_binding(input, &ib);
        }
        entries.sort_by(|a, b| {
            for (x, y) in a.0.iter().zip(&b.0) {
                let ord = value_ord(x, y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let handles: Vec<BHandle> = entries.into_iter().map(|(_, h)| h).collect();
        let OpState::OrderBy { sorted, .. } = self.op_mut(op) else { unreachable!() };
        *sorted = Some(Arc::new(handles));
    }

    // ---- getDescendants -----------------------------------------------------

    /// The parent value `bin.e` a getDescendants binding matches inside.
    pub(crate) fn gd_parent_value(&mut self, op: PlanId, ib: &BHandle) -> VNode {
        let OpState::GetDesc { input, parent, .. } = self.op(op) else {
            unreachable!("getDescendants op")
        };
        let (input, parent) = (*input, parent.clone());
        self.attr(input, ib, &parent)
    }

    /// Position a fresh cursor on the first match under input binding
    /// `ib`, or `None` when the subtree holds no match.
    fn gd_start(&mut self, op: PlanId, ib: &BHandle) -> Option<MatchCursor> {
        let OpState::GetDesc { nfa, start_set, .. } = self.op(op) else {
            unreachable!("getDescendants op")
        };
        let (nfa, start_set) = (nfa.clone(), start_set.clone());
        let root = self.gd_parent_value(op, ib);
        let cursor = MatchCursor::new(Vec::new());
        // Zero-step match: the parent itself (paths accepting ε).
        if cursor.is_match(&nfa, &start_set) {
            return Some(cursor);
        }
        self.gd_next_match(op, &root, cursor)
    }

    /// Advance to the next match after `cursor` (pre-order).
    fn gd_advance(&mut self, op: PlanId, ib: &BHandle, cursor: &MatchCursor) -> Option<MatchCursor> {
        let root = self.gd_parent_value(op, ib);
        self.gd_next_match(op, &root, cursor.clone())
    }

    /// Advance the DFS to the next accepting position strictly after the
    /// current one.
    fn gd_next_match(
        &mut self,
        op: PlanId,
        root: &VNode,
        mut cursor: MatchCursor,
    ) -> Option<MatchCursor> {
        let OpState::GetDesc { nfa, start_set, .. } = self.op(op) else {
            unreachable!("getDescendants op")
        };
        let (nfa, start_set) = (nfa.clone(), start_set.clone());
        loop {
            cursor = self.gd_step(root, &nfa, &start_set, cursor)?;
            if cursor.is_match(&nfa, &start_set) {
                return Some(cursor);
            }
        }
    }

    /// One pre-order step of the pruned DFS: descend when the automaton
    /// can still make progress, else move right, popping as needed.
    fn gd_step(
        &mut self,
        root: &VNode,
        nfa: &mix_xmas::Nfa,
        start_set: &mix_xmas::StateSet,
        cursor: MatchCursor,
    ) -> Option<MatchCursor> {
        let mut frames: Vec<Frame> = (*cursor.frames).clone();
        // Try to descend from the current position.
        let (cur_node, cur_states) = match frames.last() {
            Some(f) => (f.node.clone(), f.states.clone()),
            None => (root.clone(), start_set.clone()),
        };
        if nfa.can_continue(&cur_states) {
            if let Some(child) = self.val_down(&cur_node) {
                let label = self.val_fetch(&child);
                let states = nfa.step(&cur_states, &label);
                frames.push(Frame { node: child, states });
                return Some(MatchCursor::new(frames));
            }
        }
        // Move right, popping exhausted levels. The virtual root level
        // cannot move right (matches live strictly inside `e`).
        loop {
            let f = frames.pop()?;
            let parent_states = match frames.last() {
                Some(p) => p.states.clone(),
                None => start_set.clone(),
            };
            // With select_φ in NC and a label-only frontier, jump straight
            // to the next sibling that can advance the automaton (§2: this
            // is what turns the Example 1 filter view bounded).
            let sib = if self.config.use_select {
                match nfa.label_frontier(&parent_states) {
                    Some(labels) if !labels.is_empty() => {
                        let pred = if labels.len() == 1 {
                            mix_nav::LabelPred::equals(labels[0].as_str())
                        } else {
                            mix_nav::LabelPred::OneOf(
                                // NFA frontier labels are query constants:
                                // intern them so the per-sibling compare in
                                // `val_select` is an integer test.
                                labels.iter().map(mix_xml::Label::intern).collect(),
                            )
                        };
                        self.val_select(&f.node, &pred)
                    }
                    Some(_) => None, // dead frontier: nothing can advance
                    None => self.val_right(&f.node),
                }
            } else {
                self.val_right(&f.node)
            };
            if let Some(sib) = sib {
                let label = self.val_fetch(&sib);
                let states = nfa.step(&parent_states, &label);
                frames.push(Frame { node: sib, states });
                return Some(MatchCursor::new(frames));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::eq_key;
    use mix_algebra::pred::value_cmp;
    use mix_nav::pred::CmpOp;
    use mix_xml::Tree;
    use proptest::prelude::*;

    /// Values from a small alphabet, so equal pairs are as likely as
    /// unequal ones: integers in every spelling `=` sees through (sign,
    /// zero padding, surrounding whitespace), digit strings past `i64`
    /// (text, not numbers), plain text, and small subtrees whose content
    /// is the concatenation of their leaves.
    fn arb_value() -> impl Strategy<Value = Tree> {
        let int = (-2i64..3, 0usize..5).prop_map(|(n, spelling)| match spelling {
            0 => format!("{n}"),
            1 => format!("{n:+}"),
            2 => format!("{n:04}"),
            3 => format!(" {n}\t"),
            _ => format!("\n{n:+03} "),
        });
        let text = prop_oneof![
            Just("9223372036854775808"),
            Just("09223372036854775808"),
            Just(" 9223372036854775808"),
            Just("a"),
            Just("a "),
            Just("b"),
            Just(""),
            Just("1x"),
            Just("- 1"),
        ]
        .prop_map(str::to_string);
        let atom = prop_oneof![int, text].boxed();
        (atom.clone(), atom, 0usize..4).prop_map(|(a, b, shape)| match shape {
            0 => Tree::leaf(a),
            1 => Tree::node("zip", vec![Tree::leaf(a)]),
            2 => Tree::node("z", vec![Tree::leaf(a), Tree::leaf(b)]),
            _ => Tree::node("w", vec![Tree::node("zip", vec![Tree::leaf(a)])]),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The keyed probe is the only implementation of a single-`=`
        /// join: two values share a key exactly when `=` holds.
        #[test]
        fn eq_key_agrees_with_value_equality(a in arb_value(), b in arb_value()) {
            prop_assert_eq!(
                eq_key(&a) == eq_key(&b),
                value_cmp(&a, CmpOp::Eq, &b),
                "{a} vs {b}"
            );
        }
    }
}
