//! The inter-operator interface: enumerating bindings and jumping to
//! attribute values.
//!
//! Between lazy mediators, navigation happens at the *binding* level
//! (`first_binding` / `next_binding`) plus direct attribute jumps (`attr`)
//! — the `b.H`, `b.LSs` commands of the paper's Appendix A, which avoid
//! walking the `bs`/`b` spine of the binding-list tree. Only above the
//! root `tupleDestroy` does the engine expose plain DOM-VXD.
//!
//! Navigation runs on a [`Nav`]: the engine's operator table
//! ([`OpSpec`]s, fixed at construction) borrowed once per client command,
//! beside the engine itself, whose [`OpState`](crate::ops::OpState) slots
//! are the only state that changes. `next_binding` and `attr` each match
//! the operator's spec and the binding handle together, once, with one
//! arm for a handle issued by another operator; the helpers below them
//! take the spec they work for, never an operator id to look up again.
//!
//! Every function here is *persistent* over handles: computing the next
//! binding never invalidates earlier ones.

use crate::handle::{BData, BHandle, VData, VNode};
use crate::matchcur::{Frame, MatchCursor};
use crate::ops::{DiffSpec, GetDescSpec, GroupSpec, JoinSpec, OpSpec};
use crate::Engine;
use mix_algebra::pred::{eq_key, value_ord};
use mix_algebra::{BindPred, PlanId};
use mix_buffer::TraceKind;
use mix_xmas::Var;
use mix_xml::{Label, Tree};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Separator for composite group/difference keys; labels are
/// length-prefixed in canonical form, so no ambiguity arises.
const KEY_SEP: char = '\u{1f}';

/// The engine during one client command: its operator table, borrowed
/// apart from the engine so a spec stays in hand while the operator
/// navigates its inputs.
pub(crate) struct Nav<'a> {
    /// One spec per plan operator, indexed by [`PlanId`].
    pub ops: &'a [OpSpec],
    pub e: &'a mut Engine,
}

impl Engine {
    /// Run `f` over this engine with its operator table borrowed for the
    /// whole call — one reference-count increment per client command.
    pub(crate) fn nav<R>(&mut self, f: impl FnOnce(&mut Nav<'_>) -> R) -> R {
        let ops = Arc::clone(&self.ops);
        f(&mut Nav { ops: &ops, e: self })
    }
}

impl<'a> Nav<'a> {
    /// The spec of operator `op`, borrowed from the table rather than from
    /// `self`.
    pub(crate) fn spec(&self, op: PlanId) -> &'a OpSpec {
        let ops: &'a [OpSpec] = self.ops;
        &ops[op.index()]
    }

    /// Run one enumeration call of `op`: metrics count it and keep `op` on
    /// the attribution stack while it (and everything it pulls from below)
    /// executes; the flight recorder brackets it.
    fn enumerate(
        &mut self,
        op: PlanId,
        call: &'static str,
        f: impl FnOnce(&mut Self) -> Option<BHandle>,
    ) -> Option<BHandle> {
        let metered = self.e.metrics_on();
        if metered {
            self.e.enter_op(op);
        }
        let out = if self.e.trace.is_enabled() {
            let name = self.e.plan().node(op).op_name();
            self.e.trace.emit(None, TraceKind::OperatorIn { op: name, call });
            let out = f(self);
            self.e.trace.emit(None, TraceKind::OperatorOut { op: name, produced: out.is_some() });
            out
        } else {
            f(self)
        };
        if metered {
            self.e.exit_op(op, out.is_some());
        }
        out
    }

    /// First binding of an operator's output list.
    pub(crate) fn first_binding(&mut self, op: PlanId) -> Option<BHandle> {
        self.enumerate(op, "first_binding", |n| n.first_binding_inner(op))
    }

    fn first_binding_inner(&mut self, op: PlanId) -> Option<BHandle> {
        match self.spec(op) {
            OpSpec::Source { .. } => Some(BHandle::new(BData::Source)),
            OpSpec::GetDesc(gd) => {
                let start = self.first_binding(gd.input);
                self.gd_scan(gd, start)
            }
            OpSpec::Select { input, pred } => {
                let start = self.first_binding(*input);
                self.select_scan(op, *input, pred, start)
            }
            OpSpec::Join(j) => {
                let start = self.first_binding(j.left);
                self.join_outer_scan(j, start)
            }
            OpSpec::Cross { left, right, .. } => {
                let l = self.first_binding(*left)?;
                let r = self.first_binding(*right)?;
                Some(BHandle::new(BData::Pair { left: l, right: r, ridx: 0 }))
            }
            OpSpec::Union { left, right } => {
                if let Some(l) = self.first_binding(*left) {
                    return Some(BHandle::new(BData::Tagged { side: 0, inner: l }));
                }
                self.first_binding(*right)
                    .map(|r| BHandle::new(BData::Tagged { side: 1, inner: r }))
            }
            OpSpec::Difference(d) => {
                let start = self.first_binding(d.left);
                self.difference_scan(d, start)
            }
            OpSpec::Project { input, .. }
            | OpSpec::Concat { input, .. }
            | OpSpec::Create { input, .. }
            | OpSpec::Constant { input, .. }
            | OpSpec::Wrap { input, .. } => {
                let inner = self.first_binding(*input)?;
                Some(BHandle::new(BData::Through { inner }))
            }
            OpSpec::GroupBy(g) => {
                let first = if self.e.config.group_cache {
                    self.group_first(g, 0).map(|idx| self.group_handle(g, idx))
                } else {
                    // Uncached: the first input binding always opens the
                    // first group.
                    self.first_binding(g.input)
                        .map(|h| BHandle::new(BData::Group { first: Some(h), first_idx: None }))
                };
                if first.is_none() && g.group.is_empty() {
                    // `groupBy {}` always produces exactly one output
                    // binding (possibly with empty lists) — this keeps the
                    // root element of a query alive on empty inputs.
                    return Some(BHandle::new(BData::Group { first: None, first_idx: None }));
                }
                first
            }
            OpSpec::OrderBy { input, keys, slot } => {
                let sorted = self.ensure_sorted(*input, keys, *slot);
                (!sorted.is_empty()).then(|| BHandle::new(BData::Ordered { index: 0 }))
            }
            // The root exports a document, not bindings.
            OpSpec::Root => None,
        }
    }

    /// Binding after `b` in an operator's output list.
    pub(crate) fn next_binding(&mut self, op: PlanId, b: &BHandle) -> Option<BHandle> {
        self.enumerate(op, "next_binding", |n| n.next_binding_inner(op, b))
    }

    fn next_binding_inner(&mut self, op: PlanId, b: &BHandle) -> Option<BHandle> {
        match (self.spec(op), &*b.0) {
            (OpSpec::Source { .. }, _) => None,
            (OpSpec::GetDesc(gd), BData::GetDesc { input: ib, cursor }) => {
                // Next match within the same input binding…
                if let Some(next) = self.gd_advance(gd, ib, cursor) {
                    return Some(BHandle::new(BData::GetDesc { input: ib.clone(), cursor: next }));
                }
                // …or the first match of a later input binding.
                let start = self.next_binding(gd.input, ib);
                self.gd_scan(gd, start)
            }
            (OpSpec::Select { input, pred }, BData::Filtered { input: ib }) => {
                let start = self.next_binding(*input, ib);
                self.select_scan(op, *input, pred, start)
            }
            (OpSpec::Join(j), BData::Pair { left: l, right: r, ridx }) => {
                // Resume the inner scan past the current inner binding…
                let resume = if self.e.config.join_cache { None } else { Some(r) };
                if let Some(pair) = self.join_scan(j, l, ridx + 1, resume) {
                    return Some(pair);
                }
                // …then restart it for later outer bindings.
                let start = self.next_binding(j.left, l);
                self.join_outer_scan(j, start)
            }
            (OpSpec::Cross { left, right, .. }, BData::Pair { left: l, right: r, .. }) => {
                if let Some(nr) = self.next_binding(*right, r) {
                    return Some(BHandle::new(BData::Pair { left: l.clone(), right: nr, ridx: 0 }));
                }
                let nl = self.next_binding(*left, l)?;
                let r0 = self.first_binding(*right)?;
                Some(BHandle::new(BData::Pair { left: nl, right: r0, ridx: 0 }))
            }
            (OpSpec::Union { left, right }, BData::Tagged { side, inner }) => {
                if *side == 0 {
                    if let Some(n) = self.next_binding(*left, inner) {
                        return Some(BHandle::new(BData::Tagged { side: 0, inner: n }));
                    }
                    return self
                        .first_binding(*right)
                        .map(|r| BHandle::new(BData::Tagged { side: 1, inner: r }));
                }
                self.next_binding(*right, inner)
                    .map(|n| BHandle::new(BData::Tagged { side: 1, inner: n }))
            }
            (OpSpec::Difference(d), BData::Through { inner }) => {
                let start = self.next_binding(d.left, inner);
                self.difference_scan(d, start)
            }
            (
                OpSpec::Project { input, .. }
                | OpSpec::Concat { input, .. }
                | OpSpec::Create { input, .. }
                | OpSpec::Constant { input, .. }
                | OpSpec::Wrap { input, .. },
                BData::Through { inner },
            ) => {
                let n = self.next_binding(*input, inner)?;
                Some(BHandle::new(BData::Through { inner: n }))
            }
            // The single all-in-one group.
            (OpSpec::GroupBy(g), _) if g.group.is_empty() => None,
            (OpSpec::GroupBy(g), BData::Group { first: Some(first), first_idx }) => {
                match (self.e.config.group_cache, first_idx) {
                    (true, Some(idx)) => {
                        let gid = self.e.state.groups[g.slot].scanned[*idx].0;
                        self.group_first(g, gid + 1).map(|nidx| self.group_handle(g, nidx))
                    }
                    _ => self
                        .next_group_uncached(g, first)
                        .map(|h| BHandle::new(BData::Group { first: Some(h), first_idx: None })),
                }
            }
            (OpSpec::OrderBy { slot, .. }, BData::Ordered { index }) => {
                let len = self.e.state.sorted[*slot].as_ref().map_or(0, Vec::len);
                (index + 1 < len).then(|| BHandle::new(BData::Ordered { index: index + 1 }))
            }
            _ => unreachable!("binding handle of another operator"),
        }
    }

    /// Jump to the value of variable `var` in binding `b` of operator
    /// `op` (Appendix A's `b.H` command).
    pub(crate) fn attr(&mut self, op: PlanId, b: &BHandle, var: &Var) -> VNode {
        // Attribute jumps keep `op` on the attribution stack (they can
        // trigger source navigation) but are not enumeration calls, so
        // they don't count toward calls/produced.
        let metered = self.e.metrics_on();
        if metered {
            self.e.op_stack.push(op.index() as u32);
        }
        if self.e.trace.is_enabled() {
            let name = self.e.plan().node(op).op_name();
            self.e.trace.emit(None, TraceKind::AttrJump { op: name, var: var.to_string() });
        }
        let out = self.attr_inner(op, b, var);
        if metered {
            self.e.op_stack.pop();
        }
        out
    }

    fn attr_inner(&mut self, op: PlanId, b: &BHandle, var: &Var) -> VNode {
        match (self.spec(op), &*b.0) {
            (OpSpec::Source { src, out }, _) => {
                debug_assert_eq!(var, out, "source binds exactly one variable");
                self.e.sources[*src].doc.clone()
            }
            (OpSpec::GetDesc(gd), BData::GetDesc { input: ib, cursor }) => {
                if *var == gd.out {
                    let root = self.gd_parent_value(gd, ib);
                    cursor.current(&root)
                } else {
                    self.attr(gd.input, ib, var)
                }
            }
            (OpSpec::Select { input, .. }, BData::Filtered { input: inner })
            | (OpSpec::Difference(DiffSpec { left: input, .. }), BData::Through { inner }) => {
                self.attr(*input, inner, var)
            }
            (
                OpSpec::Join(JoinSpec { left, right, left_schema, .. })
                | OpSpec::Cross { left, right, left_schema },
                BData::Pair { left: l, right: r, .. },
            ) => {
                if left_schema.contains(var) {
                    self.attr(*left, l, var)
                } else {
                    self.attr(*right, r, var)
                }
            }
            (OpSpec::Union { left, right }, BData::Tagged { side, inner }) => {
                self.attr(if *side == 0 { *left } else { *right }, inner, var)
            }
            (OpSpec::Project { input, keep }, BData::Through { inner }) => {
                assert!(keep.contains(var), "projected-away variable {var}");
                self.attr(*input, inner, var)
            }
            (OpSpec::GroupBy(g), BData::Group { first, first_idx }) => {
                if let Some(item) = g.items.iter().position(|it| it.out == *var) {
                    return VNode::new(VData::GroupList {
                        op,
                        first: first.clone(),
                        first_idx: *first_idx,
                        item,
                    });
                }
                let first = first
                    .as_ref()
                    .expect("group variables exist only when groups are non-synthetic");
                self.attr(g.input, first, var)
            }
            (OpSpec::Concat { out, .. }, _) if var == out => {
                VNode::new(VData::ConcatList { op, b: b.clone() })
            }
            (OpSpec::Create { out, .. }, _) if var == out => {
                VNode::new(VData::Created { op, b: b.clone() })
            }
            (OpSpec::Constant { doc, out, .. }, _) if var == out => {
                VNode::new(VData::Const { doc: doc.clone(), node: doc.root() })
            }
            (OpSpec::Wrap { input, var: wrapped, out }, BData::Through { inner }) if var == out => {
                // `wrap` yields the value itself when it is already a
                // list, else the synthesized singleton list.
                let value = self.attr(*input, inner, wrapped);
                if self.val_fetch(&value) == Label::list() {
                    return value;
                }
                VNode::new(VData::WrapList { op, b: b.clone() })
            }
            (
                OpSpec::Concat { input, .. }
                | OpSpec::Create { input, .. }
                | OpSpec::Constant { input, .. }
                | OpSpec::Wrap { input, .. },
                BData::Through { inner },
            ) => self.attr(*input, inner, var),
            (OpSpec::OrderBy { input, slot, .. }, BData::Ordered { index }) => {
                let inner = self.e.state.sorted[*slot]
                    .as_ref()
                    .expect("orderBy materialized before binding handles exist")[*index]
                    .clone();
                self.attr(*input, &inner, var)
            }
            _ => unreachable!("binding handle of another operator"),
        }
    }

    /// The binding, issued by the operator that binds `var`, which `attr`
    /// reaches from binding `b` of `op` — found by following the same
    /// handle chain without navigating. §3 handles are persistent and a
    /// binding's values are a function of its handle, so two bindings with
    /// the same defining binding hold the same `var` value. `None` where
    /// the chain is not seen through.
    fn defining_binding<'h>(
        &self,
        mut op: PlanId,
        mut b: &'h BHandle,
        var: &Var,
    ) -> Option<&'h BHandle> {
        loop {
            (op, b) = match (self.spec(op), &*b.0) {
                (OpSpec::Source { .. }, _) => return Some(b),
                (OpSpec::GetDesc(gd), _) if gd.out == *var => return Some(b),
                (OpSpec::GetDesc(GetDescSpec { input, .. }), BData::GetDesc { input: ib, .. })
                | (OpSpec::Select { input, .. }, BData::Filtered { input: ib }) => (*input, ib),
                (
                    OpSpec::Join(JoinSpec { left, right, left_schema, .. })
                    | OpSpec::Cross { left, right, left_schema },
                    BData::Pair { left: l, right: r, .. },
                ) => {
                    if left_schema.contains(var) {
                        (*left, l)
                    } else {
                        (*right, r)
                    }
                }
                _ => return None,
            };
        }
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
    fn eval_pred(&mut self, op: PlanId, cand: &BHandle, pred: &BindPred) -> bool {
        let mut vals: HashMap<Var, Tree> = HashMap::new();
        for v in pred.vars() {
            let node = self.attr(op, cand, &v);
            let t = self.materialize_value(&node);
            vals.insert(v, t);
        }
        pred.eval(&|v: &Var| vals.get(v))
    }

    // ---- join -----------------------------------------------------------

    /// The first pair joining outer binding `start` or a later one.
    fn join_outer_scan(&mut self, j: &JoinSpec, mut start: Option<BHandle>) -> Option<BHandle> {
        while let Some(l) = start {
            if let Some(pair) = self.join_scan(j, &l, 0, None) {
                return Some(pair);
            }
            start = self.next_binding(j.left, &l);
        }
        None
    }

    /// Find the next inner binding (at cache index ≥ `from_idx`, or — in
    /// uncached mode — after handle `resume`) that joins with outer
    /// binding `l`.
    fn join_scan(
        &mut self,
        j: &JoinSpec,
        l: &BHandle,
        from_idx: usize,
        resume: Option<&BHandle>,
    ) -> Option<BHandle> {
        let keyed = j.eq_keys.as_ref().filter(|_| self.e.config.join_cache).map(|(lk, _)| lk);

        // A keyed join's outer key, computed once per binding that defines
        // it; otherwise the outer side's predicate values.
        let mut left_vals: HashMap<Var, Tree> = HashMap::new();
        match keyed {
            Some(lk) => self.join_outer_key(j, l, lk),
            None => {
                for v in j.pred.vars() {
                    if j.left_schema.contains(&v) {
                        let node = self.attr(j.left, l, &v);
                        let t = self.materialize_value(&node);
                        left_vals.insert(v, t);
                    }
                }
            }
        }

        if self.e.config.join_cache {
            let mut from = from_idx;
            loop {
                let cache = &self.e.state.joins[j.slot];
                let hit = match keyed {
                    // Entries are appended in order, so each hit list is
                    // ascending: its first index ≥ `from` is the answer.
                    Some(_) => {
                        let (_, key) = cache.outer_key.as_ref().expect("set by join_outer_key");
                        cache.index.get(key).and_then(|hits| {
                            hits.get(hits.partition_point(|&i| i < from)).copied()
                        })
                    }
                    None => (from..cache.handles.len()).find(|&i| {
                        let rv = &cache.pred_vals[i];
                        j.pred.eval(&|v: &Var| left_vals.get(v).or_else(|| rv.get(v)))
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
                if !self.join_cache_extend(j) {
                    return None;
                }
            }
        } else {
            let mut cur = match resume {
                Some(r) => self.next_binding(j.right, r),
                None => self.first_binding(j.right),
            };
            while let Some(r) = cur {
                let mut right_vals: HashMap<Var, Tree> = HashMap::new();
                for v in j.pred.vars() {
                    if !j.left_schema.contains(&v) {
                        let node = self.attr(j.right, &r, &v);
                        let t = self.materialize_value(&node);
                        right_vals.insert(v, t);
                    }
                }
                let ok = j.pred.eval(&|v: &Var| left_vals.get(v).or_else(|| right_vals.get(v)));
                if ok {
                    return Some(BHandle::new(BData::Pair {
                        left: l.clone(),
                        right: r,
                        ridx: 0,
                    }));
                }
                cur = self.next_binding(j.right, &r);
            }
            None
        }
    }

    /// Point the keyed join's memo at outer binding `l`'s key. The outer
    /// value is materialized only when the binding that defines the key
    /// variable `lk` (`l` itself when that one is hidden) is not the one
    /// the memo holds — once per outer binding, not once per pair.
    fn join_outer_key(&mut self, j: &JoinSpec, l: &BHandle, lk: &Var) {
        let def = self.defining_binding(j.left, l, lk).unwrap_or(l);
        let memo = &self.e.state.joins[j.slot].outer_key;
        if memo.as_ref().is_some_and(|(d, _)| d.same(def)) {
            return;
        }
        let def = def.clone();
        let node = self.attr(j.left, l, lk);
        let key = eq_key(&self.materialize_value(&node));
        self.e.state.joins[j.slot].outer_key = Some((def, key));
    }

    /// Pull one more inner binding into the join's cache, together with
    /// its key (keyed joins) or its predicate values (scanned joins).
    /// `false` once the inner input is exhausted.
    fn join_cache_extend(&mut self, j: &JoinSpec) -> bool {
        let cache = &self.e.state.joins[j.slot];
        if cache.complete {
            return false;
        }
        let next = match cache.handles.last().cloned() {
            Some(h) => self.next_binding(j.right, &h),
            None => self.first_binding(j.right),
        };
        let Some(h) = next else {
            self.e.state.joins[j.slot].complete = true;
            return false;
        };
        let mut vals = HashMap::new();
        for v in &j.right_pred_vars {
            let node = self.attr(j.right, &h, v);
            let t = self.materialize_value(&node);
            vals.insert(v.clone(), t);
        }
        let cache = &mut self.e.state.joins[j.slot];
        match &j.eq_keys {
            Some((_, rk)) => {
                let key = eq_key(&vals[rk]);
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

    fn difference_scan(&mut self, d: &DiffSpec, start: Option<BHandle>) -> Option<BHandle> {
        // Materialize the right side's keys once (the operator is
        // unbrowsable: Def. 2).
        if self.e.state.right_keys[d.slot].is_none() {
            let mut set = HashSet::new();
            let mut cur = self.first_binding(d.right);
            while let Some(rb) = cur {
                set.insert(self.binding_key(d.right, &rb, &d.schema));
                cur = self.next_binding(d.right, &rb);
            }
            self.e.state.right_keys[d.slot] = Some(set);
        }
        let mut cur = start;
        while let Some(lb) = cur {
            let k = self.binding_key(d.left, &lb, &d.schema);
            if !self.e.state.right_keys[d.slot].as_ref().is_some_and(|keys| keys.contains(&k)) {
                return Some(BHandle::new(BData::Through { inner: lb }));
            }
            cur = self.next_binding(d.left, &lb);
        }
        None
    }

    // ---- groupBy ----------------------------------------------------------

    /// Key of the group an input binding belongs to.
    pub(crate) fn group_key_of(&mut self, g: &GroupSpec, ib: &BHandle) -> String {
        self.binding_key(g.input, ib, &g.group)
    }

    /// The group of input binding `ib` when the memo knows it: every group
    /// variable is defined by the same binding as in the last scanned
    /// entry, so the key would come out equal. Otherwise the defining
    /// bindings to remember with the computed key (`None` if one is
    /// hidden).
    fn group_memo(&self, g: &GroupSpec, ib: &BHandle) -> Result<usize, Option<Vec<BHandle>>> {
        let defs = g.group.iter().map(|v| self.defining_binding(g.input, ib, v));
        if let Some((last, gid)) = &self.e.state.groups[g.slot].last_def {
            if defs.clone().zip(last).all(|(d, l)| d.is_some_and(|d| d.same(l))) {
                return Ok(*gid);
            }
        }
        Err(defs.map(|d| d.cloned()).collect())
    }

    /// Extend the groupBy's shared input scan by exactly one binding —
    /// never ahead of demand — filing it under its group, whose key is
    /// computed only when the memo misses. `false` once the input is
    /// exhausted. Cached mode only.
    fn group_scan_one(&mut self, g: &GroupSpec) -> bool {
        let cache = &self.e.state.groups[g.slot];
        if cache.exhausted {
            return false;
        }
        let next = match cache.scanned.last().map(|(_, h)| h.clone()) {
            None => self.first_binding(g.input),
            Some(h) => self.next_binding(g.input, &h),
        };
        let Some(ib) = next else {
            self.e.state.groups[g.slot].exhausted = true;
            return false;
        };
        let gid = match self.group_memo(g, &ib) {
            Ok(gid) => gid,
            Err(defs) => {
                let key = self.group_key_of(g, &ib);
                let cache = &mut self.e.state.groups[g.slot];
                let fresh = cache.members.len();
                let gid = *cache.ids.entry(key).or_insert(fresh);
                if gid == fresh {
                    cache.members.push(Vec::new());
                }
                cache.last_def = defs.map(|d| (d, gid));
                gid
            }
        };
        let cache = &mut self.e.state.groups[g.slot];
        cache.members[gid].push(cache.scanned.len());
        cache.scanned.push((gid, ib));
        true
    }

    /// Scan index of group `gid`'s first binding, scanning on until `gid`
    /// is discovered. Cached mode only.
    fn group_first(&mut self, g: &GroupSpec, gid: usize) -> Option<usize> {
        loop {
            if let Some(m) = self.e.state.groups[g.slot].members.get(gid) {
                return Some(m[0]);
            }
            if !self.group_scan_one(g) {
                return None;
            }
        }
    }

    /// The group whose first binding sits at scan index `idx`.
    fn group_handle(&self, g: &GroupSpec, idx: usize) -> BHandle {
        let first = self.e.state.groups[g.slot].scanned[idx].1.clone();
        BHandle::new(BData::Group { first: Some(first), first_idx: Some(idx) })
    }

    /// Next group without persistent state: rescan the input from the
    /// start, reconstructing `G_prev` (the expensive stateless variant the
    /// paper's buffering remark avoids — ablation E8).
    fn next_group_uncached(&mut self, g: &GroupSpec, first: &BHandle) -> Option<BHandle> {
        let my_key = self.group_key_of(g, first);
        let mut seen = HashSet::new();
        let mut passed = false;
        let mut cur = self.first_binding(g.input);
        while let Some(ib) = cur {
            let key = self.group_key_of(g, &ib);
            if passed && !seen.contains(&key) {
                return Some(ib);
            }
            if key == my_key {
                passed = true;
            }
            seen.insert(key);
            cur = self.next_binding(g.input, &ib);
        }
        None
    }

    /// Next member of group `gid` after scan index `ib_idx` (Fig. 10's
    /// `next(p_b, p_g)`): looked up in the group's member list, scanning
    /// on only past the end of the scan so far.
    pub(crate) fn next_group_member_cached(
        &mut self,
        g: &GroupSpec,
        gid: usize,
        ib_idx: usize,
    ) -> Option<(usize, BHandle)> {
        loop {
            let cache = &self.e.state.groups[g.slot];
            let m = &cache.members[gid];
            if let Some(&idx) = m.get(m.partition_point(|&i| i <= ib_idx)) {
                return Some((idx, cache.scanned[idx].1.clone()));
            }
            if !self.group_scan_one(g) {
                return None;
            }
        }
    }

    /// Handle-based member scan for cache-disabled mode.
    pub(crate) fn next_group_member(
        &mut self,
        g: &GroupSpec,
        gb_key: &str,
        ib: &BHandle,
    ) -> Option<BHandle> {
        let mut cur = self.next_binding(g.input, ib);
        while let Some(nb) = cur {
            if self.group_key_of(g, &nb) == gb_key {
                return Some(nb);
            }
            cur = self.next_binding(g.input, &nb);
        }
        None
    }

    // ---- orderBy ----------------------------------------------------------

    /// Materialize and sort the input — the unbrowsable step.
    fn ensure_sorted(&mut self, input: PlanId, keys: &[Var], slot: usize) -> &[BHandle] {
        if self.e.state.sorted[slot].is_none() {
            let mut entries: Vec<(Vec<Tree>, BHandle)> = Vec::new();
            let mut cur = self.first_binding(input);
            while let Some(ib) = cur {
                let mut kv = Vec::with_capacity(keys.len());
                for k in keys {
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
            self.e.state.sorted[slot] = Some(entries.into_iter().map(|(_, h)| h).collect());
        }
        self.e.state.sorted[slot].as_deref().unwrap_or_default()
    }

    // ---- getDescendants -----------------------------------------------------

    /// The parent value `bin.e` a getDescendants binding matches inside.
    fn gd_parent_value(&mut self, gd: &GetDescSpec, ib: &BHandle) -> VNode {
        self.attr(gd.input, ib, &gd.parent)
    }

    /// The first match under input binding `start` or a later one.
    fn gd_scan(&mut self, gd: &GetDescSpec, mut start: Option<BHandle>) -> Option<BHandle> {
        while let Some(b) = start {
            if let Some(cursor) = self.gd_start(gd, &b) {
                return Some(BHandle::new(BData::GetDesc { input: b, cursor }));
            }
            start = self.next_binding(gd.input, &b);
        }
        None
    }

    /// Position a fresh cursor on the first match under input binding
    /// `ib`, or `None` when the subtree holds no match.
    fn gd_start(&mut self, gd: &GetDescSpec, ib: &BHandle) -> Option<MatchCursor> {
        let root = self.gd_parent_value(gd, ib);
        let cursor = MatchCursor::new(Vec::new());
        // Zero-step match: the parent itself (paths accepting ε).
        if cursor.is_match(&gd.nfa, &gd.start_set) {
            return Some(cursor);
        }
        self.gd_next_match(gd, &root, cursor)
    }

    /// Advance to the next match after `cursor` (pre-order).
    fn gd_advance(
        &mut self,
        gd: &GetDescSpec,
        ib: &BHandle,
        cursor: &MatchCursor,
    ) -> Option<MatchCursor> {
        let root = self.gd_parent_value(gd, ib);
        self.gd_next_match(gd, &root, cursor.clone())
    }

    /// Advance the DFS to the next accepting position strictly after the
    /// current one.
    fn gd_next_match(
        &mut self,
        gd: &GetDescSpec,
        root: &VNode,
        mut cursor: MatchCursor,
    ) -> Option<MatchCursor> {
        loop {
            cursor = self.gd_step(gd, root, cursor)?;
            if cursor.is_match(&gd.nfa, &gd.start_set) {
                return Some(cursor);
            }
        }
    }

    /// One pre-order step of the pruned DFS: descend when the automaton
    /// can still make progress, else move right, popping as needed.
    fn gd_step(&mut self, gd: &GetDescSpec, root: &VNode, cursor: MatchCursor) -> Option<MatchCursor> {
        let (nfa, start_set) = (&gd.nfa, &gd.start_set);
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
            let sib = if self.e.config.use_select {
                match nfa.label_frontier(&parent_states) {
                    Some(labels) if !labels.is_empty() => {
                        let pred = if labels.len() == 1 {
                            mix_nav::LabelPred::equals(labels[0].as_str())
                        } else {
                            mix_nav::LabelPred::OneOf(
                                // NFA frontier labels are query constants:
                                // intern them so the per-sibling compare in
                                // `val_select` is an integer test.
                                labels.iter().map(Label::intern).collect(),
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
