//! Algebra plans — the operator trees of the paper's Figure 4.
//!
//! A [`Plan`] is an arena of [`PlanNode`]s with a designated root. Every
//! operator consumes and produces *lists of variable bindings*; only the
//! root `tupleDestroy` escapes the binding world and yields the answer
//! document.
//!
//! The operator set is the paper's (§3): the conventional relational
//! operators σ, π, ⋈, ×, ∪, \ lifted to binding lists, plus
//! `getDescendants` (generalized path expressions), `groupBy`,
//! `concatenate`, `createElement`, `orderBy`, `tupleDestroy`, and `source`.
//! Two micro-operators are added for the translation's convenience and
//! documented as derived forms: [`PlanNode::Constant`] (bind a literal
//! tree) and [`PlanNode::Wrap`] (`wrap_v→l` = `concatenate` of a value with
//! an empty list, producing `list[v]`).

use crate::pred::BindPred;
use crate::AlgebraError;
use mix_xml::Tree;
use mix_xmas::{LabelSpec, PathExpr, Var};
use std::fmt;

/// Index of a node within a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(pub(crate) usize);

impl PlanId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuild from a raw index (for engines that mirror the plan arena).
    pub fn from_index(i: usize) -> Self {
        PlanId(i)
    }
}

/// Stable identity of one operator *instance*, assigned at plan-build
/// time ([`Plan::add`]) from a per-plan counter and never reused. Unlike
/// [`PlanId`] — a positional arena index — an `OpId` is meant to travel
/// outside the plan: live-metric series and `explain_analyze` rows are
/// keyed by it, so per-operator numbers stay attributable even across
/// rewrites that rearrange or strand arena slots. Assignment order is
/// deterministic (add order), so equal construction sequences yield equal
/// ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// Raw value.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// One `groupBy` output: collect `value` into a list bound to `out`.
///
/// The paper's `groupBy_{v1…vk},v→l` collects a single variable; allowing a
/// list of `(value → out)` pairs is the natural n-ary extension needed when
/// one element template collects several variables at the same level. With
/// one item this is exactly the paper's operator.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupItem {
    /// The variable whose bindings are collected.
    pub value: Var,
    /// The variable bound to the resulting `list[…]`.
    pub out: Var,
}

/// An algebra operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// `source_url→v`: the singleton binding list `bs[b[v[root]]]` for the
    /// root of the named source.
    Source { name: String, out: Var },
    /// `getDescendants_e,re→ch`: for each input binding and each descendant
    /// of `bin.e` reachable along a path matching `re`, emit
    /// `bin + ch[d]`.
    GetDescendants { input: PlanId, parent: Var, path: PathExpr, out: Var },
    /// σ — keep bindings satisfying the predicate.
    Select { input: PlanId, pred: BindPred },
    /// ⋈ — nested-loop join of two binding lists under a predicate.
    /// `left` is the outer input, `right` the inner (cached) one.
    Join { left: PlanId, right: PlanId, pred: BindPred },
    /// × — cross product.
    Cross { left: PlanId, right: PlanId },
    /// ∪ — list concatenation of two binding lists over the same schema.
    Union { left: PlanId, right: PlanId },
    /// \ — bindings of `left` whose restriction to the common schema does
    /// not occur in `right`.
    Difference { left: PlanId, right: PlanId },
    /// π — keep only the named variables.
    Project { input: PlanId, keep: Vec<Var> },
    /// `groupBy_{group},items`: one output binding per distinct value of
    /// the group variables, carrying the group variables and one `list[…]`
    /// per item.
    GroupBy { input: PlanId, group: Vec<Var>, items: Vec<GroupItem> },
    /// `concatenate_x,y→z` (§3): list/value concatenation into `list[…]`.
    Concatenate { input: PlanId, x: Var, y: Var, out: Var },
    /// `createElement_label,ch→e`: build `label[c1…cn]` from the subtrees
    /// of `bin.ch`.
    CreateElement { input: PlanId, label: LabelSpec, ch: Var, out: Var },
    /// Bind a literal tree to `out` in every binding (derived operator).
    Constant { input: PlanId, value: Tree, out: Var },
    /// `wrap_v→l`: `l = list[v]`, or `v` itself when already a list
    /// (derived operator: `concatenate` with the empty list).
    Wrap { input: PlanId, var: Var, out: Var },
    /// `orderBy_x1…xk`: reorder bindings by the values of the keys.
    OrderBy { input: PlanId, keys: Vec<Var> },
    /// Return the element `e` from the singleton list `bs[b[v[e]]]`.
    TupleDestroy { input: PlanId, var: Var },
}

impl PlanNode {
    /// The ids of this node's plan inputs, in order.
    pub fn inputs(&self) -> Vec<PlanId> {
        match self {
            PlanNode::Source { .. } => vec![],
            PlanNode::GetDescendants { input, .. }
            | PlanNode::Select { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::GroupBy { input, .. }
            | PlanNode::Concatenate { input, .. }
            | PlanNode::CreateElement { input, .. }
            | PlanNode::Constant { input, .. }
            | PlanNode::Wrap { input, .. }
            | PlanNode::OrderBy { input, .. }
            | PlanNode::TupleDestroy { input, .. } => vec![*input],
            PlanNode::Join { left, right, .. }
            | PlanNode::Cross { left, right }
            | PlanNode::Union { left, right }
            | PlanNode::Difference { left, right } => vec![*left, *right],
        }
    }

    /// A short operator name for display.
    pub fn op_name(&self) -> &'static str {
        match self {
            PlanNode::Source { .. } => "source",
            PlanNode::GetDescendants { .. } => "getDescendants",
            PlanNode::Select { .. } => "select",
            PlanNode::Join { .. } => "join",
            PlanNode::Cross { .. } => "cross",
            PlanNode::Union { .. } => "union",
            PlanNode::Difference { .. } => "difference",
            PlanNode::Project { .. } => "project",
            PlanNode::GroupBy { .. } => "groupBy",
            PlanNode::Concatenate { .. } => "concatenate",
            PlanNode::CreateElement { .. } => "createElement",
            PlanNode::Constant { .. } => "constant",
            PlanNode::Wrap { .. } => "wrap",
            PlanNode::OrderBy { .. } => "orderBy",
            PlanNode::TupleDestroy { .. } => "tupleDestroy",
        }
    }
}

/// An algebra plan: an arena of operators plus the root id.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    nodes: Vec<PlanNode>,
    /// The stable operator identity of each arena slot (parallel to
    /// `nodes`), handed out by `add` from `next_op`.
    op_ids: Vec<OpId>,
    next_op: u32,
    root: Option<PlanId>,
}

impl Plan {
    /// An empty plan under construction.
    pub fn new() -> Self {
        Plan { nodes: Vec::new(), op_ids: Vec::new(), next_op: 0, root: None }
    }

    /// Append a node and return its id. This is the single node-creation
    /// point (the translator builds plans exclusively through it), so it
    /// is also where each operator instance receives its stable [`OpId`].
    pub fn add(&mut self, node: PlanNode) -> PlanId {
        let id = PlanId(self.nodes.len());
        self.nodes.push(node);
        self.op_ids.push(OpId(self.next_op));
        self.next_op += 1;
        id
    }

    /// The stable operator identity of the node at `id`.
    pub fn op_id(&self, id: PlanId) -> OpId {
        self.op_ids[id.0]
    }

    /// A compact, metrics-friendly label for the operator instance at
    /// `id`, e.g. `groupBy#7` — the operator name plus its [`OpId`], used
    /// as the `op` label of per-operator metric series.
    pub fn op_label(&self, id: PlanId) -> String {
        format!("{}#{}", self.node(id).op_name(), self.op_ids[id.0].0)
    }

    /// One-line description of the operator at `id` in the notation of
    /// Figure 4, e.g. `getDescendants $H,zip._ -> $V1` — shared by
    /// [`Plan`]'s `Display` tree and the engine's `explain_analyze`.
    pub fn node_desc(&self, id: PlanId) -> String {
        match self.node(id) {
            PlanNode::Source { name, out } => format!("source {name} -> {out}"),
            PlanNode::GetDescendants { parent, path, out, .. } => {
                format!("getDescendants {parent},{path} -> {out}")
            }
            PlanNode::Select { pred, .. } => format!("select {pred}"),
            PlanNode::Join { pred, .. } => format!("join {pred}"),
            PlanNode::Cross { .. } => "cross".into(),
            PlanNode::Union { .. } => "union".into(),
            PlanNode::Difference { .. } => "difference".into(),
            PlanNode::Project { keep, .. } => {
                let names: Vec<String> = keep.iter().map(|v| v.to_string()).collect();
                format!("project {}", names.join(","))
            }
            PlanNode::GroupBy { group, items, .. } => {
                let g: Vec<String> = group.iter().map(|v| v.to_string()).collect();
                let it: Vec<String> =
                    items.iter().map(|i| format!("{} -> {}", i.value, i.out)).collect();
                format!("groupBy {{{}}} {}", g.join(","), it.join(", "))
            }
            PlanNode::Concatenate { x, y, out, .. } => format!("concatenate {x},{y} -> {out}"),
            PlanNode::CreateElement { label, ch, out, .. } => {
                format!("createElement {label},{ch} -> {out}")
            }
            PlanNode::Constant { value, out, .. } => format!("constant {value} -> {out}"),
            PlanNode::Wrap { var, out, .. } => format!("wrap {var} -> {out}"),
            PlanNode::OrderBy { keys, .. } => {
                let names: Vec<String> = keys.iter().map(|v| v.to_string()).collect();
                format!("orderBy {}", names.join(","))
            }
            PlanNode::TupleDestroy { var, .. } => format!("tupleDestroy {var}"),
        }
    }

    /// Mark the root operator.
    pub fn set_root(&mut self, id: PlanId) {
        self.root = Some(id);
    }

    /// The root operator id.
    ///
    /// # Panics
    /// Panics when the plan is still under construction (no root set).
    pub fn root(&self) -> PlanId {
        self.root.expect("plan has no root")
    }

    /// Look up a node.
    pub fn node(&self, id: PlanId) -> &PlanNode {
        &self.nodes[id.0]
    }

    /// Mutable access to a node (used by the rewriter).
    pub fn node_mut(&mut self, id: PlanId) -> &mut PlanNode {
        &mut self.nodes[id.0]
    }

    /// Number of operators (including any left unreachable by rewrites).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no operators have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The output schema (ordered variable list) of a node.
    pub fn schema(&self, id: PlanId) -> Vec<Var> {
        match self.node(id) {
            PlanNode::Source { out, .. } => vec![out.clone()],
            PlanNode::GetDescendants { input, out, .. }
            | PlanNode::Concatenate { input, out, .. }
            | PlanNode::CreateElement { input, out, .. }
            | PlanNode::Constant { input, out, .. }
            | PlanNode::Wrap { input, out, .. } => {
                let mut s = self.schema(*input);
                s.push(out.clone());
                s
            }
            PlanNode::Select { input, .. } | PlanNode::OrderBy { input, .. } => {
                self.schema(*input)
            }
            PlanNode::Join { left, right, .. } | PlanNode::Cross { left, right } => {
                let mut s = self.schema(*left);
                s.extend(self.schema(*right));
                s
            }
            PlanNode::Union { left, .. } | PlanNode::Difference { left, .. } => {
                self.schema(*left)
            }
            PlanNode::Project { keep, .. } => keep.clone(),
            PlanNode::GroupBy { group, items, .. } => {
                let mut s = group.clone();
                s.extend(items.iter().map(|i| i.out.clone()));
                s
            }
            // tupleDestroy leaves the binding world: no schema.
            PlanNode::TupleDestroy { .. } => vec![],
        }
    }

    /// Validate well-formedness: every referenced variable exists in the
    /// respective input schema, no output variable shadows an existing one,
    /// unions/differences agree on schemas, and `tupleDestroy` (if present)
    /// is the root.
    pub fn validate(&self) -> Result<(), AlgebraError> {
        let root = self.root.ok_or_else(|| AlgebraError::new("plan has no root"))?;
        for (i, node) in self.nodes.iter().enumerate() {
            let id = PlanId(i);
            let in_schemas: Vec<Vec<Var>> =
                node.inputs().iter().map(|&x| self.schema(x)).collect();
            let need = |v: &Var, s: &Vec<Var>| -> Result<(), AlgebraError> {
                if s.contains(v) {
                    Ok(())
                } else {
                    Err(AlgebraError::new(format!(
                        "{}: variable {v} not in input schema {:?}",
                        node.op_name(),
                        s.iter().map(|v| v.to_string()).collect::<Vec<_>>()
                    )))
                }
            };
            let fresh = |v: &Var, s: &Vec<Var>| -> Result<(), AlgebraError> {
                if s.contains(v) {
                    Err(AlgebraError::new(format!(
                        "{}: output variable {v} already bound",
                        node.op_name()
                    )))
                } else {
                    Ok(())
                }
            };
            match node {
                PlanNode::Source { .. } => {}
                PlanNode::GetDescendants { parent, out, .. } => {
                    need(parent, &in_schemas[0])?;
                    fresh(out, &in_schemas[0])?;
                }
                PlanNode::Select { pred, .. } => {
                    for v in pred.vars() {
                        need(&v, &in_schemas[0])?;
                    }
                }
                PlanNode::Join { pred, .. } => {
                    let mut both = in_schemas[0].clone();
                    both.extend(in_schemas[1].iter().cloned());
                    for v in pred.vars() {
                        need(&v, &both)?;
                    }
                    for v in &in_schemas[1] {
                        fresh(v, &in_schemas[0])?;
                    }
                }
                PlanNode::Cross { .. } => {
                    for v in &in_schemas[1] {
                        fresh(v, &in_schemas[0])?;
                    }
                }
                PlanNode::Union { .. } | PlanNode::Difference { .. } => {
                    if in_schemas[0] != in_schemas[1] {
                        return Err(AlgebraError::new(format!(
                            "{}: input schemas differ",
                            node.op_name()
                        )));
                    }
                }
                PlanNode::Project { keep, .. } => {
                    for v in keep {
                        need(v, &in_schemas[0])?;
                    }
                }
                PlanNode::GroupBy { group, items, .. } => {
                    for v in group {
                        need(v, &in_schemas[0])?;
                    }
                    for item in items {
                        need(&item.value, &in_schemas[0])?;
                        if group.contains(&item.out)
                            || items.iter().filter(|j| j.out == item.out).count() > 1
                        {
                            return Err(AlgebraError::new(format!(
                                "groupBy: duplicate output variable {}",
                                item.out
                            )));
                        }
                    }
                }
                PlanNode::Concatenate { x, y, out, .. } => {
                    need(x, &in_schemas[0])?;
                    need(y, &in_schemas[0])?;
                    fresh(out, &in_schemas[0])?;
                }
                PlanNode::CreateElement { label, ch, out, .. } => {
                    if let LabelSpec::Var(v) = label {
                        need(v, &in_schemas[0])?;
                    }
                    need(ch, &in_schemas[0])?;
                    fresh(out, &in_schemas[0])?;
                }
                PlanNode::Constant { out, .. } => {
                    fresh(out, &in_schemas[0])?;
                }
                PlanNode::Wrap { var, out, .. } => {
                    need(var, &in_schemas[0])?;
                    fresh(out, &in_schemas[0])?;
                }
                PlanNode::OrderBy { keys, .. } => {
                    for v in keys {
                        need(v, &in_schemas[0])?;
                    }
                }
                PlanNode::TupleDestroy { var, .. } => {
                    need(var, &in_schemas[0])?;
                    if id != root {
                        return Err(AlgebraError::new(
                            "tupleDestroy must be the plan root",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// All source names referenced by the plan, in first-use order.
    pub fn source_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for n in &self.nodes {
            if let PlanNode::Source { name, .. } = n {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    /// The variables an operator itself consumes from its input(s).
    pub fn vars_used_by(&self, id: PlanId) -> Vec<Var> {
        match self.node(id) {
            PlanNode::Source { .. } => vec![],
            PlanNode::GetDescendants { parent, .. } => vec![parent.clone()],
            PlanNode::Select { pred, .. } => pred.vars(),
            PlanNode::Join { pred, .. } => pred.vars(),
            PlanNode::Cross { .. } | PlanNode::Union { .. } => vec![],
            // Difference compares bindings over the full common schema.
            PlanNode::Difference { left, .. } => self.schema(*left),
            PlanNode::Project { keep, .. } => keep.clone(),
            PlanNode::GroupBy { group, items, .. } => {
                let mut v = group.clone();
                v.extend(items.iter().map(|i| i.value.clone()));
                v
            }
            PlanNode::Concatenate { x, y, .. } => vec![x.clone(), y.clone()],
            PlanNode::CreateElement { label, ch, .. } => {
                let mut v = vec![ch.clone()];
                if let mix_xmas::LabelSpec::Var(l) = label {
                    v.push(l.clone());
                }
                v
            }
            PlanNode::Constant { .. } => vec![],
            PlanNode::Wrap { var, .. } => vec![var.clone()],
            PlanNode::OrderBy { keys, .. } => keys.clone(),
            PlanNode::TupleDestroy { var, .. } => vec![var.clone()],
        }
    }

    /// Nodes reachable from the root (rewrites can strand operators).
    pub fn reachable(&self) -> Vec<PlanId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root()];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id.0] {
                continue;
            }
            seen[id.0] = true;
            out.push(id);
            stack.extend(self.node(id).inputs());
        }
        out
    }
}

impl Default for Plan {
    fn default() -> Self {
        Plan::new()
    }
}

impl fmt::Display for Plan {
    /// Render the plan as an indented operator tree in the notation of
    /// Figure 4, e.g. `getDescendants $H,zip._ -> $V1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(plan: &Plan, id: PlanId, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for _ in 0..depth {
                write!(f, "  ")?;
            }
            writeln!(f, "{}", plan.node_desc(id))?;
            for input in plan.node(id).inputs() {
                go(plan, input, depth + 1, f)?;
            }
            Ok(())
        }
        go(self, self.root(), 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::BindPred;
    use mix_xmas::parse_path;

    /// Hand-build the Fig. 4 plan for the homes/schools query.
    pub(crate) fn fig4_plan() -> Plan {
        let mut p = Plan::new();
        let v = |s: &str| Var::new(s);

        let homes = p.add(PlanNode::Source { name: "homesSrc".into(), out: v("R1") });
        let gd_h = p.add(PlanNode::GetDescendants {
            input: homes,
            parent: v("R1"),
            path: parse_path("homes.home").unwrap(),
            out: v("H"),
        });
        let gd_v1 = p.add(PlanNode::GetDescendants {
            input: gd_h,
            parent: v("H"),
            path: parse_path("zip._").unwrap(),
            out: v("V1"),
        });
        let schools = p.add(PlanNode::Source { name: "schoolsSrc".into(), out: v("R2") });
        let gd_s = p.add(PlanNode::GetDescendants {
            input: schools,
            parent: v("R2"),
            path: parse_path("schools.school").unwrap(),
            out: v("S"),
        });
        let gd_v2 = p.add(PlanNode::GetDescendants {
            input: gd_s,
            parent: v("S"),
            path: parse_path("zip._").unwrap(),
            out: v("V2"),
        });
        let join = p.add(PlanNode::Join {
            left: gd_v1,
            right: gd_v2,
            pred: BindPred::var_eq("V1", "V2"),
        });
        let gb1 = p.add(PlanNode::GroupBy {
            input: join,
            group: vec![v("H")],
            items: vec![GroupItem { value: v("S"), out: v("LSs") }],
        });
        let wrap_h = p.add(PlanNode::Wrap { input: gb1, var: v("H"), out: v("LH") });
        let conc = p.add(PlanNode::Concatenate {
            input: wrap_h,
            x: v("LH"),
            y: v("LSs"),
            out: v("HLSs"),
        });
        let ce1 = p.add(PlanNode::CreateElement {
            input: conc,
            label: LabelSpec::Const("med_home".into()),
            ch: v("HLSs"),
            out: v("MHs"),
        });
        let gb2 = p.add(PlanNode::GroupBy {
            input: ce1,
            group: vec![],
            items: vec![GroupItem { value: v("MHs"), out: v("MHL") }],
        });
        let ce2 = p.add(PlanNode::CreateElement {
            input: gb2,
            label: LabelSpec::Const("answer".into()),
            ch: v("MHL"),
            out: v("A"),
        });
        let td = p.add(PlanNode::TupleDestroy { input: ce2, var: v("A") });
        p.set_root(td);
        p
    }

    #[test]
    fn fig4_plan_validates() {
        let p = fig4_plan();
        p.validate().unwrap();
        assert_eq!(p.source_names(), vec!["homesSrc".to_string(), "schoolsSrc".to_string()]);
    }

    #[test]
    fn schemas() {
        let p = fig4_plan();
        // Find the join node and check its schema.
        let join = p
            .reachable()
            .into_iter()
            .find(|&id| matches!(p.node(id), PlanNode::Join { .. }))
            .unwrap();
        let names: Vec<String> = p.schema(join).iter().map(|v| v.name().to_string()).collect();
        assert_eq!(names, ["R1", "H", "V1", "R2", "S", "V2"]);
        // Root schema is empty (a document, not bindings).
        assert_eq!(p.schema(p.root()), Vec::<Var>::new());
    }

    #[test]
    fn validation_catches_missing_variable() {
        let mut p = Plan::new();
        let s = p.add(PlanNode::Source { name: "s".into(), out: Var::new("X") });
        let bad = p.add(PlanNode::GetDescendants {
            input: s,
            parent: Var::new("NOPE"),
            path: parse_path("a").unwrap(),
            out: Var::new("Y"),
        });
        let td = p.add(PlanNode::TupleDestroy { input: bad, var: Var::new("Y") });
        p.set_root(td);
        let err = p.validate().unwrap_err();
        assert!(err.message.contains("NOPE"));
    }

    #[test]
    fn validation_catches_shadowing() {
        let mut p = Plan::new();
        let s = p.add(PlanNode::Source { name: "s".into(), out: Var::new("X") });
        let bad = p.add(PlanNode::GetDescendants {
            input: s,
            parent: Var::new("X"),
            path: parse_path("a").unwrap(),
            out: Var::new("X"), // shadows
        });
        p.set_root(bad);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_requires_tupledestroy_at_root() {
        let mut p = Plan::new();
        let s = p.add(PlanNode::Source { name: "s".into(), out: Var::new("X") });
        let td = p.add(PlanNode::TupleDestroy { input: s, var: Var::new("X") });
        let sel = p.add(PlanNode::Select { input: td, pred: BindPred::True });
        p.set_root(sel);
        assert!(p.validate().is_err());
    }

    #[test]
    fn display_matches_fig4_shape() {
        let p = fig4_plan();
        let text = p.to_string();
        assert!(text.starts_with("tupleDestroy $A"));
        assert!(text.contains("createElement answer,$MHL -> $A"));
        assert!(text.contains("groupBy {$H} $S -> $LSs"));
        assert!(text.contains("join $V1 = $V2"));
        assert!(text.contains("getDescendants $R1,homes.home -> $H"));
        assert!(text.contains("source schoolsSrc -> $R2"));
    }

    #[test]
    fn op_ids_are_stable_and_deterministic() {
        let p = fig4_plan();
        // Deterministic: add order is the id order.
        for (i, id) in (0..p.len()).map(PlanId).enumerate() {
            assert_eq!(p.op_id(id).index(), i as u32);
        }
        // Stable across clones (metric series keyed by OpId keep matching).
        let q = p.clone();
        assert_eq!(q.op_id(PlanId(3)), p.op_id(PlanId(3)));
        // Two identically-built plans agree, so plan equality still holds.
        assert_eq!(fig4_plan(), p);
        // Labels combine operator name and instance id.
        assert_eq!(p.op_label(PlanId(0)), "source#0");
        assert!(p.op_label(p.root()).starts_with("tupleDestroy#"));
        // node_desc is the Display line.
        assert_eq!(p.node_desc(p.root()), "tupleDestroy $A");
    }

    #[test]
    fn reachable_skips_stranded_nodes() {
        let mut p = fig4_plan();
        // Add a stranded operator not connected to the root.
        p.add(PlanNode::Source { name: "orphan".into(), out: Var::new("Z") });
        assert_eq!(p.reachable().len(), p.len() - 1);
    }
}
