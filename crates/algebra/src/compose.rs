//! Query ∘ view composition (paper §3, *Preprocessing*).
//!
//! "The interaction of the client with the mediator may start by issuing a
//! query q′ on q. In this case the preprocessing phase will compose the
//! query and the view and generate the initial plan for q′ ∘ q."
//!
//! [`compose`] splices the view's plan into the query's plan wherever the
//! query reads the view as a source, yielding **one** plan over the base
//! sources — the alternative to stacking two engines (which also works,
//! see `SourceRegistry::add_navigator`, but pays an extra mediator layer
//! per navigation).
//!
//! Mechanics: the view's `tupleDestroy $A` is replaced by
//! `wrap $A → L; createElement #document, L → D; project [D]` so the
//! constructed answer element appears *below a document node*, exactly like
//! a wrapped source (`source` binds the document node; paths consume the
//! root element's label as their first step). The query's `source`
//! leaves naming the view are then redirected to that chain, with the
//! view's variables α-renamed (`viewname::…`) so they cannot collide with
//! the query's.

use crate::plan::{GroupItem, Plan, PlanId, PlanNode};
use crate::pred::{BindPred, PredOperand};
use crate::AlgebraError;
use mix_xmas::{LabelSpec, Var};
use std::collections::HashMap;

/// Compose `query ∘ view`: replace every `source { name == view_name }` in
/// `query` with the body of `view`. Returns the composed single plan.
///
/// The query sees the view exactly as it would see a wrapped source: a
/// virtual document whose root element is the view's answer element.
///
/// ```
/// use mix_algebra::{compose, translate};
/// use mix_xmas::parse_query;
///
/// let view = translate(&parse_query(
///     "CONSTRUCT <zips> $Z {$Z} </zips> {} \
///      WHERE homesSrc homes.home $H AND $H zip._ $Z").unwrap()).unwrap();
/// let query = translate(&parse_query(
///     "CONSTRUCT <out> $Z {$Z} </out> {} WHERE zipview zips._ $Z").unwrap()).unwrap();
///
/// let composed = compose(&query, "zipview", &view).unwrap();
/// // The view source is folded away; only the base source remains.
/// assert_eq!(composed.source_names(), vec!["homesSrc".to_string()]);
/// ```
pub fn compose(query: &Plan, view_name: &str, view: &Plan) -> Result<Plan, AlgebraError> {
    query.validate()?;
    view.validate()?;
    let PlanNode::TupleDestroy { input: v_input, var: v_var } = view.node(view.root()) else {
        return Err(AlgebraError::new("the view plan must end in tupleDestroy"));
    };
    if !query.source_names().iter().any(|n| n == view_name) {
        return Err(AlgebraError::new(format!(
            "the query does not read a source named `{view_name}`"
        )));
    }

    let mut out = Plan::new();

    // ---- copy the view body (α-renamed), once ---------------------------
    let rename = |v: &Var| Var::new(format!("{view_name}::{}", v.name()));
    let mut view_map: HashMap<PlanId, PlanId> = HashMap::new();
    for i in 0..view.len() {
        let id = PlanId::from_index(i);
        if id == view.root() {
            continue; // drop the tupleDestroy
        }
        let node = rename_node(remap_inputs(view.node(id).clone(), &view_map), &rename);
        view_map.insert(id, out.add(node));
    }
    let spliced_input = *view_map
        .get(v_input)
        .ok_or_else(|| AlgebraError::new("view root input not copied"))?;
    let answer_var = rename(v_var);

    // ---- rebuild the document node above the answer element -------------
    let l_var = Var::new(format!("{view_name}::#L"));
    let wrapped = out.add(PlanNode::Wrap {
        input: spliced_input,
        var: answer_var,
        out: l_var.clone(),
    });
    let d_var = Var::new(format!("{view_name}::#doc"));
    let doc = out.add(PlanNode::CreateElement {
        input: wrapped,
        label: LabelSpec::Const(mix_xml::DOC_LABEL.to_string()),
        ch: l_var,
        out: d_var.clone(),
    });
    let view_doc = out.add(PlanNode::Project { input: doc, keep: vec![d_var.clone()] });

    // ---- copy the query, redirecting view sources ----------------------
    let mut query_map: HashMap<PlanId, PlanId> = HashMap::new();
    let mut var_subst: HashMap<Var, Var> = HashMap::new();
    for i in 0..query.len() {
        let id = PlanId::from_index(i);
        let node = query.node(id).clone();
        let new_id = match &node {
            PlanNode::Source { name, out: src_out } if name == view_name => {
                // The query's handle to the view document is the projected
                // #doc variable.
                var_subst.insert(src_out.clone(), d_var.clone());
                view_doc
            }
            _ => {
                let node = rename_node(remap_inputs(node, &query_map), &|v| {
                    var_subst.get(v).cloned().unwrap_or_else(|| v.clone())
                });
                out.add(node)
            }
        };
        query_map.insert(id, new_id);
    }
    let new_root = *query_map
        .get(&query.root())
        .ok_or_else(|| AlgebraError::new("query root not copied"))?;
    out.set_root(new_root);
    out.validate()?;
    Ok(out)
}

fn remap_inputs(node: PlanNode, map: &HashMap<PlanId, PlanId>) -> PlanNode {
    let m = |id: PlanId| *map.get(&id).expect("inputs precede consumers in the arena");
    match node {
        PlanNode::Source { .. } => node,
        PlanNode::GetDescendants { input, parent, path, out } => {
            PlanNode::GetDescendants { input: m(input), parent, path, out }
        }
        PlanNode::Select { input, pred } => PlanNode::Select { input: m(input), pred },
        PlanNode::Join { left, right, pred } => {
            PlanNode::Join { left: m(left), right: m(right), pred }
        }
        PlanNode::Cross { left, right } => PlanNode::Cross { left: m(left), right: m(right) },
        PlanNode::Union { left, right } => PlanNode::Union { left: m(left), right: m(right) },
        PlanNode::Difference { left, right } => {
            PlanNode::Difference { left: m(left), right: m(right) }
        }
        PlanNode::Project { input, keep } => PlanNode::Project { input: m(input), keep },
        PlanNode::GroupBy { input, group, items } => {
            PlanNode::GroupBy { input: m(input), group, items }
        }
        PlanNode::Concatenate { input, x, y, out } => {
            PlanNode::Concatenate { input: m(input), x, y, out }
        }
        PlanNode::CreateElement { input, label, ch, out } => {
            PlanNode::CreateElement { input: m(input), label, ch, out }
        }
        PlanNode::Constant { input, value, out } => {
            PlanNode::Constant { input: m(input), value, out }
        }
        PlanNode::Wrap { input, var, out } => PlanNode::Wrap { input: m(input), var, out },
        PlanNode::OrderBy { input, keys } => PlanNode::OrderBy { input: m(input), keys },
        PlanNode::TupleDestroy { input, var } => {
            PlanNode::TupleDestroy { input: m(input), var }
        }
    }
}

fn rename_node(node: PlanNode, f: &impl Fn(&Var) -> Var) -> PlanNode {
    let fv = |v: Var| f(&v);
    match node {
        PlanNode::Source { name, out } => PlanNode::Source { name, out: fv(out) },
        PlanNode::GetDescendants { input, parent, path, out } => PlanNode::GetDescendants {
            input,
            parent: fv(parent),
            path,
            out: fv(out),
        },
        PlanNode::Select { input, pred } => {
            PlanNode::Select { input, pred: rename_pred(pred, f) }
        }
        PlanNode::Join { left, right, pred } => {
            PlanNode::Join { left, right, pred: rename_pred(pred, f) }
        }
        PlanNode::Cross { .. } | PlanNode::Union { .. } | PlanNode::Difference { .. } => node,
        PlanNode::Project { input, keep } => {
            PlanNode::Project { input, keep: keep.into_iter().map(fv).collect() }
        }
        PlanNode::GroupBy { input, group, items } => PlanNode::GroupBy {
            input,
            group: group.into_iter().map(fv).collect(),
            items: items
                .into_iter()
                .map(|i| GroupItem { value: f(&i.value), out: f(&i.out) })
                .collect(),
        },
        PlanNode::Concatenate { input, x, y, out } => {
            PlanNode::Concatenate { input, x: fv(x), y: fv(y), out: fv(out) }
        }
        PlanNode::CreateElement { input, label, ch, out } => PlanNode::CreateElement {
            input,
            label: match label {
                LabelSpec::Var(v) => LabelSpec::Var(f(&v)),
                c => c,
            },
            ch: fv(ch),
            out: fv(out),
        },
        PlanNode::Constant { input, value, out } => {
            PlanNode::Constant { input, value, out: fv(out) }
        }
        PlanNode::Wrap { input, var, out } => {
            PlanNode::Wrap { input, var: fv(var), out: fv(out) }
        }
        PlanNode::OrderBy { input, keys } => {
            PlanNode::OrderBy { input, keys: keys.into_iter().map(fv).collect() }
        }
        PlanNode::TupleDestroy { input, var } => {
            PlanNode::TupleDestroy { input, var: fv(var) }
        }
    }
}

fn rename_pred(pred: BindPred, f: &impl Fn(&Var) -> Var) -> BindPred {
    match pred {
        BindPred::True => BindPred::True,
        BindPred::Cmp { left, op, right } => BindPred::Cmp {
            left: rename_operand(left, f),
            op,
            right: rename_operand(right, f),
        },
        BindPred::And(a, b) => BindPred::And(
            Box::new(rename_pred(*a, f)),
            Box::new(rename_pred(*b, f)),
        ),
        BindPred::Or(a, b) => BindPred::Or(
            Box::new(rename_pred(*a, f)),
            Box::new(rename_pred(*b, f)),
        ),
        BindPred::Not(p) => BindPred::Not(Box::new(rename_pred(*p, f))),
    }
}

fn rename_operand(op: PredOperand, f: &impl Fn(&Var) -> Var) -> PredOperand {
    match op {
        PredOperand::Var(v) => PredOperand::Var(f(&v)),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use mix_xmas::parse_query;

    fn fig3_view() -> Plan {
        translate(
            &parse_query(
                "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {} \
                 WHERE homesSrc homes.home $H AND $H zip._ $V1 \
                   AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2",
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn composed_plan_reads_only_base_sources() {
        let view = fig3_view();
        let query = translate(
            &parse_query(
                "CONSTRUCT <zips> $Z {$Z} </zips> {} \
                 WHERE medview answer.med_home.home.zip._ $Z",
            )
            .unwrap(),
        )
        .unwrap();
        let composed = compose(&query, "medview", &view).unwrap();
        composed.validate().unwrap();
        let mut names = composed.source_names();
        names.sort();
        assert_eq!(names, ["homesSrc", "schoolsSrc"], "the view source is gone");
    }

    #[test]
    fn composition_requires_the_view_to_be_read() {
        let view = fig3_view();
        let query = translate(
            &parse_query("CONSTRUCT <r> $X {$X} </r> {} WHERE other a.b $X").unwrap(),
        )
        .unwrap();
        let err = compose(&query, "medview", &view).unwrap_err();
        assert!(err.message.contains("medview"), "{err}");
    }

    #[test]
    fn double_view_reads_are_rejected_with_a_schema_error() {
        // Reading the view twice would alias the spliced body's variables;
        // validation rejects the composed plan instead of mis-executing.
        let view = fig3_view();
        let query = translate(
            &parse_query(
                "CONSTRUCT <pairs> <p> $A $B {$B} </p> {$A} </pairs> {}                  WHERE medview answer.med_home $A AND medview answer.med_home $B                    AND $A = $B",
            )
            .unwrap(),
        )
        .unwrap();
        assert!(compose(&query, "medview", &view).is_err());
    }

    #[test]
    fn variables_are_alpha_renamed() {
        // Both view and query use $H — composition must keep them apart.
        let view = fig3_view();
        let query = translate(
            &parse_query(
                "CONSTRUCT <homes2> $H {$H} </homes2> {} \
                 WHERE medview answer.med_home.home $H",
            )
            .unwrap(),
        )
        .unwrap();
        let composed = compose(&query, "medview", &view).unwrap();
        composed.validate().unwrap();
        let text = composed.to_string();
        assert!(text.contains("medview::H"), "view's $H renamed:\n{text}");
        assert!(text.contains("-> $H"), "query's $H survives:\n{text}");
    }
}
