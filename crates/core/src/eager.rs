//! The eager (fully materializing) evaluator.
//!
//! "Current mediator systems, even those based on the virtual approach,
//! compute and return the results of the user query completely" (§1) —
//! this module is that baseline: it pulls every source entirely, evaluates
//! each operator bottom-up over materialized binding lists, and returns
//! the complete answer tree. It doubles as the differential-testing oracle
//! for the lazy engine: fully navigating the lazy engine must produce
//! exactly this tree.
//!
//! A join whose predicate is a single `=` between one variable of each
//! input is keyed, as a materializing mediator would evaluate it: the right
//! input is bucketed by [`eq_key`] and probed once per left binding. Every
//! other join tests each pair without copying it. Either way the output is
//! left-major with the right side in input order, and every source is
//! still pulled whole.

use crate::registry::SourceRegistry;
use crate::EngineError;
use mix_algebra::pred::{eq_key, value_ord, BindPred};
use mix_algebra::{Plan, PlanId, PlanNode};
use mix_nav::explore::materialize;
use mix_xmas::{LabelSpec, Nfa, Var};
use mix_xml::{Label, Tree};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One variable binding: `(var, value)` pairs in schema order.
pub type EagerBinding = Vec<(Var, Arc<Tree>)>;

/// Evaluate a plan eagerly against the registered sources; returns the
/// answer document.
pub fn eval(plan: &Plan, registry: &SourceRegistry) -> Result<Tree, EngineError> {
    plan.validate().map_err(|e| EngineError::new(e.message))?;
    let mut ev = Eager { plan, registry, sources: HashMap::new() };
    let root = plan.root();
    match plan.node(root) {
        PlanNode::TupleDestroy { input, var } => {
            let bs = ev.bindings(*input)?;
            let mut first = bs.into_iter().next().ok_or_else(|| {
                EngineError::new("the query produced no answer document (empty binding list)")
            })?;
            let at = first.iter().position(|(v, _)| v == var).ok_or_else(|| {
                EngineError::new(format!("tupleDestroy: variable {var} is not bound"))
            })?;
            // Moved out, not copied, when nothing else holds the answer.
            let (_, val) = first.swap_remove(at);
            Ok(Arc::unwrap_or_clone(val))
        }
        _ => Err(EngineError::new("the plan root must be tupleDestroy")),
    }
}

/// Evaluate the binding list of any operator (exposed for tests and
/// experiments over binding-level plans).
pub fn eval_bindings(
    plan: &Plan,
    op: PlanId,
    registry: &SourceRegistry,
) -> Result<Vec<EagerBinding>, EngineError> {
    let mut ev = Eager { plan, registry, sources: HashMap::new() };
    ev.bindings(op)
}

struct Eager<'a> {
    plan: &'a Plan,
    registry: &'a SourceRegistry,
    /// Materialized source documents, one pull per source name.
    sources: HashMap<String, Arc<Tree>>,
}

fn find<'b>(b: &'b EagerBinding, var: &Var) -> Option<&'b Tree> {
    b.iter().find(|(v, _)| v == var).map(|(_, t)| &**t)
}

fn lookup<'b>(b: &'b EagerBinding, var: &Var) -> &'b Arc<Tree> {
    &b.iter().find(|(v, _)| v == var).expect("validated plans bind every used variable").1
}

/// A join or cross product's output binding: `l`'s pairs, then `r`'s.
fn pair(l: &EagerBinding, r: &EagerBinding) -> EagerBinding {
    let mut out = Vec::with_capacity(l.len() + r.len());
    out.extend(l.iter().cloned());
    out.extend(r.iter().cloned());
    out
}

impl Eager<'_> {
    fn source_tree(&mut self, name: &str) -> Result<Arc<Tree>, EngineError> {
        if let Some(t) = self.sources.get(name) {
            return Ok(t.clone());
        }
        let shared = self.registry.resolve(name)?;
        // Wrap the root element in the virtual document node so paths
        // consume the root element's label as their first step.
        let root = materialize(&mut **mix_buffer::lock_unpoisoned(&shared.nav));
        let tree = Arc::new(Tree::node(crate::values::DOC_LABEL, vec![root]));
        self.sources.insert(name.to_string(), tree.clone());
        Ok(tree)
    }

    fn bindings(&mut self, op: PlanId) -> Result<Vec<EagerBinding>, EngineError> {
        Ok(match self.plan.node(op) {
            PlanNode::Source { name, out } => {
                let tree = self.source_tree(name)?;
                vec![vec![(out.clone(), tree)]]
            }
            PlanNode::GetDescendants { input, parent, path, out } => {
                let input = self.bindings(*input)?;
                let nfa = Nfa::compile(path);
                let mut result = Vec::new();
                for b in input {
                    let e = lookup(&b, parent).clone();
                    for d in matches_in(&nfa, &e) {
                        let mut nb = b.clone();
                        nb.push((out.clone(), d));
                        result.push(nb);
                    }
                }
                result
            }
            PlanNode::Select { input, pred } => {
                let input = self.bindings(*input)?;
                input.into_iter().filter(|b| eval_pred(pred, b)).collect()
            }
            PlanNode::Join { left, right, pred } => {
                let ls = self.bindings(*left)?;
                let rs = self.bindings(*right)?;
                let (in_left, in_right) = (self.plan.schema(*left), self.plan.schema(*right));
                let mut out = Vec::new();
                match pred.eq_join_keys(|v| in_left.contains(v), |v| in_right.contains(v)) {
                    // Keyed: bucket the right input by key (each bucket in
                    // input order) and probe it once per left binding.
                    Some((lk, rk)) => {
                        let mut buckets: HashMap<String, Vec<&EagerBinding>> = HashMap::new();
                        for r in &rs {
                            buckets.entry(eq_key(lookup(r, rk))).or_default().push(r);
                        }
                        for l in &ls {
                            if let Some(hits) = buckets.get(&eq_key(lookup(l, lk))) {
                                out.extend(hits.iter().map(|r| pair(l, r)));
                            }
                        }
                    }
                    // Any other predicate sees the pair through a borrowed
                    // view, left then right; only a match is copied.
                    None => {
                        for l in &ls {
                            for r in &rs {
                                if pred.eval(&|v: &Var| find(l, v).or_else(|| find(r, v))) {
                                    out.push(pair(l, r));
                                }
                            }
                        }
                    }
                }
                out
            }
            PlanNode::Cross { left, right } => {
                let ls = self.bindings(*left)?;
                let rs = self.bindings(*right)?;
                ls.iter().flat_map(|l| rs.iter().map(move |r| pair(l, r))).collect()
            }
            PlanNode::Union { left, right } => {
                let mut ls = self.bindings(*left)?;
                ls.extend(self.bindings(*right)?);
                ls
            }
            PlanNode::Difference { left, right } => {
                let schema = self.plan.schema(*left);
                let ls = self.bindings(*left)?;
                let rs = self.bindings(*right)?;
                let keys: HashSet<String> =
                    rs.iter().map(|b| binding_key(b, &schema)).collect();
                ls.into_iter().filter(|b| !keys.contains(&binding_key(b, &schema))).collect()
            }
            PlanNode::Project { input, keep } => {
                let input = self.bindings(*input)?;
                input
                    .into_iter()
                    .map(|b| b.into_iter().filter(|(v, _)| keep.contains(v)).collect())
                    .collect()
            }
            PlanNode::GroupBy { input, group, items } => {
                let input = self.bindings(*input)?;
                // Groups in first-occurrence order; members in input order.
                let mut order: Vec<String> = Vec::new();
                let mut groups: HashMap<String, Vec<EagerBinding>> = HashMap::new();
                for b in input {
                    let key = binding_key(&b, group);
                    if !groups.contains_key(&key) {
                        order.push(key.clone());
                    }
                    groups.entry(key).or_default().push(b);
                }
                if group.is_empty() && order.is_empty() {
                    // `groupBy {}` over empty input: one group with empty
                    // lists (keeps the answer root alive) — matches the
                    // lazy engine.
                    let mut nb: EagerBinding = Vec::new();
                    for item in items {
                        nb.push((item.out.clone(), Arc::new(Tree::leaf(Label::list()))));
                    }
                    return Ok(vec![nb]);
                }
                let mut out = Vec::new();
                for key in order {
                    let members = groups.remove(&key).unwrap_or_default();
                    let Some(first) = members.first() else { continue };
                    let mut nb: EagerBinding =
                        group.iter().map(|g| (g.clone(), lookup(first, g).clone())).collect();
                    let mut colls: Vec<Vec<Tree>> =
                        items.iter().map(|_| Vec::with_capacity(members.len())).collect();
                    // The members end here: a value no other binding holds
                    // is moved into its list, not copied.
                    for m in members {
                        let vals: Vec<Arc<Tree>> =
                            items.iter().map(|item| lookup(&m, &item.value).clone()).collect();
                        drop(m);
                        for (coll, v) in colls.iter_mut().zip(vals) {
                            coll.push(Arc::unwrap_or_clone(v));
                        }
                    }
                    for (item, coll) in items.iter().zip(colls) {
                        nb.push((item.out.clone(), Arc::new(Tree::node(Label::list(), coll))));
                    }
                    out.push(nb);
                }
                out
            }
            PlanNode::Concatenate { input, x, y, out } => {
                let input = self.bindings(*input)?;
                input
                    .into_iter()
                    .map(|mut b| {
                        let xv = lookup(&b, x).clone();
                        let yv = lookup(&b, y).clone();
                        let conc = concat_values(&xv, &yv);
                        b.push((out.clone(), Arc::new(conc)));
                        b
                    })
                    .collect()
            }
            PlanNode::CreateElement { input, label, ch, out } => {
                let input = self.bindings(*input)?;
                input
                    .into_iter()
                    .map(|mut b| {
                        let l = match label {
                            // Query vocabulary: interned (one allocation,
                            // symbol compares) — see the lazy engine.
                            LabelSpec::Const(s) => Label::intern(s),
                            LabelSpec::Var(v) => {
                                let t = lookup(&b, v);
                                if t.is_leaf() {
                                    t.label().clone()
                                } else {
                                    Label::new(t.text())
                                }
                            }
                        };
                        let chv = lookup(&b, ch).clone();
                        let elem = Tree::node(l, chv.children().to_vec());
                        b.push((out.clone(), Arc::new(elem)));
                        b
                    })
                    .collect()
            }
            PlanNode::Constant { input, value, out } => {
                let input = self.bindings(*input)?;
                let value = Arc::new(value.clone());
                input
                    .into_iter()
                    .map(|mut b| {
                        b.push((out.clone(), value.clone()));
                        b
                    })
                    .collect()
            }
            PlanNode::Wrap { input, var, out } => {
                let input = self.bindings(*input)?;
                input
                    .into_iter()
                    .map(|mut b| {
                        let v = lookup(&b, var).clone();
                        let wrapped = if v.label() == &Label::list() {
                            v
                        } else {
                            Arc::new(Tree::node(Label::list(), vec![(*v).clone()]))
                        };
                        b.push((out.clone(), wrapped));
                        b
                    })
                    .collect()
            }
            PlanNode::OrderBy { input, keys } => {
                let mut input = self.bindings(*input)?;
                input.sort_by(|a, b| {
                    for k in keys {
                        let ord = value_ord(lookup(a, k), lookup(b, k));
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                input
            }
            PlanNode::TupleDestroy { .. } => {
                return Err(EngineError::new(
                    "tupleDestroy exports a document, not bindings",
                ))
            }
        })
    }
}

/// All descendants of `e` whose root-to-node path matches the automaton,
/// in pre-order; includes `e` itself when the path accepts ε (the same
/// zero-step semantics as the lazy cursor).
fn matches_in(nfa: &Nfa, e: &Arc<Tree>) -> Vec<Arc<Tree>> {
    fn go(nfa: &Nfa, node: &Tree, states: &mix_xmas::StateSet, out: &mut Vec<Arc<Tree>>) {
        for child in node.children() {
            let next = nfa.step(states, child.label());
            if next.is_empty() {
                continue;
            }
            if nfa.is_accepting(&next) {
                out.push(Arc::new(child.clone()));
            }
            if nfa.can_continue(&next) {
                go(nfa, child, &next, out);
            }
        }
    }
    let mut out = Vec::new();
    let start = nfa.start_set();
    if nfa.is_accepting(&start) {
        out.push(e.clone());
    }
    go(nfa, e, &start, &mut out);
    out
}

fn eval_pred(pred: &BindPred, b: &EagerBinding) -> bool {
    pred.eval(&|v: &Var| find(b, v))
}

fn binding_key(b: &EagerBinding, vars: &[Var]) -> String {
    let mut key = String::new();
    for v in vars {
        lookup(b, v).canonical_into(&mut key);
        key.push('\u{1f}');
    }
    key
}

/// The `concatenate` value rules of §3.
fn concat_values(x: &Tree, y: &Tree) -> Tree {
    let list = Label::list();
    let mut items: Vec<Tree> = Vec::new();
    if x.label() == &list {
        items.extend(x.children().iter().cloned());
    } else {
        items.push(x.clone());
    }
    if y.label() == &list {
        items.extend(y.children().iter().cloned());
    } else {
        items.push(y.clone());
    }
    Tree::node(list, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_algebra::{translate, PredOperand};
    use mix_nav::pred::CmpOp;
    use mix_xmas::parse_query;

    fn registry() -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        reg.add_term(
            "homesSrc",
            "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]]]",
        );
        reg.add_term(
            "schoolsSrc",
            "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],\
             school[dir[Hart],zip[91223]]]",
        );
        reg
    }

    const FIG3: &str = r#"
        CONSTRUCT <answer>
                    <med_home> $H $S {$S} </med_home> {$H}
                  </answer> {}
        WHERE homesSrc homes.home $H AND $H zip._ $V1
          AND schoolsSrc schools.school $S AND $S zip._ $V2
          AND $V1 = $V2
    "#;

    #[test]
    fn running_example_matches_the_paper() {
        // The data is Example 8's: La Jolla home with Smith & Bar schools,
        // El Cajon home with Hart school.
        let plan = translate(&parse_query(FIG3).unwrap()).unwrap();
        let answer = eval(&plan, &registry()).unwrap();
        assert_eq!(
            answer.to_string(),
            "answer[\
               med_home[home[addr[La Jolla],zip[91220]],\
                        school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]]],\
               med_home[home[addr[El Cajon],zip[91223]],\
                        school[dir[Hart],zip[91223]]]]"
        );
    }

    #[test]
    fn selection_with_literal() {
        let q = parse_query(
            r#"CONSTRUCT <hits> $H {$H} </hits> {}
               WHERE homesSrc homes.home $H AND $H addr._ $A AND $A = "La Jolla""#,
        )
        .unwrap();
        let plan = translate(&q).unwrap();
        let answer = eval(&plan, &registry()).unwrap();
        assert_eq!(answer.to_string(), "hits[home[addr[La Jolla],zip[91220]]]");
    }

    #[test]
    fn empty_result_keeps_root() {
        let q = parse_query(
            r#"CONSTRUCT <hits> $H {$H} </hits> {}
               WHERE homesSrc homes.home $H AND $H addr._ $A AND $A = "Nowhere""#,
        )
        .unwrap();
        let plan = translate(&q).unwrap();
        let answer = eval(&plan, &registry()).unwrap();
        assert_eq!(answer.to_string(), "hits");
    }

    #[test]
    fn recursive_path_matches_all_depths() {
        let mut reg = SourceRegistry::new();
        reg.add_term("cat", "catalog[part[name[p1],part[name[p2],part[name[p3]]]]]");
        let q = parse_query(
            "CONSTRUCT <names> $N {$N} </names> {} WHERE cat catalog.part*.name $N",
        )
        .unwrap();
        let plan = translate(&q).unwrap();
        let answer = eval(&plan, &reg).unwrap();
        // All part names at any depth, pre-order. Note the path starts at
        // the catalog root's children, so the leading `part` of each match
        // chain is consumed by `part*` and `name` may also match directly.
        assert_eq!(answer.to_string(), "names[name[p1],name[p2],name[p3]]");
    }

    #[test]
    fn group_by_collects_in_input_order() {
        // Example 8's groupBy behavior: members keep input order.
        let mut reg = SourceRegistry::new();
        reg.add_term(
            "pairs",
            "ps[p[k[1],v[a]],p[k[2],v[b]],p[k[1],v[c]]]",
        );
        let q = parse_query(
            "CONSTRUCT <out> <g> $K $V {$V} </g> {$K} </out> {} \
             WHERE pairs ps.p $P AND $P k._ $K AND $P v._ $V",
        )
        .unwrap();
        let plan = translate(&q).unwrap();
        let answer = eval(&plan, &reg).unwrap();
        assert_eq!(answer.to_string(), "out[g[1,a,c],g[2,b]]");
    }

    /// Left and right inputs whose `k` contents are `=` under each of
    /// `value_cmp`'s rules, plus near misses (`0`-padded overflow, a
    /// trailing space), with `n` numbering the items.
    /// Binds `$V`/`$A` on the left and `$W`/`$B` on the right.
    fn keyed_inputs(plan: &mut Plan) -> (PlanId, PlanId) {
        use mix_xmas::parse_path;
        let side = |plan: &mut Plan, src: &str, root: &str, [item, k, n]: [&str; 3]| {
            let doc = plan.add(PlanNode::Source { name: src.into(), out: Var::new(root) });
            let item_op = plan.add(PlanNode::GetDescendants {
                input: doc,
                parent: Var::new(root),
                path: parse_path(&format!("{src}.i")).unwrap(),
                out: Var::new(item),
            });
            let k_op = plan.add(PlanNode::GetDescendants {
                input: item_op,
                parent: Var::new(item),
                path: parse_path("k._").unwrap(),
                out: Var::new(k),
            });
            plan.add(PlanNode::GetDescendants {
                input: k_op,
                parent: Var::new(item),
                path: parse_path("n._").unwrap(),
                out: Var::new(n),
            })
        };
        (side(plan, "l", "L", ["I", "V", "A"]), side(plan, "r", "R", ["J", "W", "B"]))
    }

    fn keyed_registry() -> SourceRegistry {
        let pq = || Tree::node("p", vec![Tree::node("x", vec![Tree::leaf("a")]), Tree::leaf("b")]);
        let items = |root: &str, keys: Vec<Tree>| {
            let items = keys
                .into_iter()
                .enumerate()
                .map(|(n, k)| {
                    let n = Tree::node("n", vec![Tree::leaf(n.to_string())]);
                    Tree::node("i", vec![Tree::node("k", vec![k]), n])
                })
                .collect();
            Tree::node(root, items)
        };
        let big = "9223372036854775808";
        let left = vec![
            Tree::leaf(" 7"),
            Tree::node("zip", vec![Tree::leaf("91220")]),
            Tree::leaf("La Jolla"),
            pq(),
            Tree::leaf(big),
            Tree::leaf("7"),
            // Equal to its own `n`, for the one-sided `$V = $A`.
            Tree::leaf("6"),
        ];
        let right = vec![
            Tree::leaf("91220"),
            Tree::leaf("7"),
            Tree::leaf(format!("0{big}")),
            pq(),
            Tree::leaf("La Jolla"),
            Tree::leaf("+7"),
            Tree::leaf(big),
            Tree::leaf("La Jolla "),
        ];
        let mut reg = SourceRegistry::new();
        reg.add_tree("l", &items("l", left)).add_tree("r", &items("r", right));
        reg
    }

    /// `Join` against `Select` over `Cross` of the same predicate: the same
    /// bindings in the same order. Returns the join's binding count.
    fn join_matches_cross_select(pred: BindPred) -> usize {
        let reg = keyed_registry();
        let mut plan = Plan::new();
        let (l, r) = keyed_inputs(&mut plan);
        let join = plan.add(PlanNode::Join { left: l, right: r, pred: pred.clone() });
        let cross = plan.add(PlanNode::Cross { left: l, right: r });
        let select = plan.add(PlanNode::Select { input: cross, pred: pred.clone() });
        let joined = eval_bindings(&plan, join, &reg).unwrap();
        let nested = eval_bindings(&plan, select, &reg).unwrap();
        assert_eq!(joined, nested, "{pred}");
        joined.len()
    }

    fn cmp(a: &str, op: CmpOp, b: &str) -> BindPred {
        BindPred::Cmp {
            left: PredOperand::Var(Var::new(a)),
            op,
            right: PredOperand::Var(Var::new(b)),
        }
    }

    #[test]
    fn keyed_join_equals_nested_loop() {
        let mut plan = Plan::new();
        let (l, r) = keyed_inputs(&mut plan);
        let (ls, rs) = (plan.schema(l), plan.schema(r));
        let keyed = |p: &BindPred| p.eq_join_keys(|v| ls.contains(v), |v| rs.contains(v)).is_some();
        for pred in [BindPred::var_eq("V", "W"), BindPred::var_eq("W", "V")] {
            assert!(keyed(&pred), "{pred} is keyed");
            // ` 7` and `7` each meet `7` and `+7`; `zip[91220]` meets
            // `91220`; text, the tree and the i64 overflow meet their twins.
            assert_eq!(join_matches_cross_select(pred), 2 * 2 + 1 + 1 + 1 + 1);
        }
        let unkeyed = [
            cmp("V", CmpOp::Lt, "W"),
            BindPred::var_eq("V", "W").and(cmp("A", CmpOp::Lt, "B")),
            BindPred::var_eq("V", "A"),
        ];
        for pred in unkeyed {
            assert!(!keyed(&pred), "{pred} is not keyed");
            assert!(join_matches_cross_select(pred) > 0);
        }
    }

    #[test]
    fn binding_level_eval() {
        let plan = translate(&parse_query(FIG3).unwrap()).unwrap();
        // The join feeding the head has 3 bindings (2 + 1 school matches).
        let join = plan
            .reachable()
            .into_iter()
            .find(|&id| plan.node(id).op_name() == "join")
            .unwrap();
        let bs = eval_bindings(&plan, join, &registry()).unwrap();
        assert_eq!(bs.len(), 3);
    }
}
