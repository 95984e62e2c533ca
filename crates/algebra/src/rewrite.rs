//! Plan rewriting for navigational efficiency.
//!
//! "During the rewriting phase, the initial plan is rewritten into a plan
//! Eq′ which is optimized with respect to navigational complexity. Due to
//! space limitations we do not present rewriting rules." (§3). This module
//! implements a conservative, semantics-preserving instance of that phase:
//!
//! 1. **cross-to-join** — a `select` whose predicate spans both inputs of a
//!    `cross` becomes the predicate of a `join`;
//! 2. **selection pushdown** — `select` moves below operators that do not
//!    bind the predicate's variables (towards the sources, so
//!    non-qualifying bindings are never navigated upwards);
//! 3. **getDescendants pushdown** — a `getDescendants` whose parent
//!    variable comes from one side of a `join`/`cross` moves below it into
//!    that side, so path matching happens before pairs are formed (and
//!    selections on the extracted variable can follow it down);
//! 4. **join outer-input choice** — the more browsable input of a `join`
//!    becomes the outer (lazily consumed) side, since the inner side is
//!    rescanned (and cached) per outer binding.
//!
//! Every rule preserves the *multiset* of bindings produced. Binding
//! order is preserved by rules 1–2; rules 3–4 may interleave pairs
//! differently (rule 3 only when the path matches more than one node per
//! binding), which the order-aware client observes as a permuted answer —
//! the same latitude the paper's own "intermediate eager steps" take.
//! Experiment E9 measures the navigation savings.

use crate::browsability::{classify_op, Browsability, NcCapabilities};
use crate::plan::{Plan, PlanId, PlanNode};
use mix_xmas::Var;

/// Statistics about one rewrite run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// `select(cross)` pairs fused into joins.
    pub cross_to_join: usize,
    /// Selection pushdowns applied.
    pub select_pushdowns: usize,
    /// getDescendants pushdowns applied.
    pub gd_pushdowns: usize,
    /// Join input swaps applied.
    pub join_swaps: usize,
}

impl RewriteStats {
    /// Total rewrites applied.
    pub fn total(&self) -> usize {
        self.cross_to_join + self.select_pushdowns + self.gd_pushdowns + self.join_swaps
    }
}

/// Rewrite a plan in place; returns what was done.
pub fn rewrite(plan: &mut Plan, nc: NcCapabilities) -> RewriteStats {
    let mut stats = RewriteStats::default();
    // Fixpoint iteration with a generous safety bound: each rule strictly
    // reduces a measure (selects move down, crosses disappear, swaps apply
    // at most once per join thanks to the strict comparison).
    for _ in 0..128 {
        let changed = apply_cross_to_join(plan, &mut stats)
            | apply_select_pushdown(plan, &mut stats)
            | apply_gd_pushdown(plan, &mut stats)
            | apply_join_swap(plan, nc, &mut stats);
        if !changed {
            break;
        }
    }
    debug_assert!(plan.validate().is_ok(), "rewrite broke the plan");
    stats
}

fn vars_subset(vars: &[Var], schema: &[Var]) -> bool {
    vars.iter().all(|v| schema.contains(v))
}

fn apply_cross_to_join(plan: &mut Plan, stats: &mut RewriteStats) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        let PlanNode::Select { input, pred } = plan.node(id).clone() else { continue };
        let PlanNode::Cross { left, right } = plan.node(input).clone() else { continue };
        let lv = plan.schema(left);
        let rv = plan.schema(right);
        let pv = pred.vars();
        // Spans both sides (pure one-side predicates are handled by the
        // pushdown rule instead).
        if !vars_subset(&pv, &lv) && !vars_subset(&pv, &rv) {
            *plan.node_mut(id) = PlanNode::Join { left, right, pred };
            stats.cross_to_join += 1;
            changed = true;
        }
    }
    changed
}

fn apply_select_pushdown(plan: &mut Plan, stats: &mut RewriteStats) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        let PlanNode::Select { input, pred } = plan.node(id).clone() else { continue };
        let pv = pred.vars();
        let below = plan.node(input).clone();
        match below {
            // Push below unary operators that bind a variable the
            // predicate does not use.
            PlanNode::GetDescendants { input: x, parent, path, out } if !pv.contains(&out) => {
                let sel = plan.add(PlanNode::Select { input: x, pred });
                *plan.node_mut(id) =
                    PlanNode::GetDescendants { input: sel, parent, path, out };
                stats.select_pushdowns += 1;
                changed = true;
            }
            PlanNode::Concatenate { input: x, x: cx, y: cy, out } if !pv.contains(&out) => {
                let sel = plan.add(PlanNode::Select { input: x, pred });
                *plan.node_mut(id) = PlanNode::Concatenate { input: sel, x: cx, y: cy, out };
                stats.select_pushdowns += 1;
                changed = true;
            }
            PlanNode::CreateElement { input: x, label, ch, out } if !pv.contains(&out) => {
                let sel = plan.add(PlanNode::Select { input: x, pred });
                *plan.node_mut(id) = PlanNode::CreateElement { input: sel, label, ch, out };
                stats.select_pushdowns += 1;
                changed = true;
            }
            PlanNode::Constant { input: x, value, out } if !pv.contains(&out) => {
                let sel = plan.add(PlanNode::Select { input: x, pred });
                *plan.node_mut(id) = PlanNode::Constant { input: sel, value, out };
                stats.select_pushdowns += 1;
                changed = true;
            }
            PlanNode::Wrap { input: x, var, out } if !pv.contains(&out) => {
                let sel = plan.add(PlanNode::Select { input: x, pred });
                *plan.node_mut(id) = PlanNode::Wrap { input: sel, var, out };
                stats.select_pushdowns += 1;
                changed = true;
            }
            // Selection and ordering commute.
            PlanNode::OrderBy { input: x, keys } => {
                let sel = plan.add(PlanNode::Select { input: x, pred });
                *plan.node_mut(id) = PlanNode::OrderBy { input: sel, keys };
                stats.select_pushdowns += 1;
                changed = true;
            }
            // Push into the side(s) of binary operators that bind all
            // predicate variables.
            PlanNode::Join { left, right, pred: jp } => {
                if vars_subset(&pv, &plan.schema(left)) {
                    let sel = plan.add(PlanNode::Select { input: left, pred });
                    *plan.node_mut(id) = PlanNode::Join { left: sel, right, pred: jp };
                    stats.select_pushdowns += 1;
                    changed = true;
                } else if vars_subset(&pv, &plan.schema(right)) {
                    let sel = plan.add(PlanNode::Select { input: right, pred });
                    *plan.node_mut(id) = PlanNode::Join { left, right: sel, pred: jp };
                    stats.select_pushdowns += 1;
                    changed = true;
                }
            }
            PlanNode::Cross { left, right } => {
                if vars_subset(&pv, &plan.schema(left)) {
                    let sel = plan.add(PlanNode::Select { input: left, pred });
                    *plan.node_mut(id) = PlanNode::Cross { left: sel, right };
                    stats.select_pushdowns += 1;
                    changed = true;
                } else if vars_subset(&pv, &plan.schema(right)) {
                    let sel = plan.add(PlanNode::Select { input: right, pred });
                    *plan.node_mut(id) = PlanNode::Cross { left, right: sel };
                    stats.select_pushdowns += 1;
                    changed = true;
                }
            }
            // Selection distributes over union.
            PlanNode::Union { left, right } => {
                let sl = plan.add(PlanNode::Select { input: left, pred: pred.clone() });
                let sr = plan.add(PlanNode::Select { input: right, pred });
                *plan.node_mut(id) = PlanNode::Union { left: sl, right: sr };
                stats.select_pushdowns += 1;
                changed = true;
            }
            // A predicate over group variables commutes with groupBy.
            PlanNode::GroupBy { input: x, group, items }
                if vars_subset(&pv, &group) =>
            {
                let sel = plan.add(PlanNode::Select { input: x, pred });
                *plan.node_mut(id) = PlanNode::GroupBy { input: sel, group, items };
                stats.select_pushdowns += 1;
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

fn apply_gd_pushdown(plan: &mut Plan, stats: &mut RewriteStats) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        let PlanNode::GetDescendants { input, parent, path, out } = plan.node(id).clone()
        else {
            continue;
        };
        match plan.node(input).clone() {
            PlanNode::Join { left, right, pred } => {
                // `out` is fresh, so it cannot occur in the join predicate;
                // only the parent variable's side matters.
                if plan.schema(left).contains(&parent) {
                    let gd = plan.add(PlanNode::GetDescendants {
                        input: left,
                        parent,
                        path,
                        out,
                    });
                    *plan.node_mut(id) = PlanNode::Join { left: gd, right, pred };
                    stats.gd_pushdowns += 1;
                    changed = true;
                } else if plan.schema(right).contains(&parent) {
                    let gd = plan.add(PlanNode::GetDescendants {
                        input: right,
                        parent,
                        path,
                        out,
                    });
                    *plan.node_mut(id) = PlanNode::Join { left, right: gd, pred };
                    stats.gd_pushdowns += 1;
                    changed = true;
                }
            }
            PlanNode::Cross { left, right } => {
                if plan.schema(left).contains(&parent) {
                    let gd = plan.add(PlanNode::GetDescendants {
                        input: left,
                        parent,
                        path,
                        out,
                    });
                    *plan.node_mut(id) = PlanNode::Cross { left: gd, right };
                    stats.gd_pushdowns += 1;
                    changed = true;
                } else if plan.schema(right).contains(&parent) {
                    let gd = plan.add(PlanNode::GetDescendants {
                        input: right,
                        parent,
                        path,
                        out,
                    });
                    *plan.node_mut(id) = PlanNode::Cross { left, right: gd };
                    stats.gd_pushdowns += 1;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

/// Worst browsability over a subtree.
fn subtree_class(plan: &Plan, id: PlanId, nc: NcCapabilities) -> Browsability {
    let mut worst = classify_op(plan.node(id), nc);
    for i in plan.node(id).inputs() {
        worst = worst.max(subtree_class(plan, i, nc));
    }
    worst
}

fn apply_join_swap(plan: &mut Plan, nc: NcCapabilities, stats: &mut RewriteStats) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        let PlanNode::Join { left, right, pred } = plan.node(id).clone() else { continue };
        // Strictly better browsability on the right side means the right
        // side should be consumed lazily (outer); the worse side is cached
        // as the inner loop.
        if subtree_class(plan, right, nc) < subtree_class(plan, left, nc) {
            *plan.node_mut(id) = PlanNode::Join { left: right, right: left, pred };
            stats.join_swaps += 1;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{BindPred, PredOperand};
    use crate::translate;
    use mix_nav::pred::CmpOp;
    use mix_xmas::{parse_path, parse_query};

    fn count_ops(plan: &Plan, name: &str) -> usize {
        plan.reachable()
            .into_iter()
            .filter(|&id| plan.node(id).op_name() == name)
            .count()
    }

    /// Depth of the first select below the root chain — a proxy for "how
    /// far down the predicate was pushed".
    fn select_depth(plan: &Plan) -> Option<usize> {
        fn go(plan: &Plan, id: PlanId, depth: usize) -> Option<usize> {
            if plan.node(id).op_name() == "select" {
                return Some(depth);
            }
            plan.node(id).inputs().into_iter().find_map(|i| go(plan, i, depth + 1))
        }
        go(plan, plan.root(), 0)
    }

    #[test]
    fn literal_select_pushes_below_head_operators() {
        let q = parse_query(
            r#"CONSTRUCT <cheap> $H {$H} </cheap> {}
               WHERE homesSrc homes.home $H AND $H price._ $P AND $P < 500000"#,
        )
        .unwrap();
        let mut plan = translate(&q).unwrap();
        let before = select_depth(&plan).unwrap();
        let stats = rewrite(&mut plan, NcCapabilities::minimal());
        plan.validate().unwrap();
        let after = select_depth(&plan).unwrap();
        // The select sits directly above the getDescendants that binds $P
        // and cannot go deeper; in the initial plan it is already there,
        // so assert it did not move *up* and the plan stays valid.
        assert!(after >= before);
        assert_eq!(stats.cross_to_join, 0);
    }

    #[test]
    fn select_pushes_below_join_into_one_side() {
        // $V1 = $V2 joins; a later one-sided filter on $H should migrate
        // into the homes branch below the join.
        let q = parse_query(
            r#"CONSTRUCT <r> $H {$H} </r> {}
               WHERE homesSrc homes.home $H AND $H zip._ $V1
                 AND schoolsSrc schools.school $S AND $S zip._ $V2
                 AND $V1 = $V2 AND $H addr._ $A AND $A = "La Jolla""#,
        )
        .unwrap();
        let mut plan = translate(&q).unwrap();
        let stats = rewrite(&mut plan, NcCapabilities::minimal());
        plan.validate().unwrap();
        // The $A = "La Jolla" select was created above the branch anyway
        // (translation attaches selects to branches), so pushdown count
        // may be zero — but the plan must stay valid and joins intact.
        assert_eq!(count_ops(&plan, "join"), 1);
        let _ = stats;
    }

    #[test]
    fn cross_plus_spanning_select_becomes_join() {
        use crate::plan::PlanNode;
        use mix_xmas::Var;
        // Build cross + select by hand (the translator emits joins
        // directly, so exercise the rule explicitly).
        let mut plan = Plan::new();
        let s1 = plan.add(PlanNode::Source { name: "a".into(), out: Var::new("R1") });
        let g1 = plan.add(PlanNode::GetDescendants {
            input: s1,
            parent: Var::new("R1"),
            path: parse_path("x").unwrap(),
            out: Var::new("X"),
        });
        let s2 = plan.add(PlanNode::Source { name: "b".into(), out: Var::new("R2") });
        let g2 = plan.add(PlanNode::GetDescendants {
            input: s2,
            parent: Var::new("R2"),
            path: parse_path("y").unwrap(),
            out: Var::new("Y"),
        });
        let cross = plan.add(PlanNode::Cross { left: g1, right: g2 });
        let sel = plan.add(PlanNode::Select { input: cross, pred: BindPred::var_eq("X", "Y") });
        let td = plan.add(PlanNode::TupleDestroy { input: sel, var: Var::new("X") });
        plan.set_root(td);
        plan.validate().unwrap();

        let stats = rewrite(&mut plan, NcCapabilities::minimal());
        assert_eq!(stats.cross_to_join, 1);
        assert_eq!(count_ops(&plan, "cross"), 0);
        assert_eq!(count_ops(&plan, "join"), 1);
        plan.validate().unwrap();
    }

    #[test]
    fn join_swaps_unbrowsable_side_inward() {
        use crate::plan::PlanNode;
        use mix_xmas::Var;
        let mut plan = Plan::new();
        // Left branch contains an orderBy (unbrowsable), right is plain.
        let s1 = plan.add(PlanNode::Source { name: "a".into(), out: Var::new("R1") });
        let g1 = plan.add(PlanNode::GetDescendants {
            input: s1,
            parent: Var::new("R1"),
            path: parse_path("x").unwrap(),
            out: Var::new("X"),
        });
        let ob = plan.add(PlanNode::OrderBy { input: g1, keys: vec![Var::new("X")] });
        let s2 = plan.add(PlanNode::Source { name: "b".into(), out: Var::new("R2") });
        let g2 = plan.add(PlanNode::GetDescendants {
            input: s2,
            parent: Var::new("R2"),
            path: parse_path("y").unwrap(),
            out: Var::new("Y"),
        });
        let join =
            plan.add(PlanNode::Join { left: ob, right: g2, pred: BindPred::var_eq("X", "Y") });
        let td = plan.add(PlanNode::TupleDestroy { input: join, var: Var::new("Y") });
        plan.set_root(td);
        plan.validate().unwrap();

        let stats = rewrite(&mut plan, NcCapabilities::minimal());
        assert_eq!(stats.join_swaps, 1);
        // The browsable branch (source b) is now the outer/left input.
        let PlanNode::Join { left, .. } = plan.node(join) else { panic!() };
        assert!(plan.schema(*left).contains(&Var::new("Y")));
        plan.validate().unwrap();
        // Idempotent: a second run swaps nothing back.
        let stats2 = rewrite(&mut plan, NcCapabilities::minimal());
        assert_eq!(stats2.join_swaps, 0);
    }

    #[test]
    fn rewrite_preserves_validity_on_fig3() {
        let q = parse_query(
            r#"CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
               WHERE homesSrc homes.home $H AND $H zip._ $V1
                 AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2"#,
        )
        .unwrap();
        let mut plan = translate(&q).unwrap();
        rewrite(&mut plan, NcCapabilities::with_select());
        plan.validate().unwrap();
    }

    #[test]
    fn select_commutes_with_orderby() {
        use crate::plan::PlanNode;
        use mix_xmas::Var;
        let mut plan = Plan::new();
        let s = plan.add(PlanNode::Source { name: "a".into(), out: Var::new("R") });
        let g = plan.add(PlanNode::GetDescendants {
            input: s,
            parent: Var::new("R"),
            path: parse_path("x").unwrap(),
            out: Var::new("X"),
        });
        let ob = plan.add(PlanNode::OrderBy { input: g, keys: vec![Var::new("X")] });
        let sel = plan.add(PlanNode::Select {
            input: ob,
            pred: BindPred::Cmp {
                left: PredOperand::Var(Var::new("X")),
                op: CmpOp::Ne,
                right: PredOperand::Int(0),
            },
        });
        let td = plan.add(PlanNode::TupleDestroy { input: sel, var: Var::new("X") });
        plan.set_root(td);
        plan.validate().unwrap();

        let stats = rewrite(&mut plan, NcCapabilities::minimal());
        assert!(stats.select_pushdowns >= 1);
        // Now orderBy is above select.
        let PlanNode::TupleDestroy { input, .. } = plan.node(plan.root()) else { panic!() };
        assert_eq!(plan.node(*input).op_name(), "orderBy");
        plan.validate().unwrap();
    }
}
