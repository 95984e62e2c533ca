//! Semantic answer cache: record answered views, rewrite covered queries.
//!
//! The fragment cache (mix-buffer) is identity-keyed `(source, hole-id)`;
//! a warm session must repeat the *exact same* query to go wire-free.
//! This module goes one level up, in the spirit of Cautis et al.,
//! "Rewriting XPath Queries using View Intersections": a [`ViewCatalog`]
//! records the *branch signature* and materialized answer of each fully
//! answered query, and [`ViewCatalog::rewrite_against_views`] rewrites a
//! new plan's source branches into navigations over those in-memory
//! answers — so a query covered by previously-answered views issues zero
//! wire exchanges, even when it is not textually equal to any of them.
//!
//! ## The coverable fragment
//!
//! Containment over full XMAS is undecidable in practice for our budget,
//! so the checker is deliberately conservative: it understands *linear
//! source branches* — `source → getDescendants* → select*` chains where
//! every `getDescendants` hangs off the previous step's output variable,
//! every path is fixed-depth (labels, wildcards, and alternations of
//! labels; no Kleene star), and every `select` compares one chain
//! variable against a literal. Anything else — star paths, var-tree
//! branches, var-to-var selects inside a chain — is marked
//! [`NotCoverable`](SemanticOutcome) for that branch rather than guessed
//! at. The answer-construction head above the branches is never inspected
//! for coverage: rewriting substitutes branches and leaves the head
//! untouched, so arbitrary heads work.
//!
//! ## Coverage rule
//!
//! A view collects the subtrees bound at flat step-depth `m` of its
//! chain. It covers a query branch when the query has a binding boundary
//! at the same depth, the interior steps match exactly, the view's *last*
//! step generalizes the query's (safe because the collected subtrees
//! retain their root labels, which the rewrite re-matches), every view
//! filter is matched exactly by a query filter, and the view's
//! constraints *below* the collect depth (which silently restricted the
//! recorded answer) are reproduced exactly by the query. Query structure
//! the view does not constrain survives as *residual navigation* over the
//! in-memory answer fragment.
//!
//! ## Invalidation
//!
//! Every view records the per-source epoch current when it was answered.
//! `rewrite_against_views` takes an `epoch_of` oracle and purges any view
//! whose recorded epoch is stale before matching, so a source epoch bump
//! (fragment-cache invalidation or [`ViewCatalog::invalidate_source`])
//! atomically retires every dependent view.

use crate::plan::{GroupItem, Plan, PlanId, PlanNode};
use crate::pred::{BindPred, PredOperand};
use mix_nav::pred::CmpOp;
use mix_xml::{Document, Tree};
use mix_xmas::{LabelSpec, PathExpr, Var};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Prefix of the synthetic source names that rewritten plans navigate.
/// `SourceRegistry::resolve` recognizes it and serves the view's
/// materialized answer through an in-memory `DocNavigator` — zero wire.
pub const VIEW_SOURCE_PREFIX: &str = "~view:";

/// Identity of a recorded view within its catalog.
pub type ViewId = u64;

/// The synthetic source name for a view id.
pub fn view_source_name(id: ViewId) -> String {
    format!("{VIEW_SOURCE_PREFIX}{id}")
}

/// Parse a synthetic view source name back into a [`ViewId`].
pub fn parse_view_source(name: &str) -> Option<ViewId> {
    name.strip_prefix(VIEW_SOURCE_PREFIX)?.parse().ok()
}

/// One flattened path step of a chain signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A single label.
    Label(String),
    /// The wildcard `_`.
    Wild,
    /// An alternation of labels, sorted and deduplicated.
    Any(Vec<String>),
}

impl Step {
    /// Does `self` (the view's step) match at least everything `q` (the
    /// query's step) matches?
    fn covers(&self, q: &Step) -> bool {
        match (self, q) {
            (Step::Wild, _) => true,
            (Step::Label(a), Step::Label(b)) => a == b,
            (Step::Any(ls), Step::Label(b)) => ls.contains(b),
            (Step::Any(ls), Step::Any(ms)) => ms.iter().all(|m| ls.contains(m)),
            (Step::Label(_), _) => false,
            (Step::Any(_), Step::Wild) => false,
        }
    }

    /// Back to a one-step path expression (for the rewrite's boundary
    /// `getDescendants`).
    fn to_path(&self) -> PathExpr {
        match self {
            Step::Label(l) => PathExpr::Label(l.clone()),
            Step::Wild => PathExpr::Wildcard,
            Step::Any(ls) => {
                PathExpr::Alt(ls.iter().map(|l| PathExpr::Label(l.clone())).collect())
            }
        }
    }
}

/// Flatten a fixed-depth path expression into steps. `None` when the
/// path contains a star or a non-label alternation (not coverable).
fn flatten_path(p: &PathExpr, out: &mut Vec<Step>) -> Option<()> {
    match p {
        PathExpr::Label(l) => out.push(Step::Label(l.clone())),
        PathExpr::Wildcard => out.push(Step::Wild),
        PathExpr::Seq(v) => {
            for q in v {
                flatten_path(q, out)?;
            }
        }
        PathExpr::Alt(v) => {
            let mut labels = Vec::new();
            for q in v {
                match q {
                    PathExpr::Label(l) => labels.push(l.clone()),
                    _ => return None,
                }
            }
            labels.sort();
            labels.dedup();
            out.push(Step::Any(labels));
        }
        PathExpr::Star(_) => return None,
    }
    Some(())
}

/// A literal-comparison filter on one chain variable, normalized so the
/// variable is on the left (the operator is flipped when the plan had it
/// on the right) and the literal is reduced to its text form — exactly
/// the equivalence `value_cmp` applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSig {
    /// Flat step depth of the variable the filter constrains.
    pub depth: usize,
    /// Comparison operator, variable on the left.
    pub op: CmpOp,
    /// Literal text (Int literals print as their decimal text).
    pub lit: String,
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
    }
}

fn operand_lit(o: &PredOperand) -> Option<String> {
    match o {
        PredOperand::Var(_) => None,
        PredOperand::Str(s) => Some(s.clone()),
        PredOperand::Int(i) => Some(i.to_string()),
    }
}

/// The signature of one linear source branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchSig {
    /// The wire source the branch opens.
    pub source: String,
    /// Flattened steps of all chained `getDescendants` paths.
    pub steps: Vec<Step>,
    /// `cuts[i]` = flat depth after the `i`-th `getDescendants` — the
    /// depths at which the chain binds a variable.
    pub cuts: Vec<usize>,
    /// Literal filters applied inside the chain.
    pub filters: Vec<FilterSig>,
}

/// A branch chain extracted from a plan (signature plus the plan nodes
/// that carry it, for rewriting).
struct Chain {
    sig: BranchSig,
    /// Output variable of each `getDescendants`, parallel to `sig.cuts`.
    vars: Vec<Var>,
    /// All chain nodes in order: source, then GDs/selects as consumed.
    nodes: Vec<PlanId>,
    /// For each select node in `nodes`: its filter signature.
    select_sigs: HashMap<usize, FilterSig>,
    /// For each GD node in `nodes`: its cut index.
    gd_cut: HashMap<usize, usize>,
}

/// Extract the maximal coverable chain rooted at `source_id`. Returns
/// `None` when the source's own shape is unusable (should not happen —
/// a bare `Source` is always a zero-length chain).
fn extract_chain(plan: &Plan, source_id: PlanId, consumers: &HashMap<usize, Vec<PlanId>>) -> Chain {
    let (source, mut bound) = match plan.node(source_id) {
        PlanNode::Source { name, out } => (name.clone(), out.clone()),
        _ => unreachable!("extract_chain called on a non-source node"),
    };
    let mut sig = BranchSig { source, steps: Vec::new(), cuts: Vec::new(), filters: Vec::new() };
    let mut vars = Vec::new();
    let mut nodes = vec![source_id];
    let mut select_sigs = HashMap::new();
    let mut gd_cut = HashMap::new();
    let mut cur = source_id;
    loop {
        let cons = match consumers.get(&cur.index()) {
            Some(c) if c.len() == 1 => c[0],
            // Zero consumers (stranded) or shared node: stop here.
            _ => break,
        };
        match plan.node(cons) {
            PlanNode::GetDescendants { input, parent, path, out } if *input == cur => {
                // Linear chains only: the GD must hang off the variable
                // the previous step bound.
                if *parent != bound {
                    break;
                }
                let mut steps = Vec::new();
                if flatten_path(path, &mut steps).is_none() {
                    break;
                }
                sig.steps.extend(steps);
                sig.cuts.push(sig.steps.len());
                gd_cut.insert(nodes.len(), sig.cuts.len() - 1);
                vars.push(out.clone());
                bound = out.clone();
                nodes.push(cons);
                cur = cons;
            }
            PlanNode::Select { input, pred } if *input == cur => {
                // Simple `chain-var <op> literal` comparisons only.
                let fs = match pred {
                    BindPred::Cmp { left, op, right } => match (left, right) {
                        (PredOperand::Var(v), r) => operand_lit(r).and_then(|lit| {
                            vars.iter().position(|x| x == v).map(|i| FilterSig {
                                depth: sig.cuts[i],
                                op: *op,
                                lit,
                            })
                        }),
                        (l, PredOperand::Var(v)) => operand_lit(l).and_then(|lit| {
                            vars.iter().position(|x| x == v).map(|i| FilterSig {
                                depth: sig.cuts[i],
                                op: flip(*op),
                                lit,
                            })
                        }),
                        _ => None,
                    },
                    _ => None,
                };
                let Some(fs) = fs else { break };
                sig.filters.push(fs.clone());
                select_sigs.insert(nodes.len(), fs);
                nodes.push(cons);
                cur = cons;
            }
            _ => break,
        }
    }
    Chain { sig, vars, nodes, select_sigs, gd_cut }
}

/// Per-query outcome of the semantic rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticOutcome {
    /// Every source branch was rewritten onto cached views — the plan
    /// issues no wire exchange at all.
    Covered,
    /// Some branches were rewritten, others still hit the wire.
    Partial,
    /// No branch was coverable (including the not-coverable shapes).
    Miss,
}

impl SemanticOutcome {
    /// Stable lowercase label for metrics/traces.
    pub fn label(&self) -> &'static str {
        match self {
            SemanticOutcome::Covered => "covered",
            SemanticOutcome::Partial => "partial",
            SemanticOutcome::Miss => "miss",
        }
    }
}

impl fmt::Display for SemanticOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of [`ViewCatalog::rewrite_against_views`].
#[derive(Debug, Clone)]
pub struct RewriteResult {
    /// The rewritten plan; `None` on a [`SemanticOutcome::Miss`] (use
    /// the original).
    pub plan: Option<Plan>,
    /// How much of the query the catalog covered.
    pub outcome: SemanticOutcome,
    /// `(view id, original source)` per rewritten branch.
    pub used: Vec<(ViewId, String)>,
}

/// One recorded view.
#[derive(Clone)]
struct ViewRec {
    id: ViewId,
    sig: BranchSig,
    /// Flat depth of the collected variable (== `sig.cuts[collect_cut]`).
    collect_depth: usize,
    /// Label of the answer's root element. A source leaf binds the
    /// *document* node above the root element, so the rewrite's boundary
    /// path must consume this label before re-matching the cut step.
    root_label: String,
    /// The materialized answer, shared with every rewrite that uses it.
    answer: Arc<Document>,
    /// Per-source epochs current when the view was recorded.
    epochs: Vec<(String, u64)>,
}

struct CatalogInner {
    views: Vec<ViewRec>,
    next_id: ViewId,
    /// The catalog's own per-source epochs, so invalidation works even
    /// without a fragment cache in front.
    epochs: HashMap<String, u64>,
}

/// A shared, cloneable catalog of answered views.
///
/// Cloning shares the underlying store — `mix-serve` hands one catalog
/// to every multiplexed session.
#[derive(Clone)]
pub struct ViewCatalog {
    inner: Arc<Mutex<CatalogInner>>,
}

impl Default for ViewCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl ViewCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        ViewCatalog {
            inner: Arc::new(Mutex::new(CatalogInner {
                views: Vec::new(),
                next_id: 0,
                epochs: HashMap::new(),
            })),
        }
    }

    /// Number of live (non-purged) views.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().views.len()
    }

    /// True when no views are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The catalog's own epoch for a source (0 until first invalidated).
    pub fn source_epoch(&self, source: &str) -> u64 {
        *self.inner.lock().unwrap().epochs.get(source).unwrap_or(&0)
    }

    /// Bump the catalog's epoch for `source` and purge every view that
    /// depends on it. Returns the number of views purged.
    pub fn invalidate_source(&self, source: &str) -> usize {
        let mut inner = self.inner.lock().unwrap();
        *inner.epochs.entry(source.to_string()).or_insert(0) += 1;
        let before = inner.views.len();
        inner.views.retain(|v| v.sig.source != source);
        before - inner.views.len()
    }

    /// The materialized answer of a view, for registry resolution of
    /// `~view:N` sources. `None` when the view was purged.
    pub fn view_doc(&self, id: ViewId) -> Option<Arc<Document>> {
        self.inner
            .lock()
            .unwrap()
            .views
            .iter()
            .find(|v| v.id == id)
            .map(|v| Arc::clone(&v.answer))
    }

    /// Record a fully materialized answer for `plan` if the plan is a
    /// *recordable view*: a single linear coverable branch under exactly
    /// `groupBy{} v→L → createElement(const, L) → tupleDestroy`. Returns
    /// the new view id, or `None` when the plan's shape is not
    /// recordable (never an error — recording is best-effort).
    ///
    /// `epochs` are the per-source epochs current when the answer was
    /// computed (capture them *before* evaluating; a concurrent
    /// invalidation then simply makes the view stale-on-arrival, which
    /// the rewrite purges — conservative but correct).
    pub fn record(&self, plan: &Plan, answer: &Tree, epochs: &[(String, u64)]) -> Option<ViewId> {
        let (sig, collect_depth) = recordable_sig(plan)?;
        let mut inner = self.inner.lock().unwrap();
        // Stale-on-arrival: the answer was computed against an epoch the
        // catalog has already moved past.
        for (src, ep) in epochs {
            if inner.epochs.get(src).copied().unwrap_or(0) > *ep {
                return None;
            }
        }
        // Exact duplicate signature: keep the existing view (its answer
        // is equivalent; re-recording would only churn ids).
        if inner
            .views
            .iter()
            .any(|v| v.sig == sig && v.collect_depth == collect_depth)
        {
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.views.push(ViewRec {
            id,
            sig,
            collect_depth,
            root_label: answer.label().to_string(),
            answer: Arc::new(Document::from_tree(answer)),
            epochs: epochs.to_vec(),
        });
        Some(id)
    }

    /// Purge views whose recorded epochs are stale per `epoch_of`, then
    /// try to rewrite every source branch of `plan` onto the remaining
    /// views. The head and any non-coverable structure are preserved
    /// verbatim; rewritten branches navigate `~view:N` sources instead
    /// of the wire.
    pub fn rewrite_against_views(
        &self,
        plan: &Plan,
        epoch_of: &dyn Fn(&str) -> u64,
    ) -> RewriteResult {
        // Two phases so `epoch_of` runs with the catalog unlocked: a
        // combined-epoch callback (engine, server) typically reads the
        // catalog's own epoch map, which would self-deadlock under the
        // lock. A concurrent record between the phases is benign: the
        // purge is conservative, keyed on each view's recorded epochs.
        let sources: Vec<String> = {
            let inner = self.inner.lock().unwrap();
            let mut s: Vec<String> = inner
                .views
                .iter()
                .flat_map(|v| v.epochs.iter().map(|(src, _)| src.clone()))
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let current: HashMap<String, u64> =
            sources.into_iter().map(|s| { let e = epoch_of(&s); (s, e) }).collect();
        let views: Vec<ViewRec> = {
            let mut inner = self.inner.lock().unwrap();
            inner.views.retain(|v| {
                v.epochs
                    .iter()
                    .all(|(src, ep)| current.get(src).copied().unwrap_or(0) == *ep)
            });
            inner.views.clone()
        };
        rewrite_plan(plan, &views)
    }
}

/// Check the recordable-view shape and extract its signature plus the
/// collect depth.
fn recordable_sig(plan: &Plan) -> Option<(BranchSig, usize)> {
    let reachable = plan.reachable();
    // Exactly one source, and the whole plan is chain + groupBy +
    // createElement + tupleDestroy.
    let root = plan.root();
    let PlanNode::TupleDestroy { input: td_in, var: td_var } = plan.node(root) else {
        return None;
    };
    let PlanNode::CreateElement { input: ce_in, label, ch, out } = plan.node(*td_in) else {
        return None;
    };
    if out != td_var || !matches!(label, LabelSpec::Const(_)) {
        return None;
    }
    let PlanNode::GroupBy { input: gb_in, group, items } = plan.node(*ce_in) else {
        return None;
    };
    if !group.is_empty() || items.len() != 1 || items[0].out != *ch {
        return None;
    }
    let GroupItem { value, .. } = &items[0];
    let sources: Vec<PlanId> = reachable
        .iter()
        .copied()
        .filter(|&id| matches!(plan.node(id), PlanNode::Source { .. }))
        .collect();
    let [source_id] = sources.as_slice() else { return None };
    let consumers = consumer_map(plan, &reachable);
    let chain = extract_chain(plan, *source_id, &consumers);
    // The chain must reach the groupBy input and account for every node
    // below it (nothing unsupported hiding in the branch).
    if chain.nodes.last() != Some(gb_in) || chain.nodes.len() + 3 != reachable.len() {
        return None;
    }
    // A view with no view sources only — never record a rewritten plan.
    if parse_view_source(&chain.sig.source).is_some() {
        return None;
    }
    let cut = chain.vars.iter().position(|v| v == value)?;
    let collect_depth = chain.sig.cuts[cut];
    Some((chain.sig, collect_depth))
}

fn consumer_map(plan: &Plan, reachable: &[PlanId]) -> HashMap<usize, Vec<PlanId>> {
    let mut consumers: HashMap<usize, Vec<PlanId>> = HashMap::new();
    for &id in reachable {
        for input in plan.node(id).inputs() {
            consumers.entry(input.index()).or_default().push(id);
        }
    }
    consumers
}

/// A matched cover of one query chain by one view.
struct BranchCover {
    view_id: ViewId,
    source: String,
    /// Path of the rewrite's boundary `getDescendants` (the query's own
    /// last covered step, re-matched over the view answer's children).
    boundary_path: PathExpr,
    /// The variable the boundary GD binds (the query's cut variable).
    boundary_var: Var,
    /// Chain node indices (into `Chain::nodes`) that are dropped,
    /// replaced by the view navigation.
    dropped: HashSet<usize>,
    /// The chain, for emission.
    nodes: Vec<PlanId>,
}

/// Try to cover `chain` with `view`. Returns the cover on success.
fn cover_chain(chain: &Chain, view: &ViewRec) -> Option<BranchCover> {
    let q = &chain.sig;
    let v = &view.sig;
    if q.source != v.source {
        return None;
    }
    let m = view.collect_depth;
    // The query must bind a variable exactly at the view's collect depth.
    let c_q = q.cuts.iter().position(|&c| c == m)?;
    if q.steps.len() < m {
        return None;
    }
    // Interior steps exact; the final covered step may be generalized by
    // the view (collected roots keep their labels, re-matched below).
    for i in 0..m - 1 {
        if v.steps[i] != q.steps[i] {
            return None;
        }
    }
    if !v.steps[m - 1].covers(&q.steps[m - 1]) {
        return None;
    }
    // Deep part: constraints below the collect depth silently restricted
    // the recorded answer, so the query must reproduce them exactly —
    // steps, cut structure, and deep filters — and they are then dropped
    // (re-running them over the fragment would square multiplicities).
    // When the view has no deep part, the query's own deeper navigation
    // survives as residual work over the fragment instead.
    let view_deep = v.steps.len() > m || v.filters.iter().any(|f| f.depth > m);
    let drop_deep = if view_deep {
        if q.steps[m..] != v.steps[m..] {
            return None;
        }
        let qc: Vec<usize> = q.cuts.iter().copied().filter(|&c| c > m).collect();
        let vc: Vec<usize> = v.cuts.iter().copied().filter(|&c| c > m).collect();
        if qc != vc {
            return None;
        }
        let mut q_deep: Vec<&FilterSig> = q.filters.iter().filter(|f| f.depth > m).collect();
        let mut v_deep: Vec<&FilterSig> = v.filters.iter().filter(|f| f.depth > m).collect();
        q_deep.sort_by(filter_ord);
        v_deep.sort_by(filter_ord);
        if q_deep != v_deep {
            return None;
        }
        true
    } else {
        false
    };
    // Shallow filters: every view filter must be matched exactly by a
    // query filter (those query filters are then dropped — the view
    // already applied them). Unmatched query filters survive only where
    // their variable is still bound after the rewrite: at the boundary
    // (depth == m) or, when the deep part is kept, below it.
    let mut matched_view: Vec<bool> = vec![false; v.filters.len()];
    // Per chain-select decision: drop (matched or covered-by-drop_deep)
    // or keep.
    let mut select_drop: HashMap<usize, bool> = HashMap::new();
    for (ni, fs) in &chain.select_sigs {
        if fs.depth > m {
            // Deep filter: dropped with the deep part, kept otherwise.
            select_drop.insert(*ni, drop_deep);
            continue;
        }
        // Find an unmatched view filter equal to fs.
        let hit = v
            .filters
            .iter()
            .enumerate()
            .find(|(vi, vf)| !matched_view[*vi] && *vf == fs)
            .map(|(vi, _)| vi);
        match hit {
            Some(vi) => {
                matched_view[vi] = true;
                select_drop.insert(*ni, true);
            }
            None => {
                if fs.depth < m {
                    // Interior filter the view lacks: its variable is
                    // unbound after the rewrite — cannot cover.
                    return None;
                }
                select_drop.insert(*ni, false);
            }
        }
    }
    for (vi, vf) in v.filters.iter().enumerate() {
        if vf.depth <= m && !matched_view[vi] {
            return None;
        }
    }
    // Build the dropped set over chain node indices.
    let mut dropped: HashSet<usize> = HashSet::new();
    dropped.insert(0); // the Source node
    for (ni, cut) in &chain.gd_cut {
        if *cut <= c_q || drop_deep {
            dropped.insert(*ni);
        }
    }
    for (ni, drop) in &select_drop {
        if *drop {
            dropped.insert(*ni);
        }
    }
    Some(BranchCover {
        view_id: view.id,
        source: q.source.clone(),
        // The `~view:N` leaf binds the document node above the answer's
        // root element, so the boundary navigation first consumes the
        // root label, then re-matches the query's own cut step against
        // the collected subtree roots.
        boundary_path: PathExpr::Seq(vec![
            PathExpr::Label(view.root_label.clone()),
            q.steps[m - 1].to_path(),
        ]),
        boundary_var: chain.vars[c_q].clone(),
        dropped,
        nodes: chain.nodes.clone(),
    })
}

fn filter_ord(a: &&FilterSig, b: &&FilterSig) -> std::cmp::Ordering {
    (a.depth, format!("{:?}", a.op), &a.lit).cmp(&(b.depth, format!("{:?}", b.op), &b.lit))
}

/// Rewrite `plan` against `views`, producing the outcome and (when at
/// least one branch is covered) the substituted plan.
fn rewrite_plan(plan: &Plan, views: &[ViewRec]) -> RewriteResult {
    let reachable = plan.reachable();
    let reachable_set: HashSet<usize> = reachable.iter().map(|id| id.index()).collect();
    let consumers = consumer_map(plan, &reachable);
    let sources: Vec<PlanId> = {
        // Arena order for deterministic output.
        let mut s: Vec<PlanId> = reachable
            .iter()
            .copied()
            .filter(|&id| matches!(plan.node(id), PlanNode::Source { .. }))
            .collect();
        s.sort_by_key(|id| id.index());
        s
    };
    let total = sources.len();
    let mut covers: Vec<BranchCover> = Vec::new();
    'branches: for &sid in &sources {
        if let PlanNode::Source { name, .. } = plan.node(sid) {
            // Never re-cover an already-substituted branch.
            if parse_view_source(name).is_some() {
                continue;
            }
        }
        let chain = extract_chain(plan, sid, &consumers);
        if chain.sig.cuts.is_empty() {
            continue; // bare source, nothing to cover
        }
        for view in views {
            if let Some(cover) = cover_chain(&chain, view) {
                if audit_cover(plan, &reachable, &chain, &cover) {
                    covers.push(cover);
                    continue 'branches;
                }
            }
        }
    }
    if covers.is_empty() {
        return RewriteResult {
            plan: None,
            outcome: SemanticOutcome::Miss,
            used: Vec::new(),
        };
    }
    let outcome = if covers.len() == total && total > 0 {
        SemanticOutcome::Covered
    } else {
        SemanticOutcome::Partial
    };
    let used = covers.iter().map(|c| (c.view_id, c.source.clone())).collect();
    let new_plan = emit_rewritten(plan, &reachable_set, &covers);
    RewriteResult { plan: Some(new_plan), outcome, used }
}

/// Safety audit: no node outside the dropped set may consume a variable
/// the dropped nodes bound (other than the re-bound boundary variable).
fn audit_cover(plan: &Plan, reachable: &[PlanId], chain: &Chain, cover: &BranchCover) -> bool {
    let mut lost: HashSet<Var> = HashSet::new();
    for (idx, &nid) in chain.nodes.iter().enumerate() {
        if !cover.dropped.contains(&idx) {
            continue;
        }
        match plan.node(nid) {
            PlanNode::Source { out, .. } => {
                lost.insert(out.clone());
            }
            PlanNode::GetDescendants { out, .. } if *out != cover.boundary_var => {
                lost.insert(out.clone());
            }
            _ => {}
        }
    }
    let dropped_ids: HashSet<usize> = chain
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, _)| cover.dropped.contains(i))
        .map(|(_, id)| id.index())
        .collect();
    for &id in reachable {
        if dropped_ids.contains(&id.index()) {
            continue;
        }
        if plan.vars_used_by(id).iter().any(|v| lost.contains(v)) {
            return false;
        }
    }
    true
}

/// Build the substituted plan: covered branches become
/// `source ~view:N → getDescendants(boundary)`; every other reachable
/// node is copied with remapped inputs.
fn emit_rewritten(plan: &Plan, reachable: &HashSet<usize>, covers: &[BranchCover]) -> Plan {
    let mut out = Plan::new();
    let mut map: HashMap<usize, PlanId> = HashMap::new();
    // Which covered branch (if any) each chain node belongs to, and
    // whether it is dropped.
    let mut branch_of: HashMap<usize, (usize, bool)> = HashMap::new();
    for (bi, c) in covers.iter().enumerate() {
        for (ni, &pid) in c.nodes.iter().enumerate() {
            branch_of.insert(pid.index(), (bi, c.dropped.contains(&ni)));
        }
    }
    // The current top of each branch's replacement chain: starts at the
    // boundary GD, advances over kept residual nodes as they are
    // emitted. Dropped nodes remap to the top current *at their chain
    // position*, so a kept select sitting below dropped deep GDs keeps
    // its place in the rebuilt chain.
    let mut branch_top: HashMap<usize, PlanId> = HashMap::new();
    for idx in 0..plan.len() {
        if !reachable.contains(&idx) {
            continue;
        }
        let id = PlanId::from_index(idx);
        if let Some(&(bi, dropped)) = branch_of.get(&idx) {
            let c = &covers[bi];
            if matches!(plan.node(id), PlanNode::Source { .. }) {
                // Emit the replacement chain at the source's position.
                let root_var = Var::new(format!("~vroot#{bi}"));
                let src = out.add(PlanNode::Source {
                    name: view_source_name(c.view_id),
                    out: root_var.clone(),
                });
                let gd = out.add(PlanNode::GetDescendants {
                    input: src,
                    parent: root_var,
                    path: c.boundary_path.clone(),
                    out: c.boundary_var.clone(),
                });
                branch_top.insert(bi, gd);
                map.insert(idx, gd);
                continue;
            }
            if dropped {
                map.insert(idx, branch_top[&bi]);
                continue;
            }
            // Kept residual chain node: emit and advance the branch top.
            let mut node = plan.node(id).clone();
            remap_inputs(&mut node, &map);
            let new_id = out.add(node);
            map.insert(idx, new_id);
            branch_top.insert(bi, new_id);
            continue;
        }
        let mut node = plan.node(id).clone();
        remap_inputs(&mut node, &map);
        let new_id = out.add(node);
        map.insert(idx, new_id);
    }
    let root = map[&plan.root().index()];
    out.set_root(root);
    out
}

fn remap_inputs(node: &mut PlanNode, map: &HashMap<usize, PlanId>) {
    let fix = |id: &mut PlanId| {
        *id = map[&id.index()];
    };
    match node {
        PlanNode::Source { .. } => {}
        PlanNode::GetDescendants { input, .. }
        | PlanNode::Select { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::GroupBy { input, .. }
        | PlanNode::Concatenate { input, .. }
        | PlanNode::CreateElement { input, .. }
        | PlanNode::Constant { input, .. }
        | PlanNode::Wrap { input, .. }
        | PlanNode::OrderBy { input, .. }
        | PlanNode::TupleDestroy { input, .. } => fix(input),
        PlanNode::Join { left, right, .. }
        | PlanNode::Cross { left, right }
        | PlanNode::Union { left, right }
        | PlanNode::Difference { left, right } => {
            fix(left);
            fix(right);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use mix_xmas::parse_query;

    fn plan_of(q: &str) -> Plan {
        translate(&parse_query(q).unwrap()).unwrap()
    }

    fn answer_stub() -> Tree {
        Tree::node("v", vec![Tree::node("home", vec![Tree::leaf("x")])])
    }

    const VIEW_Q: &str = "CONSTRUCT <v> $H {$H} </v> {} WHERE src homes.home $H";

    #[test]
    fn record_simple_view() {
        let cat = ViewCatalog::new();
        let id = cat.record(&plan_of(VIEW_Q), &answer_stub(), &[("src".into(), 0)]);
        assert_eq!(id, Some(0));
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn duplicate_signature_not_re_recorded() {
        let cat = ViewCatalog::new();
        assert!(cat.record(&plan_of(VIEW_Q), &answer_stub(), &[]).is_some());
        assert!(cat.record(&plan_of(VIEW_Q), &answer_stub(), &[]).is_none());
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn non_recordable_shapes_are_rejected() {
        let cat = ViewCatalog::new();
        // Star path: not coverable.
        let p = plan_of("CONSTRUCT <v> $X {$X} </v> {} WHERE src a*.b $X");
        assert!(cat.record(&p, &answer_stub(), &[]).is_none());
        // Two sources joined: not a single branch.
        let p = plan_of(
            "CONSTRUCT <v> $A {$A} </v> {} WHERE s1 a $A AND s2 b $B AND $A = $B",
        );
        assert!(cat.record(&p, &answer_stub(), &[]).is_none());
    }

    #[test]
    fn identical_query_is_covered() {
        let cat = ViewCatalog::new();
        cat.record(&plan_of(VIEW_Q), &answer_stub(), &[]).unwrap();
        let q = plan_of("CONSTRUCT <r> $X {$X} </r> {} WHERE src homes.home $X");
        let rr = cat.rewrite_against_views(&q, &|_| 0);
        assert_eq!(rr.outcome, SemanticOutcome::Covered);
        let p = rr.plan.unwrap();
        p.validate().unwrap();
        assert_eq!(p.source_names(), vec![view_source_name(0)]);
    }

    #[test]
    fn wildcard_view_covers_label_query_via_boundary_rematch() {
        let cat = ViewCatalog::new();
        let v = plan_of("CONSTRUCT <v> $X {$X} </v> {} WHERE src homes._ $X");
        cat.record(&v, &answer_stub(), &[]).unwrap();
        let q = plan_of("CONSTRUCT <r> $X {$X} </r> {} WHERE src homes.home $X");
        let rr = cat.rewrite_against_views(&q, &|_| 0);
        assert_eq!(rr.outcome, SemanticOutcome::Covered);
        let text = rr.plan.unwrap().to_string();
        // The boundary GD consumes the answer's root label, then
        // re-matches the query's own step.
        assert!(text.contains("getDescendants $~vroot#0,v.home ->"), "{text}");
    }

    #[test]
    fn label_view_does_not_cover_wildcard_query() {
        let cat = ViewCatalog::new();
        cat.record(&plan_of(VIEW_Q), &answer_stub(), &[]).unwrap();
        let q = plan_of("CONSTRUCT <r> $X {$X} </r> {} WHERE src homes._ $X");
        assert_eq!(cat.rewrite_against_views(&q, &|_| 0).outcome, SemanticOutcome::Miss);
    }

    #[test]
    fn interior_generalization_is_not_covered() {
        let cat = ViewCatalog::new();
        let v = plan_of("CONSTRUCT <v> $X {$X} </v> {} WHERE src _.home $X");
        cat.record(&v, &answer_stub(), &[]).unwrap();
        // Interior labels are lost in the answer; cannot re-check them.
        let q = plan_of("CONSTRUCT <r> $X {$X} </r> {} WHERE src homes.home $X");
        assert_eq!(cat.rewrite_against_views(&q, &|_| 0).outcome, SemanticOutcome::Miss);
    }

    #[test]
    fn residual_navigation_survives_over_the_fragment() {
        let cat = ViewCatalog::new();
        cat.record(&plan_of(VIEW_Q), &answer_stub(), &[]).unwrap();
        // Query digs deeper than the view collected: the deeper GD and
        // its filter ride on top of the fragment.
        let q = plan_of(
            "CONSTRUCT <r> $H {$H} </r> {} \
             WHERE src homes.home $H AND $H zip._ $Z AND $Z = \"92093\"",
        );
        let rr = cat.rewrite_against_views(&q, &|_| 0);
        assert_eq!(rr.outcome, SemanticOutcome::Covered);
        let p = rr.plan.unwrap();
        p.validate().unwrap();
        let text = p.to_string();
        assert!(text.contains("getDescendants $H,zip._ -> $Z"), "{text}");
        assert!(text.contains("select $Z"), "{text}");
    }

    #[test]
    fn filtered_view_requires_matching_query_filter() {
        let cat = ViewCatalog::new();
        let v = plan_of(
            "CONSTRUCT <v> $P {$P} </v> {} \
             WHERE src items.item.price $P AND $P < 100",
        );
        cat.record(&v, &answer_stub(), &[]).unwrap();
        // Same filter → covered, and the filter is dropped (already
        // applied by the view).
        let q = plan_of(
            "CONSTRUCT <r> $P {$P} </r> {} \
             WHERE src items.item.price $P AND $P < 100",
        );
        let rr = cat.rewrite_against_views(&q, &|_| 0);
        assert_eq!(rr.outcome, SemanticOutcome::Covered);
        assert!(!rr.plan.unwrap().to_string().contains("select"), "filter should be dropped");
        // Missing filter → the view is a subset; not covered.
        let q = plan_of("CONSTRUCT <r> $P {$P} </r> {} WHERE src items.item.price $P");
        assert_eq!(cat.rewrite_against_views(&q, &|_| 0).outcome, SemanticOutcome::Miss);
        // Different literal → not covered.
        let q = plan_of(
            "CONSTRUCT <r> $P {$P} </r> {} \
             WHERE src items.item.price $P AND $P < 200",
        );
        assert_eq!(cat.rewrite_against_views(&q, &|_| 0).outcome, SemanticOutcome::Miss);
    }

    #[test]
    fn extra_boundary_filter_survives_as_residual_select() {
        let cat = ViewCatalog::new();
        cat.record(
            &plan_of("CONSTRUCT <v> $P {$P} </v> {} WHERE src items.item.price $P"),
            &answer_stub(),
            &[],
        )
        .unwrap();
        let q = plan_of(
            "CONSTRUCT <r> $P {$P} </r> {} \
             WHERE src items.item.price $P AND $P < 100",
        );
        let rr = cat.rewrite_against_views(&q, &|_| 0);
        assert_eq!(rr.outcome, SemanticOutcome::Covered);
        let text = rr.plan.unwrap().to_string();
        assert!(text.contains("select $P < 100"), "{text}");
    }

    #[test]
    fn selective_view_with_deep_constraint_requires_exact_reproduction() {
        let cat = ViewCatalog::new();
        // Collect $H, constrained by a deeper zip filter: the answer only
        // holds matching homes.
        let v = plan_of(
            "CONSTRUCT <v> $H {$H} </v> {} \
             WHERE src homes.home $H AND $H zip._ $Z AND $Z = \"92093\"",
        );
        cat.record(&v, &answer_stub(), &[]).unwrap();
        // Exact reproduction → covered, deep part dropped.
        let q = plan_of(
            "CONSTRUCT <r> $H {$H} </r> {} \
             WHERE src homes.home $H AND $H zip._ $Z AND $Z = \"92093\"",
        );
        let rr = cat.rewrite_against_views(&q, &|_| 0);
        assert_eq!(rr.outcome, SemanticOutcome::Covered);
        let p = rr.plan.unwrap();
        p.validate().unwrap();
        assert!(!p.to_string().contains("zip"), "deep part should be dropped:\n{p}");
        // Unconstrained query → the view under-covers; miss.
        let q = plan_of("CONSTRUCT <r> $H {$H} </r> {} WHERE src homes.home $H");
        assert_eq!(cat.rewrite_against_views(&q, &|_| 0).outcome, SemanticOutcome::Miss);
    }

    #[test]
    fn deep_var_used_in_head_blocks_the_drop() {
        let cat = ViewCatalog::new();
        let v = plan_of(
            "CONSTRUCT <v> $H {$H} </v> {} \
             WHERE src homes.home $H AND $H zip._ $Z AND $Z = \"92093\"",
        );
        cat.record(&v, &answer_stub(), &[]).unwrap();
        // The query's head needs $Z, but the drop would lose it.
        let q = plan_of(
            "CONSTRUCT <r> $Z {$Z} </r> {} \
             WHERE src homes.home $H AND $H zip._ $Z AND $Z = \"92093\"",
        );
        assert_eq!(cat.rewrite_against_views(&q, &|_| 0).outcome, SemanticOutcome::Miss);
    }

    #[test]
    fn multi_source_query_is_partial_when_one_branch_covered() {
        let cat = ViewCatalog::new();
        cat.record(
            &plan_of("CONSTRUCT <v> $A {$A} </v> {} WHERE s1 as.a $A"),
            &answer_stub(),
            &[],
        )
        .unwrap();
        let q = plan_of(
            "CONSTRUCT <r> $A {$A} $B {$B} </r> {} WHERE s1 as.a $A AND s2 bs.b $B",
        );
        let rr = cat.rewrite_against_views(&q, &|_| 0);
        assert_eq!(rr.outcome, SemanticOutcome::Partial);
        let p = rr.plan.unwrap();
        p.validate().unwrap();
        let names = p.source_names();
        assert!(names.contains(&view_source_name(0)));
        assert!(names.contains(&"s2".to_string()));
    }

    #[test]
    fn epoch_bump_purges_dependent_views() {
        let cat = ViewCatalog::new();
        cat.record(&plan_of(VIEW_Q), &answer_stub(), &[("src".into(), 0)]).unwrap();
        let q = plan_of("CONSTRUCT <r> $X {$X} </r> {} WHERE src homes.home $X");
        assert_eq!(cat.rewrite_against_views(&q, &|_| 0).outcome, SemanticOutcome::Covered);
        // The source moved on: the view is purged at rewrite time.
        assert_eq!(cat.rewrite_against_views(&q, &|_| 1).outcome, SemanticOutcome::Miss);
        assert!(cat.is_empty());
    }

    #[test]
    fn invalidate_source_purges_and_blocks_stale_record() {
        let cat = ViewCatalog::new();
        cat.record(&plan_of(VIEW_Q), &answer_stub(), &[("src".into(), 0)]).unwrap();
        assert_eq!(cat.invalidate_source("src"), 1);
        assert!(cat.is_empty());
        assert_eq!(cat.source_epoch("src"), 1);
        // An answer computed against epoch 0 is stale-on-arrival.
        assert!(cat.record(&plan_of(VIEW_Q), &answer_stub(), &[("src".into(), 0)]).is_none());
        // Re-recorded at the current epoch, it lives.
        assert!(cat.record(&plan_of(VIEW_Q), &answer_stub(), &[("src".into(), 1)]).is_some());
    }

    #[test]
    fn rewritten_plans_are_never_recorded() {
        let cat = ViewCatalog::new();
        cat.record(&plan_of(VIEW_Q), &answer_stub(), &[]).unwrap();
        let q = plan_of("CONSTRUCT <r> $X {$X} </r> {} WHERE src homes.home $X");
        let rr = cat.rewrite_against_views(&q, &|_| 0);
        let rewritten = rr.plan.unwrap();
        assert!(cat.record(&rewritten, &answer_stub(), &[]).is_none());
    }

    #[test]
    fn view_source_name_round_trips() {
        assert_eq!(parse_view_source(&view_source_name(42)), Some(42));
        assert_eq!(parse_view_source("src"), None);
        assert_eq!(parse_view_source("~view:x"), None);
    }
}
