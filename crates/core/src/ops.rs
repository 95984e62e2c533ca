//! Per-operator engine state.
//!
//! Everything an operator needs at navigation time is preprocessed out of
//! the plan at engine construction, so navigation never re-inspects the
//! plan: input operator ids, variables, predicates, compiled NFAs, schema
//! sets — plus the caches §3 prescribes (groupBy's buffered input scan with
//! per-group member lists, the nested-loop join's inner cache, each with a
//! one-entry memo of the last key it computed) and the materialization
//! state of the unbrowsable operators.

use crate::handle::{BHandle, VNode};
use mix_algebra::{BindPred, GroupItem, PlanId};
use mix_xmas::{LabelSpec, Nfa, StateSet, Var};
use mix_xml::{Document, Tree};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One materialized binding: `(variable, its value as an arena document)`.
pub(crate) type MatRow = Vec<(Var, Arc<Document>)>;

/// Inner-side cache of a nested-loop join: the inner bindings pulled so
/// far, in order, plus "the attributes that participate in the join
/// condition" (§3) in the form the predicate is probed by — a key index
/// for a single cross-input equality, the predicate values per entry for
/// everything else. Exactly one of `index` / `pred_vals` is populated.
#[derive(Default)]
pub(crate) struct JoinCache {
    pub handles: Vec<BHandle>,
    /// The inner input is fully enumerated.
    pub complete: bool,
    /// Keyed joins: canonical inner key → indices into `handles`
    /// (ascending).
    pub index: HashMap<String, Vec<usize>>,
    /// Scanned joins: the inner-side predicate values of `handles[i]`.
    pub pred_vals: Vec<HashMap<Var, Tree>>,
    /// Keyed joins: the last outer key computed, with the binding that
    /// defines the outer key variable. Handles are persistent and a
    /// binding's values are a function of its handle (§3), so the key is
    /// reused while the next outer binding's defining binding is
    /// `Arc::ptr_eq` to this one.
    pub outer_key: Option<(BHandle, String)>,
}

/// The groupBy caches (Fig. 10's buffering remark: "the mediator stores
/// the list in the buffer and uses a reference to the buffer in the
/// node-ids"). One shared scan over the input files every binding under
/// its group exactly once; a group's first binding and a member's next
/// one are then looked up by index, never by walking the scan.
#[derive(Default)]
pub(crate) struct GroupCache {
    /// Input bindings in order, each with its group id, recorded the
    /// first time the scan passes over it.
    pub scanned: Vec<(usize, BHandle)>,
    /// The input is fully scanned.
    pub exhausted: bool,
    /// Group key → group id (`G_prev` of Fig. 10). Ids count groups in
    /// order of first occurrence, which is output order.
    pub ids: HashMap<String, usize>,
    /// Per group id, the indices into `scanned` of its members
    /// (ascending).
    pub members: Vec<Vec<usize>>,
    /// The last scanned entry's defining bindings (one per group
    /// variable) and group id: an entry whose group variables are defined
    /// by the same bindings has the same key, so it is not recomputed.
    /// Grouping itself stays by value, through `ids`.
    pub last_def: Option<(Vec<BHandle>, usize)>,
}

/// Navigation-time state per plan operator.
pub(crate) enum OpState {
    Source {
        /// Index into the engine's source table.
        src: usize,
        out: Var,
    },
    GetDesc {
        input: PlanId,
        parent: Var,
        out: Var,
        nfa: Arc<Nfa>,
        start_set: StateSet,
    },
    Select {
        input: PlanId,
        pred: BindPred,
    },
    Join {
        left: PlanId,
        right: PlanId,
        pred: BindPred,
        left_schema: Arc<HashSet<Var>>,
        /// Predicate variables that live on the inner (right) side.
        right_pred_vars: Vec<Var>,
        /// `Some((outer var, inner var))` when the predicate is a single
        /// equality spanning the inputs: the cache is probed by key.
        eq_keys: Option<(Var, Var)>,
        cache: JoinCache,
    },
    Cross {
        left: PlanId,
        right: PlanId,
        left_schema: Arc<HashSet<Var>>,
    },
    Union {
        left: PlanId,
        right: PlanId,
    },
    Difference {
        left: PlanId,
        right: PlanId,
        schema: Vec<Var>,
        /// Canonical keys of the right side, materialized on first use.
        right_keys: Option<Arc<HashSet<String>>>,
    },
    Project {
        input: PlanId,
        keep: HashSet<Var>,
    },
    GroupBy {
        input: PlanId,
        group: Vec<Var>,
        items: Vec<GroupItem>,
        cache: GroupCache,
    },
    Concat {
        input: PlanId,
        x: Var,
        y: Var,
        out: Var,
    },
    Create {
        input: PlanId,
        label: LabelSpec,
        ch: Var,
        out: Var,
    },
    Constant {
        input: PlanId,
        doc: Arc<Document>,
        out: Var,
    },
    Wrap {
        input: PlanId,
        var: Var,
        out: Var,
    },
    OrderBy {
        input: PlanId,
        keys: Vec<Var>,
        /// Sorted input bindings, materialized on first access (the
        /// operator is unbrowsable by design).
        sorted: Option<Arc<Vec<BHandle>>>,
    },
    TupleDestroy {
        input: PlanId,
        var: Var,
        /// Resolved client root (cached after the first navigation).
        root: Option<VNode>,
    },
    Materialize {
        input: PlanId,
        /// The input schema, in order.
        schema: Vec<Var>,
        /// The fully materialized binding list (one document per value),
        /// filled on first access — the intermediate eager step.
        rows: Option<Arc<Vec<MatRow>>>,
    },
}

impl OpState {
    /// The operator's algebra name, for trace events and rollups.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            OpState::Source { .. } => "source",
            OpState::GetDesc { .. } => "getDescendants",
            OpState::Select { .. } => "select",
            OpState::Join { .. } => "join",
            OpState::Cross { .. } => "cross",
            OpState::Union { .. } => "union",
            OpState::Difference { .. } => "difference",
            OpState::Project { .. } => "project",
            OpState::GroupBy { .. } => "groupBy",
            OpState::Concat { .. } => "concatenate",
            OpState::Create { .. } => "createElement",
            OpState::Constant { .. } => "constant",
            OpState::Wrap { .. } => "wrap",
            OpState::OrderBy { .. } => "orderBy",
            OpState::TupleDestroy { .. } => "tupleDestroy",
            OpState::Materialize { .. } => "materialize",
        }
    }
}
