//! Per-operator engine tables: what each operator *is*, and what it has
//! *seen*.
//!
//! Everything an operator needs at navigation time is preprocessed out of
//! the plan at engine construction, so navigation never re-inspects the
//! plan. That part — input operator ids, variables, predicates, compiled
//! NFAs, schema sets — is an [`OpSpec`]: fixed once the engine is built,
//! shared by every navigation, and borrowed, never copied, while one
//! operator's transducer table runs.
//!
//! What changes as the client navigates lives apart, in [`OpState`]: the
//! caches §3 prescribes (groupBy's buffered input scan with per-group
//! member lists, the nested-loop join's inner cache, each with a one-entry
//! memo of the last key it computed), the materialization state of the
//! unbrowsable operators and the resolved client root. Each kind of state
//! has a vector of its own; the spec of an operator that keeps state names
//! its index there (`slot`), so reaching it takes no match.

use crate::handle::{BHandle, VNode};
use mix_algebra::{BindPred, GroupItem, PlanId};
use mix_xmas::{LabelSpec, Nfa, StateSet, Var};
use mix_xml::{Document, Tree};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The navigation-time description of one plan operator.
pub(crate) enum OpSpec {
    Source {
        /// Index into the engine's source table.
        src: usize,
        out: Var,
    },
    GetDesc(GetDescSpec),
    Select {
        input: PlanId,
        pred: BindPred,
    },
    Join(JoinSpec),
    Cross {
        left: PlanId,
        right: PlanId,
        left_schema: HashSet<Var>,
    },
    Union {
        left: PlanId,
        right: PlanId,
    },
    Difference(DiffSpec),
    Project {
        input: PlanId,
        keep: HashSet<Var>,
    },
    GroupBy(GroupSpec),
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
        /// Index into [`OpState::sorted`].
        slot: usize,
    },
    /// The plan root, `tupleDestroy`: it exports a document, not bindings,
    /// so no binding navigation reaches it. Its input and variable are held
    /// by the engine itself, its resolved root by [`OpState::client_root`].
    Root,
}

pub(crate) struct GetDescSpec {
    pub input: PlanId,
    pub parent: Var,
    pub out: Var,
    pub nfa: Nfa,
    pub start_set: StateSet,
}

pub(crate) struct JoinSpec {
    pub left: PlanId,
    pub right: PlanId,
    pub pred: BindPred,
    pub left_schema: HashSet<Var>,
    /// Predicate variables that live on the inner (right) side.
    pub right_pred_vars: Vec<Var>,
    /// `Some((outer var, inner var))` when the predicate is a single
    /// equality spanning the inputs: the cache is probed by key.
    pub eq_keys: Option<(Var, Var)>,
    /// Index into [`OpState::joins`].
    pub slot: usize,
}

pub(crate) struct DiffSpec {
    pub left: PlanId,
    pub right: PlanId,
    pub schema: Vec<Var>,
    /// Index into [`OpState::right_keys`].
    pub slot: usize,
}

pub(crate) struct GroupSpec {
    pub input: PlanId,
    pub group: Vec<Var>,
    pub items: Vec<GroupItem>,
    /// Index into [`OpState::groups`].
    pub slot: usize,
}

/// The mutable per-operator state, one vector per kind, indexed by the
/// `slot` of the owning operator's spec.
#[derive(Default)]
pub(crate) struct OpState {
    pub joins: Vec<JoinCache>,
    pub groups: Vec<GroupCache>,
    /// Difference: canonical keys of the right side, materialized on
    /// first use.
    pub right_keys: Vec<Option<HashSet<String>>>,
    /// OrderBy: sorted input bindings, materialized on first access (the
    /// operator is unbrowsable by design).
    pub sorted: Vec<Option<Vec<BHandle>>>,
    /// The client root below `tupleDestroy`, resolved on the first real
    /// navigation.
    pub client_root: Option<VNode>,
}

/// Append a fresh entry to one of [`OpState`]'s vectors; its index is the
/// owning operator's slot.
pub(crate) fn new_slot<T: Default>(v: &mut Vec<T>) -> usize {
    v.push(T::default());
    v.len() - 1
}

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
