//! Open trees and XML fragments (paper Defs. 3–4, Example 6).
//!
//! An element of the form `hole[id]` is a *hole*; a tree containing holes
//! is *open* (partial), otherwise *closed* (complete). A hole represents
//! **zero or more** unexplored sibling elements, so the number of items in
//! an open list generally differs from the length of the complete list it
//! represents.

use crate::lxp::HoleId;
use mix_xml::{Label, Tree};
use std::fmt;

/// One fragment of an open tree: a node (with possibly-open children) or a
/// hole standing for zero or more unexplored siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fragment {
    /// An element with label and (open) child list.
    Node { label: Label, children: Vec<Fragment> },
    /// `hole[id]` — unexplored siblings.
    Hole(HoleId),
}

impl Fragment {
    /// A leaf node.
    pub fn leaf(label: impl Into<Label>) -> Self {
        Fragment::Node { label: label.into(), children: Vec::new() }
    }

    /// A node with children.
    pub fn node(label: impl Into<Label>, children: Vec<Fragment>) -> Self {
        Fragment::Node { label: label.into(), children }
    }

    /// A hole.
    pub fn hole(id: impl Into<HoleId>) -> Self {
        Fragment::Hole(id.into())
    }

    /// True when this fragment is a hole.
    pub fn is_hole(&self) -> bool {
        matches!(self, Fragment::Hole(_))
    }

    /// Convert a complete tree into a (closed) fragment.
    pub fn from_tree(t: &Tree) -> Self {
        Fragment::Node {
            label: t.label().clone(),
            children: t.children().iter().map(Fragment::from_tree).collect(),
        }
    }

    /// Convert back to a tree; fails (returns `None`) if any hole remains.
    pub fn to_tree(&self) -> Option<Tree> {
        match self {
            Fragment::Hole(_) => None,
            Fragment::Node { label, children } => {
                let mut out = Vec::with_capacity(children.len());
                for c in children {
                    out.push(c.to_tree()?);
                }
                Some(Tree::node(label.clone(), out))
            }
        }
    }

    /// True when the fragment contains no holes anywhere.
    pub fn is_closed(&self) -> bool {
        match self {
            Fragment::Hole(_) => false,
            Fragment::Node { children, .. } => children.iter().all(Fragment::is_closed),
        }
    }

    /// Number of (non-hole) nodes — the cost model's unit for fragment
    /// volume.
    pub fn node_count(&self) -> usize {
        match self {
            Fragment::Hole(_) => 0,
            Fragment::Node { children, .. } => {
                1 + children.iter().map(Fragment::node_count).sum::<usize>()
            }
        }
    }

    /// Approximate wire size in bytes: label bytes plus a small framing
    /// constant per node or hole. Used by the granularity experiments to
    /// compare protocols.
    pub fn wire_bytes(&self) -> usize {
        const FRAME: usize = 8;
        match self {
            Fragment::Hole(id) => FRAME + id.len(),
            Fragment::Node { label, children } => {
                FRAME + label.len() + children.iter().map(Fragment::wire_bytes).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Fragment {
    /// Term-like syntax with `◦id` for holes, as in the paper's Example 6
    /// (`r[◦3,b,c,◦4]`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fragment::Hole(id) => write!(f, "◦{id}"),
            Fragment::Node { label, children } => {
                write!(f, "{label}")?;
                if !children.is_empty() {
                    write!(f, "[")?;
                    for (i, c) in children.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{c}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
        }
    }
}

/// Stable identifier of a buffered node: an index into an [`OpenTree`]'s
/// node slab. Ids stay valid for the life of the tree, across any number
/// of splices — the paper's requirement that "an incoming navigation
/// command may involve any previously encountered pointer".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufNodeId(u32);

impl BufNodeId {
    /// The root of every open tree (the first node interned).
    pub const ROOT: BufNodeId = BufNodeId(0);

    /// Raw slab index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl mix_nav::IntHandle for BufNodeId {
    fn to_int(&self) -> u64 {
        u64::from(self.0)
    }

    fn from_int(raw: u64) -> Self {
        BufNodeId(raw as u32)
    }
}

/// Index of a hole record in an [`OpenTree`]'s hole slab. Only valid
/// while the hole is live (slots are recycled after a splice fills them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HoleSlot(u32);

impl HoleSlot {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One child-list entry of an open-tree node: a materialized child or a
/// live hole. Two words, `Copy` — child lists move with `memcpy`, not
/// per-entry clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeEntry {
    /// A materialized child node.
    Node(BufNodeId),
    /// A live hole (unexplored siblings).
    Hole(HoleSlot),
}

const NONE: u32 = u32::MAX;

/// Padding entry for unused pool capacity; never read (lengths guard).
const PAD: TreeEntry = TreeEntry::Node(BufNodeId(NONE));

#[derive(Debug)]
struct NodeRec {
    label: Label,
    parent: Option<BufNodeId>,
    /// Position within the parent's child list; maintained across splices.
    idx: u32,
    /// Child range `[start, start+len)` in the entry pool, with `cap`
    /// reserved entries (bump-grown; an outgrown range is abandoned).
    start: u32,
    len: u32,
    cap: u32,
}

#[derive(Debug)]
struct HoleRec {
    id: HoleId,
    /// Document-order neighbours among live holes (`NONE` = list end).
    prev: u32,
    next: u32,
    /// Document-order neighbours among askable holes (live, not parked);
    /// meaningless while the hole is parked.
    ask_prev: u32,
    ask_next: u32,
    live: bool,
    /// A reply for this hole is already in hand (the buffer's pending
    /// batch cache), so no exchange should ask for it.
    parked: bool,
}

impl HoleRec {
    fn new(id: HoleId) -> Self {
        HoleRec { id, prev: NONE, next: NONE, ask_prev: NONE, ask_next: NONE, live: true, parked: false }
    }
}

/// Work counters for the hole lists, compiled into unit tests only: the
/// count gates pin them flat in the size of the source.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct HoleSteps {
    /// Askable-list entries visited by [`OpenTree::askable`] iterators.
    pub(crate) list: std::cell::Cell<u64>,
    /// Live-list entries visited while placing a hole in the askable list.
    pub(crate) search: std::cell::Cell<u64>,
}

#[cfg(test)]
fn bump(c: &std::cell::Cell<u64>) {
    c.set(c.get() + 1);
}

/// An arena-allocated open tree (paper Def. 3).
///
/// Three flat stores replace per-node boxing:
///
/// - a **node slab** (`BufNodeId`-indexed; labels, parent links, child
///   ranges) — a leaf node is one slab record and *zero* heap
///   allocations of its own;
/// - a bump-style **child-entry pool** holding every node's child list
///   as a contiguous range. Splices that fit the reserved capacity move
///   entries in place; growth abandons the old range and bump-allocates
///   a geometrically larger one, so the repeated trailing-hole splice of
///   a scan is amortized O(1) per arriving child;
/// - a **hole slab** threaded by two doubly-linked lists in document
///   order: every live hole, and the *askable* ones — live holes whose
///   reply is not already parked in the buffer (`OpenTree::park`). A
///   batched fill reads its batch off the head of the askable list
///   (`OpenTree::askable`): O(batch limit) per exchange, however many
///   parked holes precede the first askable one. A splice replaces one
///   askable hole's position in both lists with the reply's new holes,
///   and parking a hole unlinks it in O(1). Unparking one finds its
///   askable position by walking the live list outwards to the nearest
///   askable hole on either side — O(distance to it): none on a walk
///   that consumes parked replies in document order, but up to a whole
///   run of parked holes when the buffer evicts one from its middle.
///
/// All indices are stable: node ids never move, and pool ranges are only
/// ever abandoned, never compacted, while the tree lives.
#[derive(Debug)]
pub struct OpenTree {
    nodes: Vec<NodeRec>,
    pool: Vec<TreeEntry>,
    holes: Vec<HoleRec>,
    free_holes: Vec<u32>,
    /// Head/tail of the live-hole list in document order.
    head: u32,
    tail: u32,
    /// Head/tail of the askable-hole list in document order.
    ask_head: u32,
    ask_tail: u32,
    live_holes: usize,
    #[cfg(test)]
    pub(crate) steps: HoleSteps,
}

impl Default for OpenTree {
    fn default() -> Self {
        OpenTree::new()
    }
}

impl OpenTree {
    /// An empty tree (no nodes, no holes).
    pub fn new() -> Self {
        OpenTree {
            nodes: Vec::new(),
            pool: Vec::new(),
            holes: Vec::new(),
            free_holes: Vec::new(),
            head: NONE,
            tail: NONE,
            ask_head: NONE,
            ask_tail: NONE,
            live_holes: 0,
            #[cfg(test)]
            steps: HoleSteps::default(),
        }
    }

    /// Number of materialized nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of live holes.
    pub fn live_holes(&self) -> usize {
        self.live_holes
    }

    /// Is `id` a materialized node of this tree?
    pub fn contains(&self, id: BufNodeId) -> bool {
        id.index() < self.nodes.len()
    }

    /// Allocate a node record with an empty child list. Returns `None`
    /// when the slab outgrows its 32-bit id space.
    pub fn alloc_node(
        &mut self,
        label: Label,
        parent: Option<BufNodeId>,
        idx: usize,
    ) -> Option<BufNodeId> {
        let id = u32::try_from(self.nodes.len()).ok().filter(|&n| n != NONE)?;
        let idx = u32::try_from(idx).ok()?;
        self.nodes.push(NodeRec { label, parent, idx, start: 0, len: 0, cap: 0 });
        Some(BufNodeId(id))
    }

    /// Reserve an exact-capacity child range for `node` (which must not
    /// have children yet). Entries start as padding; the caller fills
    /// them with [`OpenTree::set_child`]. Returns `false` on pool
    /// overflow (4G entries).
    pub fn reserve_children(&mut self, node: BufNodeId, n: usize) -> bool {
        debug_assert_eq!(self.nodes[node.index()].len, 0, "children already reserved");
        if n == 0 {
            return true;
        }
        let Ok(start) = u32::try_from(self.pool.len()) else { return false };
        let Ok(n32) = u32::try_from(n) else { return false };
        if start.checked_add(n32).is_none() {
            return false;
        }
        self.pool.resize(self.pool.len() + n, PAD);
        let rec = &mut self.nodes[node.index()];
        rec.start = start;
        rec.len = n32;
        rec.cap = n32;
        true
    }

    /// Write child `i` of `node` (within the reserved range).
    pub fn set_child(&mut self, node: BufNodeId, i: usize, e: TreeEntry) {
        let rec = &self.nodes[node.index()];
        debug_assert!(i < rec.len as usize);
        self.pool[rec.start as usize + i] = e;
    }

    /// Child `i` of `node`, if it exists.
    pub fn child(&self, node: BufNodeId, i: usize) -> Option<TreeEntry> {
        let rec = &self.nodes[node.index()];
        (i < rec.len as usize).then(|| self.pool[rec.start as usize + i])
    }

    /// The child list of `node`.
    pub fn children(&self, node: BufNodeId) -> &[TreeEntry] {
        let rec = &self.nodes[node.index()];
        &self.pool[rec.start as usize..(rec.start + rec.len) as usize]
    }

    /// The label of `node`.
    pub fn label(&self, node: BufNodeId) -> &Label {
        &self.nodes[node.index()].label
    }

    /// The parent of `node`.
    pub fn parent(&self, node: BufNodeId) -> Option<BufNodeId> {
        self.nodes[node.index()].parent
    }

    /// `node`'s position within its parent's child list.
    pub fn idx(&self, node: BufNodeId) -> usize {
        self.nodes[node.index()].idx as usize
    }

    /// Replace the entry at child position `i` of `parent` with
    /// `replacement`, shifting the suffix and fixing the cached `idx` of
    /// shifted materialized siblings. In-place when the reserved
    /// capacity suffices; otherwise the range is abandoned and a
    /// geometrically larger one is bump-allocated. Returns `false` on
    /// pool overflow.
    pub fn splice_children(
        &mut self,
        parent: BufNodeId,
        i: usize,
        replacement: &[TreeEntry],
    ) -> bool {
        let rec = &self.nodes[parent.index()];
        let (start, len, cap) = (rec.start as usize, rec.len as usize, rec.cap as usize);
        debug_assert!(i < len, "splice target must exist");
        let r = replacement.len();
        let new_len = len - 1 + r;
        if new_len <= cap {
            self.pool.copy_within(start + i + 1..start + len, start + i + r);
            self.pool[start + i..start + i + r].copy_from_slice(replacement);
            let rec = &mut self.nodes[parent.index()];
            rec.len = new_len as u32;
        } else {
            // Outgrown: abandon the old range, bump-allocate a larger
            // one. Doubling keeps the scan's repeated trailing-hole
            // splice amortized O(1) and bounds abandoned garbage by the
            // live pool size.
            let new_cap = new_len.max(cap.saturating_mul(2));
            let Ok(new_start) = u32::try_from(self.pool.len()) else { return false };
            if u32::try_from(new_cap).is_err()
                || new_start.checked_add(new_cap as u32).is_none()
            {
                return false;
            }
            self.pool.reserve(new_cap);
            self.pool.extend_from_within(start..start + i);
            self.pool.extend_from_slice(replacement);
            self.pool.extend_from_within(start + i + 1..start + len);
            self.pool.resize(new_start as usize + new_cap, PAD);
            let rec = &mut self.nodes[parent.index()];
            rec.start = new_start;
            rec.len = new_len as u32;
            rec.cap = new_cap as u32;
        }
        // Positions after the splice point shifted by r - 1.
        if r != 1 {
            let rec = &self.nodes[parent.index()];
            let start = rec.start as usize;
            for pos in i + r..new_len {
                if let TreeEntry::Node(id) = self.pool[start + pos] {
                    self.nodes[id.index()].idx = pos as u32;
                }
            }
        }
        true
    }

    /// Allocate a live, askable hole record (recycling freed slots). The
    /// hole is not yet part of the document-order lists — see
    /// [`OpenTree::relink_holes`].
    pub fn new_hole(&mut self, id: HoleId) -> HoleSlot {
        self.live_holes += 1;
        if let Some(slot) = self.free_holes.pop() {
            self.holes[slot as usize] = HoleRec::new(id);
            return HoleSlot(slot);
        }
        let slot = u32::try_from(self.holes.len()).expect("hole slab overflow");
        self.holes.push(HoleRec::new(id));
        HoleSlot(slot)
    }

    /// The wrapper hole id stored in `slot` (which must be live).
    pub fn hole_id(&self, slot: HoleSlot) -> &HoleId {
        debug_assert!(self.holes[slot.index()].live, "hole slot used after free");
        &self.holes[slot.index()].id
    }

    /// Replace `old` (if any) in the document-order hole lists with the
    /// already-allocated slots of `seq`, in order, and free `old`. With
    /// `old == None` the sequence is appended at the tail (the initial
    /// root intern). This is the one incremental update that keeps the
    /// live list equal to a DFS enumeration of the tree's holes: a splice
    /// confines its new holes to exactly the interval the old hole
    /// occupied. `old` must be askable (unpark it first), and `seq`, all
    /// askable too, takes its place in the askable list as well.
    pub fn relink_holes(&mut self, old: Option<HoleSlot>, seq: &[HoleSlot]) {
        let (before, after, ask_before, ask_after) = match old {
            Some(h) => {
                let rec = &self.holes[h.index()];
                debug_assert!(rec.live && !rec.parked, "relink of a freed or parked hole");
                (rec.prev, rec.next, rec.ask_prev, rec.ask_next)
            }
            None => (self.tail, NONE, self.ask_tail, NONE),
        };
        if let Some(h) = old {
            let rec = &mut self.holes[h.index()];
            rec.live = false;
            rec.id = HoleId::new();
            self.free_holes.push(h.0);
            self.live_holes -= 1;
        }
        self.link_run(List::Live, before, seq, after);
        self.link_run(List::Askable, ask_before, seq, ask_after);
    }

    /// Link `seq` between `before` and `after` of `list`, which must be
    /// adjacent there apart from what `seq` replaces. `NONE` stands for
    /// the list's ends; an empty run bridges `before` and `after`.
    fn link_run(&mut self, list: List, before: u32, seq: &[HoleSlot], after: u32) {
        let mut last = before;
        for &s in seq {
            self.set_next(list, last, s.0);
            self.set_prev(list, s.0, last);
            last = s.0;
        }
        self.set_next(list, last, after);
        self.set_prev(list, after, last);
    }

    /// Point `from`'s forward link in `list` at `to` (the head for `NONE`).
    fn set_next(&mut self, list: List, from: u32, to: u32) {
        match (list, from) {
            (List::Live, NONE) => self.head = to,
            (List::Live, f) => self.holes[f as usize].next = to,
            (List::Askable, NONE) => self.ask_head = to,
            (List::Askable, f) => self.holes[f as usize].ask_next = to,
        }
    }

    /// Point `from`'s backward link in `list` at `to` (the tail for `NONE`).
    fn set_prev(&mut self, list: List, from: u32, to: u32) {
        match (list, from) {
            (List::Live, NONE) => self.tail = to,
            (List::Live, f) => self.holes[f as usize].prev = to,
            (List::Askable, NONE) => self.ask_tail = to,
            (List::Askable, f) => self.holes[f as usize].ask_prev = to,
        }
    }

    /// The askable neighbours `(before, after)` of a hole whose live
    /// neighbours are `back` and `fwd`: walk outwards from
    /// both, one hole at a time on each side, and stop at the first
    /// askable hole or list end.
    fn ask_position(&self, mut back: u32, mut fwd: u32) -> (u32, u32) {
        loop {
            if back == NONE {
                return (NONE, self.ask_head);
            }
            #[cfg(test)]
            bump(&self.steps.search);
            let b = &self.holes[back as usize];
            if !b.parked {
                return (back, b.ask_next);
            }
            if fwd == NONE {
                return (self.ask_tail, NONE);
            }
            #[cfg(test)]
            bump(&self.steps.search);
            let f = &self.holes[fwd as usize];
            if !f.parked {
                return (f.ask_prev, fwd);
            }
            back = b.prev;
            fwd = f.next;
        }
    }

    /// Mark the live, askable hole `slot` as parked: its reply is in
    /// hand, so batches stop offering it. O(1).
    pub(crate) fn park(&mut self, slot: HoleSlot) {
        let rec = &mut self.holes[slot.index()];
        debug_assert!(rec.live && !rec.parked, "park of a freed or parked hole");
        rec.parked = true;
        let (before, after) = (rec.ask_prev, rec.ask_next);
        self.link_run(List::Askable, before, &[], after);
    }

    /// Return the live, parked hole `slot` to the askable list (its
    /// parked reply was dropped). O(distance to the nearest askable hole).
    pub(crate) fn unpark(&mut self, slot: HoleSlot) {
        let rec = &self.holes[slot.index()];
        debug_assert!(rec.live && rec.parked, "unpark of a freed or askable hole");
        let (before, after) = self.ask_position(rec.prev, rec.next);
        self.holes[slot.index()].parked = false;
        self.link_run(List::Askable, before, &[slot], after);
    }

    /// Unpark every live hole (all parked replies were dropped at once):
    /// one pass over the live list, which the askable list then equals.
    pub(crate) fn unpark_all(&mut self) {
        let mut i = self.head;
        while i != NONE {
            let rec = &mut self.holes[i as usize];
            rec.parked = false;
            rec.ask_prev = rec.prev;
            rec.ask_next = rec.next;
            i = rec.next;
        }
        self.ask_head = self.head;
        self.ask_tail = self.tail;
    }

    /// The askable holes — live, not parked — in document order, with
    /// their slots.
    pub(crate) fn askable(&self) -> Askable<'_> {
        Askable { tree: self, next: self.ask_head }
    }

    /// Every live hole in document order as `(slot, id, parked)`.
    #[cfg(test)]
    pub(crate) fn live_in_order(&self) -> impl Iterator<Item = (HoleSlot, &HoleId, bool)> {
        let mut i = self.head;
        std::iter::from_fn(move || {
            let slot = HoleSlot(i);
            let rec = self.holes.get(i as usize)?;
            i = rec.next;
            Some((slot, &rec.id, rec.parked))
        })
    }

    /// Render the subtree under `id` in the paper's `r[a,◦2]` notation.
    pub fn fragment_of(&self, id: BufNodeId) -> Fragment {
        Fragment::Node {
            label: self.label(id).clone(),
            children: self
                .children(id)
                .iter()
                .map(|e| match e {
                    TreeEntry::Node(c) => self.fragment_of(*c),
                    TreeEntry::Hole(h) => Fragment::Hole(self.hole_id(*h).clone()),
                })
                .collect(),
        }
    }
}

/// The two document-order lists threaded through the hole slab.
#[derive(Clone, Copy)]
enum List {
    Live,
    Askable,
}

/// Iterator over an [`OpenTree`]'s askable holes in document order.
pub(crate) struct Askable<'a> {
    tree: &'a OpenTree,
    next: u32,
}

impl<'a> Iterator for Askable<'a> {
    type Item = (HoleSlot, &'a HoleId);

    fn next(&mut self) -> Option<(HoleSlot, &'a HoleId)> {
        if self.next == NONE {
            return None;
        }
        #[cfg(test)]
        bump(&self.tree.steps.list);
        let slot = HoleSlot(self.next);
        let rec = &self.tree.holes[self.next as usize];
        self.next = rec.ask_next;
        Some((slot, &rec.id))
    }
}

/// Does the open child list `open` *represent* the complete child list
/// `complete` (Def. 4)? Each hole may be substituted by zero or more
/// consecutive elements; non-hole fragments must match recursively in
/// order.
pub fn represents(open: &[Fragment], complete: &[Tree]) -> bool {
    // Backtracking match: holes are `.*` over sibling lists.
    fn go(open: &[Fragment], complete: &[Tree]) -> bool {
        match open.first() {
            None => complete.is_empty(),
            Some(Fragment::Hole(_)) => {
                // Try consuming 0..=len elements.
                (0..=complete.len()).any(|k| go(&open[1..], &complete[k..]))
            }
            Some(Fragment::Node { label, children }) => match complete.first() {
                Some(t) if t.label() == label && go(children, t.children()) => {
                    go(&open[1..], &complete[1..])
                }
                _ => false,
            },
        }
    }
    go(open, complete)
}

/// Does a single open tree represent a complete tree?
pub fn tree_represents(open: &Fragment, complete: &Tree) -> bool {
    match open {
        Fragment::Hole(_) => true, // a hole can stand for any single element (or more)
        Fragment::Node { label, children } => {
            label == complete.label() && represents(children, complete.children())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_xml::term::parse_term;

    fn t(s: &str) -> Tree {
        parse_term(s).unwrap()
    }

    #[test]
    fn example_6_possible_open_trees() {
        // "Consider the complete tree t = r[a,b,c]. Possible open trees t′
        //  for t are, e.g., r[◦1], r[a,◦2], and r[◦3,b,c,◦4]."
        let complete = t("r[a,b,c]");
        let r1 = Fragment::node("r", vec![Fragment::hole("1")]);
        let r2 = Fragment::node("r", vec![Fragment::leaf("a"), Fragment::hole("2")]);
        let r3 = Fragment::node(
            "r",
            vec![
                Fragment::hole("3"),
                Fragment::leaf("b"),
                Fragment::leaf("c"),
                Fragment::hole("4"),
            ],
        );
        assert!(tree_represents(&r1, &complete));
        assert!(tree_represents(&r2, &complete));
        assert!(tree_represents(&r3, &complete));
        // ◦3 represents [a], ◦4 represents [] — both "zero or more".
    }

    #[test]
    fn representation_respects_order_and_labels() {
        let complete = t("r[a,b,c]");
        // Wrong order.
        let bad = Fragment::node("r", vec![Fragment::leaf("b"), Fragment::hole("1")]);
        assert!(!tree_represents(&bad, &complete));
        // Wrong root label.
        let bad2 = Fragment::node("x", vec![Fragment::hole("1")]);
        assert!(!tree_represents(&bad2, &complete));
        // Fragment with more elements than the complete list.
        let bad3 = Fragment::node(
            "r",
            vec![
                Fragment::leaf("a"),
                Fragment::leaf("b"),
                Fragment::leaf("c"),
                Fragment::leaf("d"),
            ],
        );
        assert!(!tree_represents(&bad3, &complete));
    }

    #[test]
    fn nested_holes() {
        let complete = t("a[b[d,e],c]");
        let open = Fragment::node(
            "a",
            vec![Fragment::node("b", vec![Fragment::hole("2")]), Fragment::hole("3")],
        );
        assert!(tree_represents(&open, &complete));
    }

    #[test]
    fn closed_fragment_roundtrip() {
        let tree = t("a[b[d,e],c]");
        let frag = Fragment::from_tree(&tree);
        assert!(frag.is_closed());
        assert_eq!(frag.to_tree().unwrap(), tree);
        assert_eq!(frag.node_count(), 5);
    }

    #[test]
    fn open_fragment_has_no_tree() {
        let open = Fragment::node("a", vec![Fragment::hole("1")]);
        assert!(!open.is_closed());
        assert!(open.to_tree().is_none());
        assert_eq!(open.node_count(), 1);
    }

    #[test]
    fn display_matches_paper_notation() {
        let open = Fragment::node(
            "r",
            vec![Fragment::hole("3"), Fragment::leaf("b"), Fragment::leaf("c"), Fragment::hole("4")],
        );
        assert_eq!(open.to_string(), "r[◦3,b,c,◦4]");
    }

    #[test]
    fn wire_bytes_grow_with_content() {
        let small = Fragment::leaf("a");
        let big = Fragment::from_tree(&t("row[att1[v1],att2[v2],att3[v3]]"));
        assert!(big.wire_bytes() > small.wire_bytes());
    }

    #[test]
    fn empty_hole_represents_empty_list() {
        assert!(represents(&[Fragment::hole("x")], &[]));
        assert!(represents(&[], &[]));
        assert!(!represents(&[], &[t("a")]));
    }

    // ---- OpenTree arena -------------------------------------------------

    /// The live holes' ids in document order.
    fn live_ids(t: &OpenTree) -> Vec<&str> {
        t.live_in_order().map(|(_, h, _)| h.as_str()).collect()
    }

    /// The askable list, read forwards and backwards, is the live list
    /// without its parked holes.
    fn assert_askable_is_unparked_live(t: &OpenTree) {
        let want: Vec<HoleSlot> =
            t.live_in_order().filter(|(_, _, p)| !p).map(|(s, _, _)| s).collect();
        let fwd: Vec<HoleSlot> = t.askable().map(|(s, _)| s).collect();
        assert_eq!(fwd, want, "askable list forwards");
        let mut back = Vec::new();
        let mut i = t.ask_tail;
        while i != NONE {
            back.push(HoleSlot(i));
            i = t.holes[i as usize].ask_prev;
        }
        back.reverse();
        assert_eq!(back, want, "askable list backwards");
    }

    /// `r[a, ◦1, b]` with the hole registered in the order list.
    fn small_tree() -> (OpenTree, BufNodeId, HoleSlot) {
        let mut t = OpenTree::new();
        let r = t.alloc_node(Label::new("r"), None, 0).unwrap();
        assert!(t.reserve_children(r, 3));
        let a = t.alloc_node(Label::new("a"), Some(r), 0).unwrap();
        let h = t.new_hole("1".to_string());
        let b = t.alloc_node(Label::new("b"), Some(r), 2).unwrap();
        t.set_child(r, 0, TreeEntry::Node(a));
        t.set_child(r, 1, TreeEntry::Hole(h));
        t.set_child(r, 2, TreeEntry::Node(b));
        t.relink_holes(None, &[h]);
        (t, r, h)
    }

    #[test]
    fn arena_renders_the_paper_notation() {
        let (t, r, _) = small_tree();
        assert_eq!(t.fragment_of(r).to_string(), "r[a,◦1,b]");
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.live_holes(), 1);
    }

    #[test]
    fn splice_fixes_sibling_indices_and_hole_list() {
        let (mut t, r, h) = small_tree();
        // Fill ◦1 with [x, ◦2, ◦3]: b shifts from idx 2 to idx 4.
        let x = t.alloc_node(Label::new("x"), Some(r), 1).unwrap();
        let h2 = t.new_hole("2".to_string());
        let h3 = t.new_hole("3".to_string());
        assert!(t.splice_children(
            r,
            1,
            &[TreeEntry::Node(x), TreeEntry::Hole(h2), TreeEntry::Hole(h3)]
        ));
        t.relink_holes(Some(h), &[h2, h3]);
        assert_eq!(t.fragment_of(r).to_string(), "r[a,x,◦2,◦3,b]");
        let b = match t.child(r, 4).unwrap() {
            TreeEntry::Node(id) => id,
            e => panic!("expected b, got {e:?}"),
        };
        assert_eq!(t.label(b).as_str(), "b");
        assert_eq!(t.idx(b), 4, "shifted sibling's cached idx is fixed");
        let order = live_ids(&t);
        assert_eq!(order, ["2", "3"], "reply holes take the old hole's position");
        assert_eq!(t.live_holes(), 2);
    }

    #[test]
    fn empty_splice_removes_the_hole_and_bridges_the_list() {
        let mut t = OpenTree::new();
        let r = t.alloc_node(Label::new("r"), None, 0).unwrap();
        assert!(t.reserve_children(r, 3));
        let h1 = t.new_hole("1".to_string());
        let h2 = t.new_hole("2".to_string());
        let h3 = t.new_hole("3".to_string());
        t.set_child(r, 0, TreeEntry::Hole(h1));
        t.set_child(r, 1, TreeEntry::Hole(h2));
        t.set_child(r, 2, TreeEntry::Hole(h3));
        t.relink_holes(None, &[h1, h2, h3]);
        // Middle hole evaporates (empty reply).
        assert!(t.splice_children(r, 1, &[]));
        t.relink_holes(Some(h2), &[]);
        assert_eq!(t.fragment_of(r).to_string(), "r[◦1,◦3]");
        let order = live_ids(&t);
        assert_eq!(order, ["1", "3"], "neighbours bridge over the freed slot");
        // Freed slots are recycled.
        let h4 = t.new_hole("4".to_string());
        assert_eq!(h4, h2, "slab slot reused");
        assert_eq!(t.live_holes(), 3);
    }

    #[test]
    fn growing_splices_stay_consistent_across_reallocation() {
        // Repeated trailing-hole splices (the scan pattern) force the
        // child range to outgrow its capacity several times; entries,
        // indices, and the hole list must survive every bump-realloc.
        let mut t = OpenTree::new();
        let r = t.alloc_node(Label::new("r"), None, 0).unwrap();
        assert!(t.reserve_children(r, 1));
        let mut hole = t.new_hole("h0".to_string());
        t.set_child(r, 0, TreeEntry::Hole(hole));
        t.relink_holes(None, &[hole]);
        for k in 0..50 {
            let i = t.children(r).len() - 1; // trailing hole position
            let c = t.alloc_node(Label::new(format!("c{k}")), Some(r), i).unwrap();
            let next = t.new_hole(format!("h{}", k + 1));
            assert!(t.splice_children(r, i, &[TreeEntry::Node(c), TreeEntry::Hole(next)]));
            t.relink_holes(Some(hole), &[next]);
            hole = next;
        }
        let kids = t.children(r);
        assert_eq!(kids.len(), 51);
        for (i, e) in kids.iter().enumerate().take(50) {
            let TreeEntry::Node(id) = e else { panic!("child {i} is a node") };
            assert_eq!(t.idx(*id), i);
            assert_eq!(t.label(*id).as_str(), format!("c{i}"));
        }
        let order = live_ids(&t);
        assert_eq!(order, ["h50"], "one live hole at the frontier");
        assert_eq!(t.live_holes(), 1);
    }

    #[test]
    fn parked_holes_leave_and_rejoin_the_askable_list_in_place() {
        let mut t = OpenTree::new();
        let r = t.alloc_node(Label::new("r"), None, 0).unwrap();
        assert!(t.reserve_children(r, 5));
        let slots: Vec<HoleSlot> = (0..5)
            .map(|i| {
                let h = t.new_hole(format!("h{i}"));
                t.set_child(r, i, TreeEntry::Hole(h));
                h
            })
            .collect();
        t.relink_holes(None, &slots);
        let askable = |t: &OpenTree| -> Vec<String> {
            t.askable().map(|(_, h)| h.clone()).collect()
        };
        assert_eq!(askable(&t), live_ids(&t), "born askable");
        t.park(slots[1]);
        assert_eq!(askable(&t), ["h0", "h2", "h3", "h4"]);
        t.park(slots[3]);
        t.park(slots[0]);
        assert_eq!(askable(&t), ["h2", "h4"]);
        t.unpark(slots[0]);
        assert_eq!(askable(&t), ["h0", "h2", "h4"], "back at the head");
        t.unpark(slots[1]);
        assert_eq!(askable(&t), ["h0", "h1", "h2", "h4"]);
        // Splicing a consumed parked reply: the hole is unparked, and its
        // replacements take its place in both lists.
        t.unpark(slots[3]);
        let a = t.new_hole("a".into());
        let b = t.new_hole("b".into());
        let c = t.new_hole("c".into());
        t.relink_holes(Some(slots[3]), &[a, b, c]);
        t.park(b);
        assert_eq!(live_ids(&t), ["h0", "h1", "h2", "a", "b", "c", "h4"]);
        assert_eq!(askable(&t), ["h0", "h1", "h2", "a", "c", "h4"]);
        assert_askable_is_unparked_live(&t);
        t.park(slots[4]);
        t.park(a);
        t.unpark_all();
        assert_eq!(askable(&t), live_ids(&t), "nothing parked after unpark_all");
        assert_askable_is_unparked_live(&t);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn askable_list_is_the_unparked_live_list_after_any_edit_sequence(
            ops in proptest::collection::vec((0u8..8, 0usize..1024, 0usize..5, 0u8..32), 1..80),
        ) {
            // A flat model of the live list, `(id, parked)` in document
            // order; every edit is applied to the model and the tree alike.
            let mut t = OpenTree::new();
            let mut model: Vec<(String, bool)> = Vec::new();
            let mut fresh = 0u32;
            // Link a run of `n` new holes in place of `old`, then park
            // the ones `parked_bits` picks (answered by continuation items).
            let mut splice = |t: &mut OpenTree, old: Option<HoleSlot>, n: usize, parked_bits: u8| {
                let run: Vec<(HoleSlot, String, bool)> = (0..n)
                    .map(|k| {
                        fresh += 1;
                        let id = format!("h{fresh}");
                        (t.new_hole(id.clone()), id, parked_bits >> k & 1 == 1)
                    })
                    .collect();
                t.relink_holes(old, &run.iter().map(|(s, _, _)| *s).collect::<Vec<_>>());
                for (s, _, parked) in &run {
                    if *parked {
                        t.park(*s);
                    }
                }
                run.into_iter().map(|(_, id, p)| (id, p)).collect::<Vec<_>>()
            };
            model.extend(splice(&mut t, None, 3, 0b010));
            for (op, pick, n, bits) in ops {
                let live: Vec<_> = t.live_in_order().collect();
                if live.is_empty() {
                    break;
                }
                let at = pick % live.len();
                let (slot, parked) = (live[at].0, live[at].2);
                match op {
                    // Splice (most often) 0–4 new holes, some then parked;
                    // a parked hole is unparked first, as consuming its
                    // reply does.
                    0..=3 => {
                        if parked {
                            t.unpark(slot);
                        }
                        let run = splice(&mut t, Some(slot), n, bits);
                        model.splice(at..=at, run);
                    }
                    4 | 5 if !parked => {
                        t.park(slot);
                        model[at].1 = true;
                    }
                    4 | 5 => {
                        t.unpark(slot);
                        model[at].1 = false;
                    }
                    6 if bits == 0 => {
                        t.unpark_all();
                        model.iter_mut().for_each(|m| m.1 = false);
                    }
                    _ => {}
                }
                let live: Vec<_> = t.live_in_order().collect();
                let got: Vec<(&str, bool)> = live.iter().map(|(_, h, p)| (h.as_str(), *p)).collect();
                let want: Vec<(&str, bool)> = model.iter().map(|(h, p)| (h.as_str(), *p)).collect();
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(t.live_holes(), model.len());
                assert_askable_is_unparked_live(&t);
            }
        }
    }

    #[test]
    fn leaf_nodes_reserve_no_pool_space() {
        let mut t = OpenTree::new();
        let r = t.alloc_node(Label::new("leaf"), None, 0).unwrap();
        assert!(t.reserve_children(r, 0));
        assert_eq!(t.children(r).len(), 0);
        assert_eq!(t.fragment_of(r).to_string(), "leaf");
    }

    #[test]
    fn askable_links_cost_a_hole_record_at_most_eight_bytes() {
        // Id, two live links and the live flag took 40 B on 64-bit targets.
        assert!(std::mem::size_of::<HoleRec>() <= 48, "{} B", std::mem::size_of::<HoleRec>());
    }
}
