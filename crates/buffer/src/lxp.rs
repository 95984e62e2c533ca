//! The Lean XML fragment Protocol (LXP, paper §4).
//!
//! "LXP is very simple and comprises only two commands, `get_root` and
//! `fill`." The buffer (client) asks for a handle to the root of the
//! wrapper's virtual document, then repeatedly fills holes; the wrapper
//! answers each fill with a fragment list at *its* preferred granularity,
//! possibly leaving further holes.
//!
//! To ensure correctness and termination the paper requires only that
//! (i) the refinements extend to the complete source tree, and (ii)
//! *progress is made*: "a non-empty result list cannot only consist of
//! holes, and there can be no two adjacent holes". [`check_progress`]
//! enforces (ii) on every reply; (i) is the wrapper's contract.

use crate::fragment::Fragment;
use std::collections::HashSet;
use std::fmt;

/// Identifier of a hole. Opaque to the buffer; wrappers usually encode all
/// the information needed to answer the fill into the id itself (like the
/// relational wrapper's `db_name.table.row_number`), avoiding lookup
/// tables.
pub type HoleId = String;

/// Errors in the buffer/wrapper conversation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LxpError {
    /// The wrapper does not know the given hole id.
    UnknownHole(HoleId),
    /// The source named in `get_root` does not exist.
    UnknownSource(String),
    /// A fill reply violated the progress invariant.
    ProtocolViolation(String),
    /// Source-side failure (connection lost, page fetch failed, …).
    SourceError(String),
}

impl LxpError {
    /// Is this error worth retrying? Source-side failures (lost
    /// connections, failed page fetches) are weather; everything else —
    /// unknown holes/sources, protocol violations — is an integration bug
    /// that no amount of retrying will fix.
    pub fn is_transient(&self) -> bool {
        matches!(self, LxpError::SourceError(_))
    }
}

impl fmt::Display for LxpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LxpError::UnknownHole(id) => write!(f, "unknown hole id `{id}`"),
            LxpError::UnknownSource(uri) => write!(f, "unknown source `{uri}`"),
            LxpError::ProtocolViolation(msg) => write!(f, "LXP protocol violation: {msg}"),
            LxpError::SourceError(msg) => write!(f, "source error: {msg}"),
        }
    }
}

impl std::error::Error for LxpError {}

/// One hole's reply within a batched `fill_many` exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// The hole this item answers.
    pub hole: HoleId,
    /// The fill reply for that hole (same semantics as a plain `fill`).
    pub fragments: Vec<Fragment>,
}

impl BatchItem {
    /// Convenience constructor.
    pub fn new(hole: impl Into<HoleId>, fragments: Vec<Fragment>) -> Self {
        BatchItem { hole: hole.into(), fragments }
    }
}

/// The wrapper side of LXP.
pub trait LxpWrapper {
    /// `get_root(URI) → hole[id]`: establish the connection and obtain a
    /// hole standing for the root element of the exported view.
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError>;

    /// `fill(hole[id]) → [T]`: partially explore the part of the source
    /// tree represented by the hole.
    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError>;

    /// `fill_many([hole[id]]) → [(hole[id], [T])]`: batched fills — one
    /// exchange answering several holes, amortizing per-request overhead.
    ///
    /// Contract:
    /// * the reply starts with exactly one item per requested hole, in
    ///   request order, each carrying what `fill` would have returned;
    /// * the wrapper MAY append further *continuation* items answering
    ///   holes of its own replies ("push from below", §4) — e.g. the
    ///   relational wrapper streaming the next cursor ranges, or the web
    ///   wrapper shipping several page fragments per exchange. Clients
    ///   treat continuation items as a readahead cache; each item's
    ///   fragment list is still subject to the progress invariant.
    ///
    /// The default implementation degrades to one `fill` per hole (no
    /// amortization, no continuation), so plain wrappers and adapters
    /// stay correct without changes.
    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        holes
            .iter()
            .map(|h| Ok(BatchItem { hole: h.clone(), fragments: self.fill(h)? }))
            .collect()
    }
}

impl<W: LxpWrapper + ?Sized> LxpWrapper for Box<W> {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        (**self).get_root(uri)
    }

    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        (**self).fill(hole)
    }

    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        (**self).fill_many(holes)
    }
}

/// A cloneable handle to one wrapper shared by many owners: each clone is
/// an [`LxpWrapper`] that serializes its exchanges on the shared mutex.
///
/// This is how a server gives every session its *own*
/// [`BufferNavigator`](crate::BufferNavigator) — own open tree, own
/// pending batch cache, dropped at session close — over *one* wrapper
/// connection per source. Exchanges serialize per source (the same
/// discipline as [`ConcurrentPrefetcher`](crate::ConcurrentPrefetcher)'s
/// wire lock); cross-source parallelism is untouched. Locking is
/// poison-recovering, so one panicking session cannot wedge the wrapper
/// for its neighbours.
pub struct SharedWrapper<W> {
    inner: std::sync::Arc<std::sync::Mutex<W>>,
}

impl<W> Clone for SharedWrapper<W> {
    fn clone(&self) -> Self {
        SharedWrapper { inner: std::sync::Arc::clone(&self.inner) }
    }
}

impl<W> SharedWrapper<W> {
    /// Share `inner` between future clones of this handle.
    pub fn new(inner: W) -> Self {
        SharedWrapper { inner: std::sync::Arc::new(std::sync::Mutex::new(inner)) }
    }

    /// Recover the wrapper if this is the last handle.
    pub fn try_into_inner(self) -> Result<W, Self> {
        match std::sync::Arc::try_unwrap(self.inner) {
            Ok(m) => Ok(m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)),
            Err(inner) => Err(SharedWrapper { inner }),
        }
    }
}

impl<W: LxpWrapper> LxpWrapper for SharedWrapper<W> {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        crate::pool::lock_unpoisoned(&self.inner).get_root(uri)
    }

    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        crate::pool::lock_unpoisoned(&self.inner).fill(hole)
    }

    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        crate::pool::lock_unpoisoned(&self.inner).fill_many(holes)
    }
}

/// Append every hole id inside `fragments` to `out`, in document order.
pub(crate) fn collect_holes(fragments: &[Fragment], out: &mut Vec<HoleId>) {
    for f in fragments {
        match f {
            Fragment::Hole(h) => out.push(h.clone()),
            Fragment::Node { children, .. } => collect_holes(children, out),
        }
    }
}

/// Wrapper-side continuation for `fill_many`: chase up to `budget` holes
/// exposed by the items already in the exchange — trailing-most first,
/// the direction a scanning client moves — and append their replies as
/// continuation items. This is the "push from below" of §4 rendered as
/// extra items in the same exchange: a chunked source answers a
/// sequential scan's whole frontier (chunk after chunk) in one round
/// trip instead of one round trip per chunk.
///
/// Best-effort: a hole whose fill errors simply ends the chase (the
/// client's own fill will face — and retry — that error on the critical
/// path).
pub fn chase_continuation<W: LxpWrapper + ?Sized>(
    wrapper: &mut W,
    items: &mut Vec<BatchItem>,
    budget: usize,
) {
    if budget == 0 {
        return;
    }
    let mut stack: Vec<HoleId> = Vec::new();
    for item in items.iter() {
        collect_holes(&item.fragments, &mut stack);
    }
    let mut answered: HashSet<HoleId> = items.iter().map(|it| it.hole.clone()).collect();
    let mut budget = budget;
    while budget > 0 {
        let Some(h) = stack.pop() else { break };
        if answered.contains(&h) {
            continue;
        }
        let Ok(reply) = wrapper.fill(&h) else { break };
        budget -= 1;
        collect_holes(&reply, &mut stack);
        answered.insert(h.clone());
        items.push(BatchItem { hole: h, fragments: reply });
    }
}

/// Validate the shape of a `fill_many` reply: at least one item per
/// requested hole, and the first `holes.len()` items answer the requested
/// holes in order. Progress of each item's fragment list is checked
/// separately (requested items strictly; continuation items best-effort).
pub fn check_batch_shape(holes: &[HoleId], reply: &[BatchItem]) -> Result<(), LxpError> {
    if reply.len() < holes.len() {
        return Err(LxpError::ProtocolViolation(format!(
            "fill_many answered {} of {} requested holes",
            reply.len(),
            holes.len()
        )));
    }
    for (h, item) in holes.iter().zip(reply) {
        if &item.hole != h {
            return Err(LxpError::ProtocolViolation(format!(
                "fill_many reply out of order: expected `{h}`, got `{}`",
                item.hole
            )));
        }
    }
    Ok(())
}

/// Enforce the progress invariant on a fill reply: a non-empty reply must
/// contain at least one non-hole fragment, and no two holes may be
/// adjacent.
pub fn check_progress(reply: &[Fragment]) -> Result<(), LxpError> {
    if !reply.is_empty() && reply.iter().all(Fragment::is_hole) {
        return Err(LxpError::ProtocolViolation(
            "non-empty fill reply consists only of holes".into(),
        ));
    }
    for pair in reply.windows(2) {
        if pair[0].is_hole() && pair[1].is_hole() {
            return Err(LxpError::ProtocolViolation("two adjacent holes in fill reply".into()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_accepts_paper_example_7_replies() {
        // fill(◦2) = [◦4, d[◦5], ◦6] — legal despite leading/trailing holes.
        let reply = vec![
            Fragment::hole("4"),
            Fragment::node("d", vec![Fragment::hole("5")]),
            Fragment::hole("6"),
        ];
        assert!(check_progress(&reply).is_ok());
        // fill(◦4) = [] — dead end, legal.
        assert!(check_progress(&[]).is_ok());
        // fill(◦6) = [e].
        assert!(check_progress(&[Fragment::leaf("e")]).is_ok());
    }

    #[test]
    fn progress_rejects_all_holes() {
        let reply = vec![Fragment::hole("1")];
        let err = check_progress(&reply).unwrap_err();
        assert!(matches!(err, LxpError::ProtocolViolation(_)));
    }

    #[test]
    fn progress_rejects_adjacent_holes() {
        let reply = vec![Fragment::leaf("a"), Fragment::hole("1"), Fragment::hole("2")];
        assert!(check_progress(&reply).is_err());
    }

    #[test]
    fn only_source_errors_are_transient() {
        assert!(LxpError::SourceError("timeout".into()).is_transient());
        assert!(!LxpError::UnknownHole("h".into()).is_transient());
        assert!(!LxpError::UnknownSource("db".into()).is_transient());
        assert!(!LxpError::ProtocolViolation("holes".into()).is_transient());
    }

    #[test]
    fn error_display() {
        assert_eq!(LxpError::UnknownHole("x.y".into()).to_string(), "unknown hole id `x.y`");
        assert!(LxpError::UnknownSource("db".into()).to_string().contains("db"));
    }

    /// A wrapper whose `fill` answers any hole with one leaf named after
    /// the hole id — enough to observe the default `fill_many`.
    struct Echo;

    impl LxpWrapper for Echo {
        fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
            Ok("0".into())
        }
        fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
            Ok(vec![Fragment::leaf(hole.as_str())])
        }
    }

    #[test]
    fn default_fill_many_loops_fill_in_order() {
        let holes: Vec<HoleId> = vec!["a".into(), "b".into(), "c".into()];
        let reply = Echo.fill_many(&holes).unwrap();
        assert_eq!(reply.len(), 3, "no continuation items from the default impl");
        for (h, item) in holes.iter().zip(&reply) {
            assert_eq!(&item.hole, h);
            assert_eq!(item.fragments, vec![Fragment::leaf(h.as_str())]);
        }
        check_batch_shape(&holes, &reply).unwrap();
    }

    #[test]
    fn continuation_answers_each_hole_once_within_its_budget() {
        use crate::treewrap::{FillPolicy, TreeWrapper};
        use mix_xml::term::parse_term;

        /// Counts the fills the chase makes of the wrapped source.
        struct Counted(TreeWrapper, usize);
        impl LxpWrapper for Counted {
            fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
                self.0.get_root(uri)
            }
            fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                self.1 += 1;
                self.0.fill(hole)
            }
        }
        let siblings: Vec<String> = (0..200).map(|i| format!("t{i}")).collect();
        let doc = parse_term(&format!("r[{}]", siblings.join(","))).unwrap();
        let mut w = Counted(TreeWrapper::single(&doc, FillPolicy::NodeAtATime), 0);
        let first: HoleId = "doc|c|0|0".into();
        let mut items = vec![BatchItem { fragments: w.0.fill(&first).unwrap(), hole: first }];
        chase_continuation(&mut w, &mut items, 64);
        assert_eq!(w.1, 64, "one fill per continuation item, none repeated");
        assert_eq!(items.len(), 65);
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.hole, format!("doc|c|0|{i}"), "each sibling hole once, in scan order");
        }
    }

    #[test]
    fn batch_shape_rejects_short_and_misordered_replies() {
        let holes: Vec<HoleId> = vec!["a".into(), "b".into()];
        let short = vec![BatchItem::new("a", vec![])];
        assert!(matches!(
            check_batch_shape(&holes, &short),
            Err(LxpError::ProtocolViolation(_))
        ));
        let misordered =
            vec![BatchItem::new("b", vec![]), BatchItem::new("a", vec![])];
        assert!(matches!(
            check_batch_shape(&holes, &misordered),
            Err(LxpError::ProtocolViolation(_))
        ));
        // Extra continuation items are allowed.
        let with_continuation = vec![
            BatchItem::new("a", vec![]),
            BatchItem::new("b", vec![]),
            BatchItem::new("z", vec![Fragment::leaf("bonus")]),
        ];
        check_batch_shape(&holes, &with_continuation).unwrap();
    }

    #[test]
    fn boxed_wrappers_forward_fill_many() {
        let mut boxed: Box<dyn LxpWrapper> = Box::new(Echo);
        let holes: Vec<HoleId> = vec!["x".into()];
        let reply = boxed.fill_many(&holes).unwrap();
        assert_eq!(reply[0].fragments, vec![Fragment::leaf("x")]);
    }

    #[test]
    fn shared_wrapper_clones_serialize_on_one_wrapper() {
        /// Counts fills so the test can see both clones reached the same
        /// underlying wrapper.
        struct Counting(u64);
        impl LxpWrapper for Counting {
            fn get_root(&mut self, _uri: &str) -> Result<HoleId, LxpError> {
                Ok("0".into())
            }
            fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
                self.0 += 1;
                Ok(vec![Fragment::leaf(hole.as_str())])
            }
        }
        let shared = SharedWrapper::new(Counting(0));
        let mut a = shared.clone();
        let mut b = shared.clone();
        assert_eq!(a.get_root("doc").unwrap(), "0");
        a.fill(&"x".into()).unwrap();
        b.fill(&"y".into()).unwrap();
        drop((a, b));
        let inner = shared.try_into_inner().ok().expect("last handle recovers the wrapper");
        assert_eq!(inner.0, 2, "both clones hit the same wrapper");
    }
}
