//! Navigation counting — the measuring instrument for *navigational
//! complexity* (paper §2, Def. 2).
//!
//! The browsability of a view is judged by how many source navigations a
//! lazy mediator issues per client navigation. [`CountedNavigator`] wraps
//! any navigator and counts every command that flows through it; shared
//! [`NavCounters`] let an experiment read the totals while the engine owns
//! the wrapped navigator.

use crate::pred::LabelPred;
use crate::{Axis, Navigator};
use mix_xml::Label;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A snapshot of navigation command counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NavStats {
    pub downs: u64,
    pub rights: u64,
    pub fetches: u64,
    pub selects: u64,
}

impl NavStats {
    /// Total number of navigation commands.
    pub fn total(&self) -> u64 {
        self.downs + self.rights + self.fetches + self.selects
    }

    /// Difference against an earlier snapshot (for per-client-command
    /// accounting).
    pub fn since(&self, earlier: &NavStats) -> NavStats {
        NavStats {
            downs: self.downs - earlier.downs,
            rights: self.rights - earlier.rights,
            fetches: self.fetches - earlier.fetches,
            selects: self.selects - earlier.selects,
        }
    }
}

impl fmt::Display for NavStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d={} r={} f={} select={} (total {})",
            self.downs,
            self.rights,
            self.fetches,
            self.selects,
            self.total()
        )
    }
}

/// Shared, interior-mutable navigation counters.
///
/// Clones share the same cells, so an experiment can keep one clone and
/// hand the other to a [`CountedNavigator`] buried inside an engine.
/// Counters are atomic, so concurrent exchanges on worker threads count
/// without tearing.
#[derive(Clone, Default, Debug)]
pub struct NavCounters {
    inner: Arc<Cells>,
}

#[derive(Default, Debug)]
struct Cells {
    downs: AtomicU64,
    rights: AtomicU64,
    fetches: AtomicU64,
    selects: AtomicU64,
}

impl NavCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        NavCounters::default()
    }

    /// Current totals.
    pub fn snapshot(&self) -> NavStats {
        NavStats {
            downs: self.inner.downs.load(Ordering::Relaxed),
            rights: self.inner.rights.load(Ordering::Relaxed),
            fetches: self.inner.fetches.load(Ordering::Relaxed),
            selects: self.inner.selects.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.inner.downs.store(0, Ordering::Relaxed);
        self.inner.rights.store(0, Ordering::Relaxed);
        self.inner.fetches.store(0, Ordering::Relaxed);
        self.inner.selects.store(0, Ordering::Relaxed);
    }

    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `d` command (for engines that count at their own
    /// delegation point instead of wrapping with [`CountedNavigator`]).
    pub fn bump_down(&self) {
        Self::bump(&self.inner.downs);
    }

    /// Count one `r` command.
    pub fn bump_right(&self) {
        Self::bump(&self.inner.rights);
    }

    /// Count one `f` command.
    pub fn bump_fetch(&self) {
        Self::bump(&self.inner.fetches);
    }

    /// Count one `select` command.
    pub fn bump_select(&self) {
        Self::bump(&self.inner.selects);
    }
}

/// Wraps a navigator, counting every command into shared [`NavCounters`].
#[derive(Debug, Clone)]
pub struct CountedNavigator<N> {
    inner: N,
    counters: NavCounters,
}

impl<N> CountedNavigator<N> {
    /// Wrap `inner`, counting into `counters`.
    pub fn new(inner: N, counters: NavCounters) -> Self {
        CountedNavigator { inner, counters }
    }

    /// The counters this wrapper feeds.
    pub fn counters(&self) -> &NavCounters {
        &self.counters
    }

    /// Unwrap the inner navigator.
    pub fn into_inner(self) -> N {
        self.inner
    }
}

impl<N: Navigator> Navigator for CountedNavigator<N> {
    type Handle = N::Handle;

    fn root(&mut self) -> Self::Handle {
        // Obtaining the root handle is free: the paper's preprocessing
        // returns it "without even accessing the sources".
        self.inner.root()
    }

    fn down(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        NavCounters::bump(&self.counters.inner.downs);
        self.inner.down(p)
    }

    fn right(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        NavCounters::bump(&self.counters.inner.rights);
        self.inner.right(p)
    }

    fn fetch(&mut self, p: &Self::Handle) -> Label {
        NavCounters::bump(&self.counters.inner.fetches);
        self.inner.fetch(p)
    }

    fn select(&mut self, p: &Self::Handle, pred: &LabelPred) -> Option<Self::Handle> {
        NavCounters::bump(&self.counters.inner.selects);
        self.inner.select(p, pred)
    }

    /// Not a command, so not counted.
    fn peek(&mut self, p: &Self::Handle, axis: Axis) -> Option<Option<Self::Handle>> {
        self.inner.peek(p, axis)
    }

    fn peek_label(&mut self, p: &Self::Handle) -> Option<Label> {
        self.inner.peek_label(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::DocNavigator;

    #[test]
    fn counts_commands() {
        let counters = NavCounters::new();
        let mut n = CountedNavigator::new(DocNavigator::from_term("a[b,c]"), counters.clone());
        let root = n.root();
        let b = n.down(&root).unwrap();
        let _ = n.fetch(&b);
        let c = n.right(&b).unwrap();
        let _ = n.fetch(&c);
        assert_eq!(n.right(&c), None);

        let s = counters.snapshot();
        assert_eq!(s, NavStats { downs: 1, rights: 2, fetches: 2, selects: 0 });
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn select_counts_once_even_when_derived() {
        // The counting wrapper sits *above* the inner navigator: a select
        // answered natively below costs one observable command.
        let counters = NavCounters::new();
        let mut n = CountedNavigator::new(DocNavigator::from_term("r[a,b,b,c]"), counters.clone());
        let r = n.root();
        let a = n.down(&r).unwrap();
        let _ = n.select(&a, &LabelPred::equals("c"));
        let s = counters.snapshot();
        assert_eq!(s.selects, 1);
        assert_eq!(s.rights, 0);
    }

    #[test]
    fn peeks_pass_through_uncounted() {
        let counters = NavCounters::new();
        let mut n = CountedNavigator::new(DocNavigator::from_term("a[b,c]"), counters.clone());
        let root = n.root();
        let b = n.peek(&root, Axis::Down).expect("a document knows its children");
        assert_eq!(b, n.down(&root));
        let b = b.unwrap();
        assert_eq!(n.peek(&b, Axis::Right), Some(n.right(&b)));
        assert_eq!(n.peek(&b, Axis::Down), Some(None));
        assert_eq!(n.peek(&root, Axis::Right), Some(None));
        assert_eq!(n.peek_label(&b), Some(Label::new("b")));
        let s = counters.snapshot();
        assert_eq!(s, NavStats { downs: 1, rights: 1, fetches: 0, selects: 0 }, "peeks count nothing");
    }

    #[test]
    fn shared_counters_and_reset() {
        let counters = NavCounters::new();
        {
            let mut n =
                CountedNavigator::new(DocNavigator::from_term("a[b]"), counters.clone());
            let r = n.root();
            n.down(&r);
        }
        assert_eq!(counters.snapshot().downs, 1);
        counters.reset();
        assert_eq!(counters.snapshot().total(), 0);
    }

    #[test]
    fn since_subtracts_snapshots() {
        let a = NavStats { downs: 5, rights: 7, fetches: 9, selects: 1 };
        let b = NavStats { downs: 2, rights: 3, fetches: 4, selects: 1 };
        assert_eq!(a.since(&b), NavStats { downs: 3, rights: 4, fetches: 5, selects: 0 });
    }
}
