//! Recording navigator: captures the exact command trace.
//!
//! Example 1 reasons about literal traces — the client navigation
//! `c = d;f` inducing the source navigation `s = d;f;r;f;r;…` — so tests
//! need to *see* the commands a mediator sends to its source, not just
//! count them. [`RecordingNavigator`] wraps any navigator and appends each
//! command to a shared log.

use crate::pred::LabelPred;
use crate::{Axis, Navigator};
use mix_xml::Label;
use std::fmt;
use std::sync::{Arc, Mutex};

/// One recorded command (the paper's shorthand: `d`, `r`, `f`, `σ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorded {
    D,
    R,
    F,
    Select,
}

impl fmt::Display for Recorded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Recorded::D => "d",
            Recorded::R => "r",
            Recorded::F => "f",
            Recorded::Select => "σ",
        })
    }
}

/// Shared command log.
#[derive(Clone, Default, Debug)]
pub struct Trace {
    log: Arc<Mutex<Vec<Recorded>>>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// The commands recorded so far.
    pub fn commands(&self) -> Vec<Recorded> {
        self.log.lock().unwrap().clone()
    }

    /// The trace in the paper's notation, e.g. `d;f;r;f;r`.
    pub fn render(&self) -> String {
        self.log
            .lock()
            .unwrap()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.log.lock().unwrap().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.log.lock().unwrap().is_empty()
    }

    /// Forget everything recorded so far.
    pub fn clear(&self) {
        self.log.lock().unwrap().clear();
    }

    fn push(&self, c: Recorded) {
        self.log.lock().unwrap().push(c);
    }
}

/// Wraps a navigator, recording every command into a shared [`Trace`].
#[derive(Debug, Clone)]
pub struct RecordingNavigator<N> {
    inner: N,
    trace: Trace,
}

impl<N> RecordingNavigator<N> {
    /// Wrap `inner`, recording into `trace`.
    pub fn new(inner: N, trace: Trace) -> Self {
        RecordingNavigator { inner, trace }
    }

    /// The shared trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl<N: Navigator> Navigator for RecordingNavigator<N> {
    type Handle = N::Handle;

    fn root(&mut self) -> Self::Handle {
        self.inner.root()
    }

    fn down(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        self.trace.push(Recorded::D);
        self.inner.down(p)
    }

    fn right(&mut self, p: &Self::Handle) -> Option<Self::Handle> {
        self.trace.push(Recorded::R);
        self.inner.right(p)
    }

    fn fetch(&mut self, p: &Self::Handle) -> Label {
        self.trace.push(Recorded::F);
        self.inner.fetch(p)
    }

    fn select(&mut self, p: &Self::Handle, pred: &LabelPred) -> Option<Self::Handle> {
        self.trace.push(Recorded::Select);
        self.inner.select(p, pred)
    }

    /// Not a command, so not recorded.
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
    fn records_in_order() {
        let trace = Trace::new();
        let mut n =
            RecordingNavigator::new(DocNavigator::from_term("a[b,c]"), trace.clone());
        let root = n.root();
        let b = n.down(&root).unwrap();
        let _ = n.fetch(&b);
        let c = n.right(&b).unwrap();
        let _ = n.fetch(&c);
        assert_eq!(trace.render(), "d;f;r;f");
        assert_eq!(trace.len(), 4);
        trace.clear();
        assert!(trace.is_empty());
    }

    #[test]
    fn select_recorded_as_one_command() {
        let trace = Trace::new();
        let mut n =
            RecordingNavigator::new(DocNavigator::from_term("r[a,b,c]"), trace.clone());
        let root = n.root();
        let a = n.down(&root).unwrap();
        let _ = n.select(&a, &LabelPred::equals("c"));
        assert_eq!(trace.render(), "d;σ");
    }
}
