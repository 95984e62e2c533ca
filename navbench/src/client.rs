//! The three things a script can drive — an in-process engine, a served
//! session, a materialised oracle — and the samples a client thread
//! collects while it does.

use crate::script::{Client, Fail};
use crate::span::{self, Kind};
use crate::stats::Decimated;
use mix_core::{Engine, VNode};
use mix_nav::Navigator;
use mix_serve::{FetchOutcome, VxdClient};
use mix_xml::Label;
use std::io::{Read, Write};
use std::time::Instant;

/// What one client thread measured. Merged across clients after a run.
#[derive(Debug, Default)]
pub struct Samples {
    pub iterations: u64,
    /// `d`/`r`/`f`/`select` commands completed.
    pub commands: u64,
    /// Operations attempted: commands, opens, closes and answer checks.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Client-observed latency of single commands (served workloads).
    pub nav_us: Decimated,
    /// Mean command latency of each walk (in-process workloads, where a
    /// command is cheaper than reading the clock twice).
    pub walk_nav_us: Decimated,
    pub open_us: Decimated,
    pub first_answer_ms: Decimated,
    pub cold_walk_ms: Decimated,
    pub warm_walk_ms: Decimated,
    /// Top-level answer children delivered to the client.
    pub answer_rows: u64,
    /// Traced window, served workloads: every round trip of this client's
    /// connection in order (opens, commands, closes), to pair with the
    /// server loop's service times.
    pub exchange_ns: Decimated,
}

impl Samples {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what.into());
        }
    }

    /// One answer check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// What is kept of work whose measurements are dropped (warm-up, an
    /// in-process re-walk): its operations and failures.
    pub fn failures_only(self) -> Samples {
        Samples {
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            ..Samples::default()
        }
    }

    fn exchange(&mut self, start: Instant) {
        if span::enabled() {
            self.exchange_ns.push(start.elapsed().as_nanos() as f64);
        }
    }

    pub fn merge(&mut self, other: Samples) {
        self.iterations += other.iterations;
        self.commands += other.commands;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
        self.nav_us.merge(other.nav_us);
        self.walk_nav_us.merge(other.walk_nav_us);
        self.open_us.merge(other.open_us);
        self.first_answer_ms.merge(other.first_answer_ms);
        self.cold_walk_ms.merge(other.cold_walk_ms);
        self.warm_walk_ms.merge(other.warm_walk_ms);
        self.answer_rows += other.answer_rows;
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A client of an in-process engine. Commands are counted, never timed
/// one by one outside the traced pass; a degraded fetch is a failure.
pub struct EngineClient<'a> {
    pub engine: &'a mut Engine,
    pub commands: u64,
}

impl Client for EngineClient<'_> {
    type H = VNode;

    fn root(&mut self) -> VNode {
        self.engine.root()
    }

    fn down(&mut self, h: &VNode) -> Result<Option<VNode>, Fail> {
        self.commands += 1;
        Ok(span::within(Kind::ClientNav, || self.engine.down(h)))
    }

    fn right(&mut self, h: &VNode) -> Result<Option<VNode>, Fail> {
        self.commands += 1;
        Ok(span::within(Kind::ClientNav, || self.engine.right(h)))
    }

    fn fetch(&mut self, h: &VNode) -> Result<Label, Fail> {
        self.commands += 1;
        span::within(Kind::ClientNav, || self.engine.fetch_checked(h))
            .map_err(|d| Fail(format!("degraded fetch: sources {:?}", d.sources)))
    }
}

/// A client of any plain navigator: the oracle's materialised answer.
pub struct NavClient<N> {
    pub nav: N,
    pub commands: u64,
}

impl<N: Navigator> Client for NavClient<N> {
    type H = N::Handle;

    fn root(&mut self) -> N::Handle {
        self.nav.root()
    }

    fn down(&mut self, h: &N::Handle) -> Result<Option<N::Handle>, Fail> {
        self.commands += 1;
        Ok(self.nav.down(h))
    }

    fn right(&mut self, h: &N::Handle) -> Result<Option<N::Handle>, Fail> {
        self.commands += 1;
        Ok(self.nav.right(h))
    }

    fn fetch(&mut self, h: &N::Handle) -> Result<Label, Fail> {
        self.commands += 1;
        Ok(self.nav.fetch(h))
    }
}

/// One served session. Every command is one closed-loop round trip,
/// timed as the client sees it; a `ClientError` (which covers
/// `Reply::Error`) or a degraded fetch is a failure.
pub struct ServedSession<'a, S: Read + Write> {
    pub client: &'a mut VxdClient<S>,
    pub session: u64,
    pub root: u64,
    pub samples: &'a mut Samples,
}

impl<S: Read + Write> ServedSession<'_, S> {
    fn command<T>(
        &mut self,
        call: impl FnOnce(&mut VxdClient<S>) -> Result<T, mix_serve::ClientError>,
    ) -> Result<T, Fail> {
        self.samples.attempted += 1;
        let start = Instant::now();
        let result = span::within(Kind::ClientRtt, || call(self.client));
        self.samples.exchange(start);
        self.samples.nav_us.push(us_since(start));
        if result.is_ok() {
            self.samples.commands += 1;
        }
        result.map_err(|e| Fail(e.to_string()))
    }
}

impl<S: Read + Write> Client for ServedSession<'_, S> {
    type H = u64;

    fn root(&mut self) -> u64 {
        self.root
    }

    fn down(&mut self, h: &u64) -> Result<Option<u64>, Fail> {
        let (session, node) = (self.session, *h);
        self.command(|c| c.down(session, node))
    }

    fn right(&mut self, h: &u64) -> Result<Option<u64>, Fail> {
        let (session, node) = (self.session, *h);
        self.command(|c| c.right(session, node))
    }

    fn fetch(&mut self, h: &u64) -> Result<Label, Fail> {
        let (session, node) = (self.session, *h);
        match self.command(|c| c.fetch_checked(session, node))? {
            FetchOutcome::Complete(label) => Ok(Label::new(label)),
            FetchOutcome::Degraded { sources, .. } => {
                Err(Fail(format!("degraded fetch: sources {sources:?}")))
            }
        }
    }
}

/// Open a session, timing the round trip. `None` (after counting the
/// failure) when the server refuses.
pub fn open_session<S: Read + Write>(
    client: &mut VxdClient<S>,
    template: &str,
    samples: &mut Samples,
) -> Option<mix_serve::OpenSession> {
    samples.attempted += 1;
    let start = Instant::now();
    let opened = span::within(Kind::ClientOpen, || client.open(template));
    samples.exchange(start);
    samples.open_us.push(us_since(start));
    match opened {
        Ok(open) => Some(open),
        Err(e) => {
            samples.fail(format!("open {template}: {e}"));
            None
        }
    }
}

pub fn close_session<S: Read + Write>(
    client: &mut VxdClient<S>,
    session: u64,
    samples: &mut Samples,
) {
    samples.attempted += 1;
    let start = Instant::now();
    let closed = span::within(Kind::ClientClose, || client.close(session));
    samples.exchange(start);
    if let Err(e) = closed {
        samples.fail(format!("close {session}: {e}"));
    }
}
