//! Querying the flight recorder: trace logs, span rollups, JSON export.
//!
//! The buffer layer records raw [`TraceEvent`]s (see `mix_buffer::trace`);
//! this module is the *analysis* side the client sees through
//! [`VirtualDocument::trace`]: a [`TraceLog`] snapshot that can be
//! filtered by span / source / kind, summarized per client command
//! ([`SpanStats`]), rolled up into wire totals ([`TraceRollup`]) that
//! cross-check [`Engine::traffic`] **exactly**, and exported as JSON for
//! the bench harness.
//!
//! # Exact accounting
//!
//! [`TraceLog::rollup`] replays the buffer's own arithmetic over the
//! events: a [`TraceKind::Fill`] with `from_cache: false` is one wire
//! request answering one hole; a [`TraceKind::FillMany`] is one wire
//! request answering `items` holes and parking `wasted` speculative
//! bytes; a cache-served [`TraceKind::Fill`] credits `waste_credit`
//! bytes back; a [`TraceKind::CacheHit`] (shared cross-query cache) is
//! one consumed fill with zero wire cost; a
//! [`TraceKind::FillManyFailed`] is one wire request whose entire
//! transferred volume is waste. Over a complete
//! trace (`dropped == 0`) the rollup reproduces the
//! `requests`/`batched_holes`/`wasted_bytes` counters to the digit — the
//! invariant experiment E15 asserts under injected faults.
//!
//! [`VirtualDocument::trace`]: crate::VirtualDocument::trace
//! [`Engine::traffic`]: crate::Engine::traffic

pub use mix_buffer::{TraceEvent, TraceKind, TraceSink};
use std::fmt;

/// An immutable snapshot of a [`TraceSink`]'s ring, oldest event first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// Wire totals reconstructed from a trace, in the same units as
/// [`BufferStats`](mix_buffer::BufferStats) /
/// [`Engine::traffic`](crate::Engine::traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceRollup {
    /// Wire exchanges: uncached fills + batched exchanges.
    pub requests: u64,
    /// Per-hole replies those exchanges carried.
    pub batched_holes: u64,
    /// Speculative bytes still parked (parked minus credited back).
    pub wasted_bytes: u64,
    /// Fill replies consumed (wire or cache).
    pub fills: u64,
    /// `get_root` handshakes.
    pub get_roots: u64,
    /// Non-hole nodes received over the wire.
    pub nodes: u64,
    /// Bytes received over the wire.
    pub bytes: u64,
    /// Transient errors retried away.
    pub retries: u64,
    /// Navigations that fell back to a degraded answer.
    pub degradations: u64,
    /// Request frames sent on the DOM-VXD wire (client side).
    pub wire_requests: u64,
    /// Remote client spans served (server side). In a merged trace this
    /// equals `wire_requests` when every frame carried a trace context and
    /// every frame was served — the cross-process reconciliation oracle.
    pub wire_spans: u64,
}

impl TraceRollup {
    /// Does this rollup reproduce the engine's
    /// `(requests, batched_holes, wasted_bytes)` traffic totals exactly?
    pub fn matches_traffic(&self, traffic: (u64, u64, u64)) -> bool {
        (self.requests, self.batched_holes, self.wasted_bytes) == traffic
    }
}

/// Per-client-command summary: everything one span triggered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// The span id.
    pub span: u64,
    /// The client command that opened it (`d`/`r`/`f`/`s`; `·` for span 0,
    /// events recorded before any command).
    pub command: String,
    /// Events attributed to the span.
    pub events: u64,
    /// Operator entries (`OperatorIn`) in the cascade.
    pub operator_calls: u64,
    /// Navigation commands issued to underlying sources.
    pub source_commands: u64,
    /// Wire exchanges this command caused.
    pub requests: u64,
    /// Per-hole replies this command's wire exchanges carried.
    pub batched_holes: u64,
    /// Speculative-waste delta (parked minus credited; negative when the
    /// command consumed replies parked by an earlier span).
    pub waste_delta: i64,
    /// Retries absorbed.
    pub retries: u64,
    /// Degradations suffered — a non-zero count means this command's
    /// answer is suspect.
    pub degradations: u64,
    /// DOM-VXD request frames this command put on the wire (client side).
    pub wire_requests: u64,
    /// The remote client span this span served, when it was opened by a
    /// traced request frame (server side; `None` for local spans).
    pub serves_client_span: Option<u64>,
}

impl fmt::Display for SpanStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "span {:<4} `{}`: {} events, {} ops, {} src cmds, {} wire, {} batched, waste {:+}, {} retries, {} degraded",
            self.span,
            self.command,
            self.events,
            self.operator_calls,
            self.source_commands,
            self.requests,
            self.batched_holes,
            self.waste_delta,
            self.retries,
            self.degradations
        )?;
        if self.wire_requests > 0 {
            write!(f, ", {} frames", self.wire_requests)?;
        }
        if let Some(remote) = self.serves_client_span {
            write!(f, ", serves client span {remote}")?;
        }
        Ok(())
    }
}

impl TraceLog {
    /// Snapshot a sink.
    pub fn from_sink(sink: &TraceSink) -> Self {
        TraceLog { events: sink.events(), dropped: sink.dropped() }
    }

    /// The events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from the ring before this snapshot. Exact rollups
    /// require 0.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events of one span (one client command's cascade).
    pub fn by_span(&self, span: u64) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.span == span).collect()
    }

    /// Events concerning one source.
    pub fn by_source(&self, source: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.source.as_deref() == Some(source)).collect()
    }

    /// Events of one kind, by its stable name (e.g. `"fill-many"`,
    /// `"degradation"`).
    pub fn by_kind(&self, name: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.kind.name() == name).collect()
    }

    /// Every degradation — the moments a silently-partial answer was
    /// served. Empty means the trace vouches for the whole run.
    pub fn degradations(&self) -> Vec<&TraceEvent> {
        self.by_kind("degradation")
    }

    /// Distinct span ids, in first-appearance order.
    pub fn spans(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for e in &self.events {
            if out.last() != Some(&e.span) && !out.contains(&e.span) {
                out.push(e.span);
            }
        }
        out
    }

    /// Wire totals reconstructed from the events (see module docs for the
    /// exactness contract).
    pub fn rollup(&self) -> TraceRollup {
        let mut r = TraceRollup::default();
        let (mut parked, mut credited) = (0u64, 0u64);
        for e in &self.events {
            match &e.kind {
                TraceKind::Fill { nodes, bytes, from_cache, waste_credit, .. } => {
                    r.fills += 1;
                    if *from_cache {
                        credited += waste_credit;
                    } else {
                        r.requests += 1;
                        r.batched_holes += 1;
                        r.nodes += nodes;
                        r.bytes += bytes;
                    }
                }
                TraceKind::FillMany { items, nodes, bytes, wasted, .. } => {
                    r.fills += 1;
                    r.requests += 1;
                    r.batched_holes += items;
                    r.nodes += nodes;
                    r.bytes += bytes;
                    parked += wasted;
                }
                // A shared-cache hit consumes a reply with zero wire
                // exchanges: only `fills` advances.
                TraceKind::CacheHit { .. } => r.fills += 1,
                // A transferred-then-rejected batch: the request and its
                // volume are real, all of it wasted, nothing consumed.
                TraceKind::FillManyFailed { items, nodes, bytes, wasted, .. } => {
                    r.requests += 1;
                    r.batched_holes += items;
                    r.nodes += nodes;
                    r.bytes += bytes;
                    parked += wasted;
                }
                TraceKind::GetRoot { .. } => r.get_roots += 1,
                TraceKind::Retry { .. } => r.retries += 1,
                TraceKind::Degradation { .. } => r.degradations += 1,
                TraceKind::WireRequest { .. } => r.wire_requests += 1,
                TraceKind::WireSpan { .. } => r.wire_spans += 1,
                _ => {}
            }
        }
        // Exact over a complete trace: every credit consumes previously
        // parked bytes (the buffer's saturating_sub can never over-credit).
        r.wasted_bytes = parked.saturating_sub(credited);
        r
    }

    /// Per-span rollup, one row per span in first-appearance order.
    pub fn span_stats(&self) -> Vec<SpanStats> {
        let mut rows: Vec<SpanStats> = Vec::new();
        for e in &self.events {
            let row = match rows.iter_mut().rev().find(|r| r.span == e.span) {
                Some(r) => r,
                None => {
                    rows.push(SpanStats {
                        span: e.span,
                        command: "·".to_string(),
                        events: 0,
                        operator_calls: 0,
                        source_commands: 0,
                        requests: 0,
                        batched_holes: 0,
                        waste_delta: 0,
                        retries: 0,
                        degradations: 0,
                        wire_requests: 0,
                        serves_client_span: None,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.events += 1;
            match &e.kind {
                TraceKind::ClientCommand { cmd } => row.command = cmd.to_string(),
                TraceKind::OperatorIn { .. } => row.operator_calls += 1,
                TraceKind::SourceNav { .. } => row.source_commands += 1,
                TraceKind::Fill { from_cache, waste_credit, .. } => {
                    if *from_cache {
                        row.waste_delta -= *waste_credit as i64;
                    } else {
                        row.requests += 1;
                        row.batched_holes += 1;
                    }
                }
                TraceKind::FillMany { items, wasted, .. } => {
                    row.requests += 1;
                    row.batched_holes += items;
                    row.waste_delta += *wasted as i64;
                }
                TraceKind::FillManyFailed { items, wasted, .. } => {
                    row.requests += 1;
                    row.batched_holes += items;
                    row.waste_delta += *wasted as i64;
                }
                TraceKind::Retry { .. } => row.retries += 1,
                TraceKind::Degradation { .. } => row.degradations += 1,
                TraceKind::WireRequest { .. } => row.wire_requests += 1,
                TraceKind::WireSpan { client_span, .. } => {
                    row.serves_client_span = Some(*client_span);
                }
                _ => {}
            }
        }
        rows
    }

    /// Stitch a client-side trace and the server-side trace that served it
    /// into one cascade.
    ///
    /// The server's [`TraceKind::WireSpan`] events carry the client span
    /// id each server span served; `merge_remote` re-parents every mapped
    /// server span onto that client span and splices its events in right
    /// after the client span's own events, so `by_span` / [`Self::span_stats`]
    /// on the merged log attribute the *server-side source cascade* to the
    /// *client navigation* that caused it. Server spans with no wire link
    /// (engine warm-up before any traced frame) keep their events under
    /// fresh span ids past the client's range. Sequence numbers are
    /// renumbered into one total order; `dropped` sums — exact rollups
    /// still require both sides complete.
    ///
    /// Because rollups are sums over events, the merged rollup's wire
    /// totals equal the server rollup's (the client side navigates a
    /// remote document: it fills no holes itself), while `wire_requests`
    /// (client frames) and `wire_spans` (server links) land in one place
    /// where they can be reconciled against each other and against the
    /// transport's frame count.
    pub fn merge_remote(client: &TraceLog, server: &TraceLog) -> TraceLog {
        // Which client span did each server span serve?
        let mut serves: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for e in &server.events {
            if let TraceKind::WireSpan { client_span, .. } = &e.kind {
                serves.entry(e.span).or_insert(*client_span);
            }
        }
        // Server events grouped by the client span they re-parent onto,
        // in server order.
        let mut grouped: std::collections::HashMap<u64, Vec<&TraceEvent>> =
            std::collections::HashMap::new();
        let mut unmapped: Vec<(u64, Vec<&TraceEvent>)> = Vec::new();
        for e in &server.events {
            match serves.get(&e.span) {
                Some(client_span) => grouped.entry(*client_span).or_default().push(e),
                None => match unmapped.iter_mut().find(|(s, _)| *s == e.span) {
                    Some((_, v)) => v.push(e),
                    None => unmapped.push((e.span, vec![e])),
                },
            }
        }
        // Splice: client events in order; after the *last* client event of
        // each span, that span's server-side cascade.
        let mut last_of_span: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for (i, e) in client.events.iter().enumerate() {
            last_of_span.insert(e.span, i);
        }
        let mut merged: Vec<TraceEvent> = Vec::with_capacity(client.len() + server.len());
        for (i, e) in client.events.iter().enumerate() {
            merged.push(e.clone());
            if last_of_span.get(&e.span) == Some(&i) {
                if let Some(group) = grouped.remove(&e.span) {
                    for se in group {
                        let mut se = se.clone();
                        se.span = e.span;
                        merged.push(se);
                    }
                }
            }
        }
        // Server spans serving client spans the client log never recorded
        // (e.g. its ring dropped them) still re-parent onto that span id,
        // appended after the client stream.
        let mut leftovers: Vec<(u64, Vec<&TraceEvent>)> =
            grouped.into_iter().collect();
        leftovers.sort_by_key(|(span, _)| *span);
        for (span, group) in leftovers {
            for se in group {
                let mut se = se.clone();
                se.span = span;
                merged.push(se);
            }
        }
        // Wire-free server spans get fresh ids past every client span.
        let max_span = merged.iter().map(|e| e.span).max().unwrap_or(0);
        for (offset, (_, group)) in unmapped.into_iter().enumerate() {
            let span = max_span + 1 + offset as u64;
            for se in group {
                let mut se = se.clone();
                se.span = span;
                merged.push(se);
            }
        }
        for (seq, e) in merged.iter_mut().enumerate() {
            e.seq = seq as u64;
        }
        TraceLog { events: merged, dropped: client.dropped + server.dropped }
    }

    /// Render the log as a JSON object for the bench harness:
    /// `{"dropped": n, "events": [{seq, span, source, kind, …fields}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str(&format!("{{\"dropped\": {}, \"events\": [", self.dropped));
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&event_json(e));
        }
        out.push_str("]}");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn event_json(e: &TraceEvent) -> String {
    let mut fields = vec![
        format!("\"seq\": {}", e.seq),
        format!("\"span\": {}", e.span),
        format!(
            "\"source\": {}",
            e.source.as_deref().map(json_str).unwrap_or_else(|| "null".to_string())
        ),
        format!("\"kind\": {}", json_str(e.kind.name())),
    ];
    match &e.kind {
        TraceKind::ClientCommand { cmd } | TraceKind::SourceNav { cmd } => {
            fields.push(format!("\"cmd\": {}", json_str(cmd)));
        }
        TraceKind::OperatorIn { op, call } => {
            fields.push(format!("\"op\": {}", json_str(op)));
            fields.push(format!("\"call\": {}", json_str(call)));
        }
        TraceKind::OperatorOut { op, produced } => {
            fields.push(format!("\"op\": {}", json_str(op)));
            fields.push(format!("\"produced\": {produced}"));
        }
        TraceKind::AttrJump { op, var } => {
            fields.push(format!("\"op\": {}", json_str(op)));
            fields.push(format!("\"var\": {}", json_str(var)));
        }
        TraceKind::GetRoot { uri } => fields.push(format!("\"uri\": {}", json_str(uri))),
        TraceKind::Fill { hole, nodes, bytes, from_cache, waste_credit } => {
            fields.push(format!("\"hole\": {}", json_str(hole)));
            fields.push(format!("\"nodes\": {nodes}"));
            fields.push(format!("\"bytes\": {bytes}"));
            fields.push(format!("\"from_cache\": {from_cache}"));
            fields.push(format!("\"waste_credit\": {waste_credit}"));
        }
        TraceKind::FillMany { critical, holes, items, nodes, bytes, wasted } => {
            fields.push(format!("\"critical\": {}", json_str(critical)));
            fields.push(format!("\"holes\": {holes}"));
            fields.push(format!("\"items\": {items}"));
            fields.push(format!("\"nodes\": {nodes}"));
            fields.push(format!("\"bytes\": {bytes}"));
            fields.push(format!("\"wasted\": {wasted}"));
        }
        TraceKind::Retry { request, attempt, backoff_cost, error } => {
            fields.push(format!("\"request\": {}", json_str(request)));
            fields.push(format!("\"attempt\": {attempt}"));
            fields.push(format!("\"backoff_cost\": {backoff_cost}"));
            fields.push(format!("\"error\": {}", json_str(error)));
        }
        TraceKind::BreakerOpen { request } => {
            fields.push(format!("\"request\": {}", json_str(request)));
        }
        TraceKind::BreakerClose => {}
        TraceKind::Degradation { op, error } => {
            fields.push(format!("\"op\": {}", json_str(op)));
            fields.push(format!("\"error\": {}", json_str(error)));
        }
        TraceKind::PrefetchHit { hole } | TraceKind::PrefetchMiss { hole } => {
            fields.push(format!("\"hole\": {}", json_str(hole)));
        }
        TraceKind::PrefetchFail { hole, error } => {
            fields.push(format!("\"hole\": {}", json_str(hole)));
            fields.push(format!("\"error\": {}", json_str(error)));
        }
        TraceKind::WrapperFill { wrapper, holes, items } => {
            fields.push(format!("\"wrapper\": {}", json_str(wrapper)));
            fields.push(format!("\"holes\": {holes}"));
            fields.push(format!("\"items\": {items}"));
        }
        TraceKind::CacheHit { hole, nodes, bytes } => {
            fields.push(format!("\"hole\": {}", json_str(hole)));
            fields.push(format!("\"nodes\": {nodes}"));
            fields.push(format!("\"bytes\": {bytes}"));
        }
        TraceKind::CacheStore { hole, bytes } => {
            fields.push(format!("\"hole\": {}", json_str(hole)));
            fields.push(format!("\"bytes\": {bytes}"));
        }
        TraceKind::CacheEvict { scope, hole, bytes } => {
            fields.push(format!("\"scope\": {}", json_str(scope)));
            fields.push(format!("\"hole\": {}", json_str(hole)));
            fields.push(format!("\"bytes\": {bytes}"));
        }
        TraceKind::CacheInvalidate { scope, entries, bytes } => {
            fields.push(format!("\"scope\": {}", json_str(scope)));
            fields.push(format!("\"entries\": {entries}"));
            fields.push(format!("\"bytes\": {bytes}"));
        }
        TraceKind::FillManyFailed { critical, holes, items, nodes, bytes, wasted } => {
            fields.push(format!("\"critical\": {}", json_str(critical)));
            fields.push(format!("\"holes\": {holes}"));
            fields.push(format!("\"items\": {items}"));
            fields.push(format!("\"nodes\": {nodes}"));
            fields.push(format!("\"bytes\": {bytes}"));
            fields.push(format!("\"wasted\": {wasted}"));
        }
        TraceKind::WireRequest { verb } => {
            fields.push(format!("\"verb\": {}", json_str(verb)));
        }
        TraceKind::WireSpan { client_span, verb } => {
            fields.push(format!("\"client_span\": {client_span}"));
            fields.push(format!("\"verb\": {}", json_str(verb)));
        }
        TraceKind::SemanticRewrite { outcome, covered, total } => {
            fields.push(format!("\"outcome\": {}", json_str(outcome)));
            fields.push(format!("\"covered\": {covered}"));
            fields.push(format!("\"total\": {total}"));
        }
    }
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sink() -> TraceSink {
        let sink = TraceSink::enabled(64);
        sink.begin_span("d");
        sink.emit(Some("db"), TraceKind::GetRoot { uri: "db".into() });
        sink.emit(
            Some("db"),
            TraceKind::FillMany {
                critical: "h1".into(),
                holes: 2,
                items: 4,
                nodes: 40,
                bytes: 400,
                wasted: 120,
            },
        );
        sink.begin_span("r");
        sink.emit(
            Some("db"),
            TraceKind::Fill {
                hole: "h2".into(),
                nodes: 10,
                bytes: 100,
                from_cache: true,
                waste_credit: 100,
            },
        );
        sink.emit(
            Some("web"),
            TraceKind::Degradation { op: "fetch", error: "gave up".into() },
        );
        sink
    }

    #[test]
    fn filters_by_span_source_and_kind() {
        let log = TraceLog::from_sink(&demo_sink());
        assert_eq!(log.len(), 6);
        assert_eq!(log.by_span(1).len(), 3);
        assert_eq!(log.by_span(2).len(), 3);
        assert_eq!(log.by_source("db").len(), 3);
        assert_eq!(log.by_kind("fill-many").len(), 1);
        assert_eq!(log.degradations().len(), 1);
        assert_eq!(log.spans(), [1, 2]);
    }

    #[test]
    fn rollup_replays_the_buffer_arithmetic() {
        let log = TraceLog::from_sink(&demo_sink());
        let r = log.rollup();
        assert_eq!(r.requests, 1, "cache-served fill is not a wire request");
        assert_eq!(r.batched_holes, 4);
        assert_eq!(r.wasted_bytes, 20, "120 parked − 100 credited");
        assert_eq!(r.fills, 2);
        assert_eq!(r.get_roots, 1);
        assert_eq!(r.nodes, 40, "cache-served nodes were counted at park time");
        assert_eq!(r.degradations, 1);
        assert!(r.matches_traffic((1, 4, 20)));
        assert!(!r.matches_traffic((1, 4, 21)));
    }

    #[test]
    fn span_stats_attribute_work_to_commands() {
        let log = TraceLog::from_sink(&demo_sink());
        let rows = log.span_stats();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].command, "d");
        assert_eq!(rows[0].requests, 1);
        assert_eq!(rows[0].batched_holes, 4);
        assert_eq!(rows[0].waste_delta, 120);
        assert_eq!(rows[0].degradations, 0);
        assert_eq!(rows[1].command, "r");
        assert_eq!(rows[1].requests, 0);
        assert_eq!(rows[1].waste_delta, -100, "consumed an earlier span's parked bytes");
        assert_eq!(rows[1].degradations, 1);
        // The per-span deltas sum to the global rollup.
        let waste: i64 = rows.iter().map(|r| r.waste_delta).sum();
        assert_eq!(waste, log.rollup().wasted_bytes as i64);
    }

    #[test]
    fn merge_remote_reparents_server_cascades_onto_client_spans() {
        // Client side: two traced navigations, one frame each.
        let client = TraceSink::enabled(64);
        client.begin_span("d");
        client.emit(None, TraceKind::WireRequest { verb: "d" });
        client.begin_span("f");
        client.emit(None, TraceKind::WireRequest { verb: "f" });
        // Server side: a wire-free warm-up span, then one span per frame.
        let server = TraceSink::enabled(64);
        server.emit(Some("db"), TraceKind::GetRoot { uri: "db".into() });
        server.begin_span("d");
        server.emit(None, TraceKind::WireSpan { client_span: 1, verb: "d" });
        server.emit(
            Some("db"),
            TraceKind::Fill {
                hole: "h1".into(),
                nodes: 7,
                bytes: 70,
                from_cache: false,
                waste_credit: 0,
            },
        );
        server.begin_span("f");
        server.emit(None, TraceKind::WireSpan { client_span: 2, verb: "f" });
        server.emit(Some("web"), TraceKind::Degradation { op: "fetch", error: "down".into() });

        let merged = TraceLog::merge_remote(
            &TraceLog::from_sink(&client),
            &TraceLog::from_sink(&server),
        );
        // Totals survive: the merged rollup equals the server-side wire
        // arithmetic, with both wire-link counts reconciling.
        let r = merged.rollup();
        assert_eq!(r.wire_requests, 2);
        assert_eq!(r.wire_spans, 2);
        assert_eq!(r.requests, 1);
        assert_eq!(r.get_roots, 1);
        assert_eq!(r.degradations, 1);
        // The server's `d` cascade now lives in the client's `d` span; the
        // degradation is pinned to the client's `f` span.
        let rows = merged.span_stats();
        let d = rows.iter().find(|s| s.span == 1).expect("span 1");
        assert_eq!(d.command, "d");
        assert_eq!(d.requests, 1);
        assert_eq!(d.wire_requests, 1);
        assert_eq!(d.serves_client_span, Some(1));
        let f = rows.iter().find(|s| s.span == 2).expect("span 2");
        assert_eq!(f.degradations, 1);
        // The wire-free warm-up span is preserved under a fresh id.
        let warm = rows.iter().find(|s| s.span > 2).expect("warm-up span");
        assert_eq!(warm.serves_client_span, None);
        assert_eq!(merged.by_kind("get-root").len(), 1);
        // Seqs renumbered into one total order.
        let seqs: Vec<u64> = merged.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..merged.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn json_export_is_structured_and_escaped() {
        let sink = TraceSink::enabled(8);
        sink.emit(
            Some("db"),
            TraceKind::Degradation { op: "fetch", error: "line1\n\"quoted\"".into() },
        );
        let json = TraceLog::from_sink(&sink).to_json();
        assert!(json.starts_with("{\"dropped\": 0, \"events\": ["), "{json}");
        assert!(json.contains("\"kind\": \"degradation\""), "{json}");
        assert!(json.contains("\\n"), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }
}
