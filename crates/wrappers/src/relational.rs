//! The relational LXP wrapper (paper §4, "Relational LXP Wrapper").
//!
//! Hole identifiers encode everything the wrapper needs, so no lookup
//! table is maintained:
//!
//! * `db_name` — the database root: the reply lists the tables, each with
//!   a hole for its rows;
//! * `db_name.table` — the first `n` tuples of the table, complete, plus a
//!   hole `db_name.table.(n+1)` while rows remain;
//! * `db_name.table.j` — the next `n` tuples starting at row `j`.
//!
//! Tuples are always returned *complete* ("the wrapper does not have to
//! deal with navigations at the attribute level"), fetched through a real
//! [`Cursor`] per table: sequential fills advance the cursor, random fills
//! seek it — exactly the "necessary updates to the relational cursor,
//! based on the form of the id".
//!
//! The exported view has the shape of Figure 6:
//!
//! ```text
//! db_name[ table1[ row[att1[v11], …, attk[v1k]], …, hole ], … ]
//! ```

use mix_buffer::{
    chase_continuation, AimdChunk, BatchItem, Fragment, HoleId, LxpError, LxpWrapper,
    MetricsRegistry, TraceKind, TraceSink, WrapperMetrics,
};
use mix_relational::{Cursor, Database, Row, SqlQuery, Table};
use mix_xml::Label;
use std::collections::HashMap;

/// LXP wrapper over one in-memory database.
///
/// Two modes:
/// * **schema mode** (`new`): exports the whole database as
///   `db[table1[row…], …]`;
/// * **query mode** (`with_query`): the wrapper "has translated a XMAS
///   query into an SQL query" (Example 5) and exports only its result, in
///   the exact shape of Figure 6: `view[row[att…], …]`.
pub struct RelationalWrapper {
    db: Database,
    /// Tuples per fill — the bulk-transfer granularity `n`.
    chunk: usize,
    /// One open cursor per table, created on first touch.
    cursors: HashMap<String, Cursor>,
    /// Query mode: the pushed-down SQL query.
    query: Option<SqlQuery>,
    /// Opt-in AIMD chunk controller replacing the fixed `chunk`.
    adaptive: Option<AimdChunk>,
    /// Continuation chunks streamed per `fill_many` exchange (0 = none).
    batch_budget: usize,
    /// Flight recorder for batched exchanges (off by default).
    trace: TraceSink,
    /// Live batched-exchange counters (off by default).
    metrics: Option<WrapperMetrics>,
}

impl RelationalWrapper {
    /// Wrap a database, returning `chunk` tuples per fill (the paper's
    /// example uses 100).
    pub fn new(db: Database, chunk: usize) -> Self {
        // Intern the export's recurring vocabulary up front: every row
        // fragment after this reuses one allocation per distinct label
        // (`Label::new` probes the interner), and label equality on the
        // hot fill path becomes a symbol compare. Tuple *values* stay on
        // the probe-only path — unbounded content must not grow the table.
        Label::intern("row");
        Label::intern("view");
        Label::intern(db.name());
        for t in db.tables() {
            Label::intern(&t.schema().name);
            for c in &t.schema().columns {
                Label::intern(&c.name);
            }
        }
        RelationalWrapper {
            db,
            chunk: chunk.max(1),
            cursors: HashMap::new(),
            query: None,
            adaptive: None,
            batch_budget: 0,
            trace: TraceSink::default(),
            metrics: None,
        }
    }

    /// Query mode: export the result of `query` as `view[row…]` (Fig. 6),
    /// filtering and projecting inside the "database" so only qualifying
    /// tuples ever cross the wire.
    pub fn with_query(db: Database, query: SqlQuery, chunk: usize) -> Self {
        RelationalWrapper { query: Some(query), ..RelationalWrapper::new(db, chunk) }
    }

    /// Opt in to AIMD chunk sizing: the fixed `chunk` becomes the
    /// controller's starting point, growing on sequential cursor reads
    /// and shrinking on seeks (random access) or backwards re-reads
    /// (wasted tuples).
    pub fn adaptive(mut self) -> Self {
        self.adaptive = Some(AimdChunk::with_initial(self.chunk));
        self
    }

    /// Stream up to `budget` continuation chunks per `fill_many`
    /// exchange: the cursor keeps reading past the requested range, so a
    /// sequential scan's whole frontier crosses in one round trip.
    pub fn with_batch_budget(mut self, budget: usize) -> Self {
        self.batch_budget = budget;
        self
    }

    /// Record batched exchanges on a shared trace sink.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Record batched exchanges in a shared live-metrics registry, under
    /// `{wrapper="relational", source}` labels.
    pub fn with_metrics(mut self, registry: &MetricsRegistry, source: &str) -> Self {
        self.metrics = Some(WrapperMetrics::new(registry, "relational", source));
        self
    }

    /// The tuple count the next fill will use (adaptive or fixed).
    pub fn current_chunk(&self) -> usize {
        self.adaptive.as_ref().map(AimdChunk::chunk).unwrap_or(self.chunk)
    }

    /// Feed the adaptive controller the access-pattern signal for a fill
    /// starting at `start` on `table_name`, then return the chunk to use.
    /// Sequential = the cursor is already there (no seek needed);
    /// backwards = tuples already shipped are being re-requested (waste).
    fn effective_chunk(&mut self, table_name: &str, start: usize) -> usize {
        if let Some(ctl) = self.adaptive.as_mut() {
            match self.cursors.get(table_name) {
                Some(cur) if cur.position() == start => ctl.on_sequential(),
                Some(cur) if start < cur.position() => ctl.on_waste(),
                Some(_) => ctl.on_random(),
                None => {}
            }
            ctl.chunk()
        } else {
            self.chunk
        }
    }

    /// The wrapped database (read access for tests/experiments).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Total cursor fetches across all tables (database-side work).
    pub fn rows_fetched(&self) -> u64 {
        self.cursors.values().map(Cursor::fetched).sum()
    }

    /// Total cursor seeks across all tables.
    pub fn cursor_seeks(&self) -> u64 {
        self.cursors.values().map(Cursor::seeks).sum()
    }

    fn row_fragment(table: &Table, row: &Row) -> Fragment {
        let atts = table
            .schema()
            .columns
            .iter()
            .zip(row)
            .map(|(c, v)| Fragment::node(c.name.as_str(), vec![Fragment::leaf(v.to_string())]))
            .collect();
        Fragment::node("row", atts)
    }

    fn projected_row_fragment(cols: &[String], row: &Row) -> Fragment {
        let atts = cols
            .iter()
            .zip(row)
            .map(|(c, v)| Fragment::node(c.as_str(), vec![Fragment::leaf(v.to_string())]))
            .collect();
        Fragment::node("row", atts)
    }

    /// Query mode: fill the next `chunk` *qualifying* tuples from raw row
    /// index `start`, using the cursor like the schema mode does.
    fn fill_query_rows(&mut self, start: usize) -> Result<Vec<Fragment>, LxpError> {
        let q = self.query.as_ref().expect("query mode").clone();
        let chunk = self.effective_chunk(&q.table, start);
        let table = self
            .db
            .table(&q.table)
            .ok_or_else(|| LxpError::SourceError(format!("no table `{}`", q.table)))?;
        let cols = q
            .output_columns(table)
            .map_err(|e| LxpError::SourceError(e.message))?;
        // Projected/aliased output columns may not match the schema names
        // interned at construction; idempotent, so per-fill is cheap.
        for c in &cols {
            Label::intern(c);
        }
        let cursor = self.cursors.entry(q.table.clone()).or_default();
        cursor.seek(start);
        let mut out = Vec::new();
        let mut more = false;
        while let Some(row) = cursor.next(table) {
            if q.matches(table, row).map_err(|e| LxpError::SourceError(e.message))? {
                let projected =
                    q.project_row(table, row).map_err(|e| LxpError::SourceError(e.message))?;
                out.push(Self::projected_row_fragment(&cols, &projected));
                if out.len() == chunk {
                    more = cursor.position() < table.len();
                    break;
                }
            }
        }
        if more {
            out.push(Fragment::hole(format!(
                "{}|q|{}",
                self.db.name(),
                cursor.position()
            )));
        }
        Ok(out)
    }

    fn fill_rows(&mut self, table_name: &str, start: usize) -> Result<Vec<Fragment>, LxpError> {
        let chunk = self.effective_chunk(table_name, start);
        let table = self
            .db
            .table(table_name)
            .ok_or_else(|| LxpError::UnknownHole(format!("{}.{}", self.db.name(), table_name)))?;
        let cursor = self.cursors.entry(table_name.to_string()).or_default();
        cursor.seek(start);
        let rows = cursor.next_n(table, chunk);
        let mut out: Vec<Fragment> =
            rows.iter().map(|r| Self::row_fragment(table, r)).collect();
        if cursor.position() < table.len() {
            out.push(Fragment::hole(format!(
                "{}.{}.{}",
                self.db.name(),
                table_name,
                cursor.position()
            )));
        }
        Ok(out)
    }
}

impl LxpWrapper for RelationalWrapper {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        // The URI names the database (a JDBC URL in the paper); the handle
        // is `hole[db_name]`.
        if uri != self.db.name() {
            return Err(LxpError::UnknownSource(uri.to_string()));
        }
        Ok(self.db.name().to_string())
    }

    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        // Query mode uses its own hole-id space: `db|q|<raw row index>`.
        if self.query.is_some() {
            if hole == self.db.name() {
                let mut rows = self.fill_query_rows(0)?;
                // Fig. 6's root: view[tuple…].
                return Ok(vec![Fragment::node("view", std::mem::take(&mut rows))]);
            }
            let mut it = hole.splitn(3, '|');
            if let (Some(db), Some("q"), Some(start)) = (it.next(), it.next(), it.next()) {
                if db == self.db.name() {
                    let start: usize =
                        start.parse().map_err(|_| LxpError::UnknownHole(hole.clone()))?;
                    return self.fill_query_rows(start);
                }
            }
            return Err(LxpError::UnknownHole(hole.clone()));
        }
        let parts: Vec<&str> = hole.split('.').collect();
        match parts.as_slice() {
            // Database level: the relational schema — table names, each
            // with a hole for its rows.
            [db] if *db == self.db.name() => {
                let tables: Vec<Fragment> = self
                    .db
                    .tables()
                    .map(|t| {
                        let name = &t.schema().name;
                        if t.is_empty() {
                            Fragment::node(name.as_str(), vec![])
                        } else {
                            Fragment::node(
                                name.as_str(),
                                vec![Fragment::hole(format!("{db}.{name}"))],
                            )
                        }
                    })
                    .collect();
                Ok(vec![Fragment::node(self.db.name(), tables)])
            }
            // Table level: first n tuples.
            [db, table] if *db == self.db.name() => self.fill_rows(table, 0),
            // Row level: next n tuples from j.
            [db, table, j] if *db == self.db.name() => {
                let j: usize =
                    j.parse().map_err(|_| LxpError::UnknownHole(hole.clone()))?;
                self.fill_rows(table, j)
            }
            _ => Err(LxpError::UnknownHole(hole.clone())),
        }
    }

    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        // One round trip: answer every requested hole, then keep the
        // cursor running — the trailing hole of the last chunk is filled
        // speculatively (up to `batch_budget` continuation chunks), so a
        // sequential scan ships one cursor range per exchange instead of
        // one chunk per exchange.
        let mut items = Vec::with_capacity(holes.len());
        for hole in holes {
            items.push(BatchItem::new(hole.clone(), self.fill(hole)?));
        }
        chase_continuation(self, &mut items, self.batch_budget);
        if self.trace.is_enabled() {
            self.trace.emit(
                Some(self.db.name()),
                TraceKind::WrapperFill {
                    wrapper: "relational",
                    holes: holes.len() as u64,
                    items: items.len() as u64,
                },
            );
        }
        if let Some(m) = &self.metrics {
            m.record_fill(items.len() as u64);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_buffer::BufferNavigator;
    use mix_nav::explore::{materialize, materialize_at};
    use mix_nav::Navigator;
    use mix_relational::{Column, DataType, TableSchema};

    fn demo_db(rows: i64) -> Database {
        let mut db = Database::new("realestate");
        db.create_table(TableSchema::new(
            "homes",
            vec![
                Column::new("addr", DataType::Text),
                Column::new("zip", DataType::Int),
            ],
        ))
        .unwrap();
        for i in 0..rows {
            db.insert("homes", vec![format!("addr{i}").into(), (91000 + i).into()])
                .unwrap();
        }
        db
    }

    #[test]
    fn exports_figure_6_shape() {
        let w = RelationalWrapper::new(demo_db(2), 100);
        let mut nav = BufferNavigator::new(w, "realestate");
        let t = materialize(&mut nav);
        assert_eq!(
            t.to_string(),
            "realestate[homes[row[addr[addr0],zip[91000]],row[addr[addr1],zip[91001]]]]"
        );
    }

    #[test]
    fn chunked_fills_follow_cursor() {
        let w = RelationalWrapper::new(demo_db(10), 3);
        let mut nav = BufferNavigator::new(w, "realestate");
        let stats = nav.stats();
        let root = nav.root();
        let homes = nav.down(&root).unwrap();
        // Walk all 10 rows.
        let rows = materialize_at(&mut nav, &homes);
        assert_eq!(rows.children().len(), 10);
        // Fills: 1 (db root) + ceil(10/3) = 4 row fills = 5.
        assert_eq!(stats.snapshot().fills, 5);
    }

    #[test]
    fn attribute_navigation_costs_no_wrapper_traffic() {
        // Tuples arrive complete, so navigating attributes hits the buffer.
        let w = RelationalWrapper::new(demo_db(5), 5);
        let mut nav = BufferNavigator::new(w, "realestate");
        let stats = nav.stats();
        let root = nav.root();
        let homes = nav.down(&root).unwrap();
        let row1 = nav.down(&homes).unwrap();
        let before = stats.snapshot().fills;
        // Navigate inside the tuple: addr, its value, zip, its value.
        let addr = nav.down(&row1).unwrap();
        assert_eq!(nav.fetch(&addr), "addr");
        let v = nav.down(&addr).unwrap();
        assert_eq!(nav.fetch(&v), "addr0");
        let zip = nav.right(&addr).unwrap();
        assert_eq!(nav.fetch(&zip), "zip");
        assert_eq!(stats.snapshot().fills, before, "no fills for attribute navigation");
    }

    #[test]
    fn partial_scan_fetches_partial_rows() {
        let w = RelationalWrapper::new(demo_db(1000), 10);
        let mut nav = BufferNavigator::new(w, "realestate");
        let stats = nav.stats();
        let root = nav.root();
        let homes = nav.down(&root).unwrap();
        let r1 = nav.down(&homes).unwrap();
        let r2 = nav.right(&r1).unwrap();
        let _r3 = nav.right(&r2).unwrap();
        let snap = stats.snapshot();
        // Only the first chunk of 10 rows (plus db root) was pulled.
        assert!(snap.nodes_received < 60, "received {} nodes (one chunk only)", snap.nodes_received);
        assert_eq!(snap.fills, 2);
    }

    #[test]
    fn empty_table_is_a_leaf() {
        let mut db = Database::new("d");
        db.create_table(TableSchema::new("empty", vec![Column::new("x", DataType::Int)]))
            .unwrap();
        let w = RelationalWrapper::new(db, 10);
        let mut nav = BufferNavigator::new(w, "d");
        let t = materialize(&mut nav);
        assert_eq!(t.to_string(), "d[empty]");
    }

    #[test]
    fn several_tables_listed_in_order() {
        let mut db = Database::new("d");
        for name in ["t1", "t2"] {
            db.create_table(TableSchema::new(name, vec![Column::new("x", DataType::Int)]))
                .unwrap();
            db.insert(name, vec![1.into()]).unwrap();
        }
        let w = RelationalWrapper::new(db, 10);
        let mut nav = BufferNavigator::new(w, "d");
        let t = materialize(&mut nav);
        assert_eq!(t.to_string(), "d[t1[row[x[1]]],t2[row[x[1]]]]");
    }

    #[test]
    fn wrong_uri_is_rejected() {
        let mut w = RelationalWrapper::new(demo_db(1), 10);
        assert!(matches!(w.get_root("other"), Err(LxpError::UnknownSource(_))));
        assert!(matches!(
            w.fill(&"other.homes".to_string()),
            Err(LxpError::UnknownHole(_))
        ));
        assert!(matches!(
            w.fill(&"realestate.nope".to_string()),
            Err(LxpError::UnknownHole(_))
        ));
    }

    #[test]
    fn adaptive_chunk_grows_on_sequential_scan() {
        let mut w = RelationalWrapper::new(demo_db(200), 4).adaptive();
        assert_eq!(w.current_chunk(), 4);
        let mut hole = "realestate.homes".to_string();
        for _ in 0..5 {
            let reply = w.fill(&hole).unwrap();
            match reply.last() {
                Some(Fragment::Hole(id)) => hole = id.clone(),
                _ => break,
            }
        }
        // Each sequential continuation adds `initial` tuples to the chunk.
        assert!(w.current_chunk() > 4, "chunk grew: {}", w.current_chunk());
        assert_eq!(w.cursor_seeks(), 0, "sequential scan never seeks");
    }

    #[test]
    fn adaptive_chunk_shrinks_on_random_access() {
        let mut w = RelationalWrapper::new(demo_db(500), 8).adaptive();
        // Grow it first with a few sequential fills.
        let _ = w.fill(&"realestate.homes".to_string()).unwrap();
        let _ = w.fill(&format!("realestate.homes.{}", w.rows_fetched())).unwrap();
        let grown = w.current_chunk();
        assert!(grown > 8);
        // A backwards jump is waste; a forward jump is random. Both halve.
        let _ = w.fill(&"realestate.homes.0".to_string()).unwrap();
        assert!(w.current_chunk() < grown, "halved after waste: {}", w.current_chunk());
    }

    #[test]
    fn batched_fill_streams_continuation_chunks() {
        let mut w = RelationalWrapper::new(demo_db(20), 5).with_batch_budget(2);
        let items = w
            .fill_many(&["realestate.homes".to_string()])
            .unwrap();
        // 1 requested chunk + 2 speculative continuations = 3 items.
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].hole, "realestate.homes");
        assert_eq!(items[1].hole, "realestate.homes.5");
        assert_eq!(items[2].hole, "realestate.homes.10");
        assert_eq!(w.rows_fetched(), 15);
        assert_eq!(w.cursor_seeks(), 0, "continuations ride the open cursor");
    }

    #[test]
    fn batched_exchanges_are_traced() {
        let sink = TraceSink::enabled(64);
        let mut w = RelationalWrapper::new(demo_db(20), 5)
            .with_batch_budget(2)
            .with_trace(sink.clone());
        let _ = w.fill_many(&["realestate.homes".to_string()]).unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].source.as_deref(), Some("realestate"));
        match events[0].kind {
            TraceKind::WrapperFill { wrapper, holes, items } => {
                assert_eq!(wrapper, "relational");
                assert_eq!(holes, 1);
                assert_eq!(items, 3, "requested chunk + 2 continuations");
            }
            ref other => panic!("expected WrapperFill, got {other:?}"),
        }
    }

    #[test]
    fn batched_exchanges_are_metered() {
        let reg = MetricsRegistry::enabled();
        let mut w = RelationalWrapper::new(demo_db(20), 5)
            .with_batch_budget(2)
            .with_metrics(&reg, "realestate");
        let _ = w.fill_many(&["realestate.homes".to_string()]).unwrap();
        let labels = &[("wrapper", "relational"), ("source", "realestate")][..];
        let snap = reg.snapshot();
        assert_eq!(snap.value("mix_wrapper_fills_total", labels), Some(1));
        assert_eq!(
            snap.value("mix_wrapper_fill_items_total", labels),
            Some(3),
            "requested chunk + 2 continuations"
        );

        // A disabled registry records nothing but costs only a flag read.
        let off = MetricsRegistry::default();
        let mut w = RelationalWrapper::new(demo_db(20), 5).with_metrics(&off, "realestate");
        let _ = w.fill_many(&["realestate.homes".to_string()]).unwrap();
        assert_eq!(off.snapshot().total("mix_wrapper_fills_total"), 0);
    }

    #[test]
    fn batched_scan_matches_unbatched_with_fewer_requests() {
        let mk = || RelationalWrapper::new(demo_db(60), 5);
        let mut plain = BufferNavigator::new(mk(), "realestate");
        let mut batched =
            BufferNavigator::new(mk().with_batch_budget(4), "realestate").batched(8);
        let plain_stats = plain.stats();
        let batched_stats = batched.stats();
        let a = materialize(&mut plain);
        let b = materialize(&mut batched);
        assert_eq!(a.to_string(), b.to_string());
        let (p, q) = (plain_stats.snapshot(), batched_stats.snapshot());
        assert!(
            q.requests * 4 < p.requests,
            "batched {} vs unbatched {} wire exchanges",
            q.requests,
            p.requests
        );
    }

    #[test]
    fn cursor_work_is_observable() {
        let mut w = RelationalWrapper::new(demo_db(10), 4);
        let _ = w.fill(&"realestate.homes".to_string()).unwrap();
        let _ = w.fill(&"realestate.homes.4".to_string()).unwrap();
        assert_eq!(w.rows_fetched(), 8);
        assert_eq!(w.cursor_seeks(), 0, "sequential fills need no seeks");
        // A random re-read seeks.
        let _ = w.fill(&"realestate.homes.0".to_string()).unwrap();
        assert_eq!(w.cursor_seeks(), 1);
    }
}

#[cfg(test)]
mod query_mode_tests {
    use super::*;
    use mix_buffer::BufferNavigator;
    use mix_nav::explore::{first_k_children, materialize};
    use mix_nav::Navigator;
    use mix_relational::{Column, DataType, SqlOp, SqlQuery, TableSchema};

    fn db(rows: i64) -> Database {
        let mut db = Database::new("realestate");
        db.create_table(TableSchema::new(
            "homes",
            vec![
                Column::new("addr", DataType::Text),
                Column::new("zip", DataType::Int),
                Column::new("price", DataType::Int),
            ],
        ))
        .unwrap();
        for i in 0..rows {
            db.insert(
                "homes",
                vec![
                    format!("addr{i}").into(),
                    (91000 + i % 7).into(),
                    (200_000 + i * 10_000).into(),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn query_mode_exports_figure_6_view() {
        // SELECT addr, price FROM homes WHERE price < 240000.
        let q = SqlQuery::scan("homes")
            .select(&["addr", "price"])
            .filter("price", SqlOp::Lt, 240_000);
        let w = RelationalWrapper::with_query(db(10), q, 100);
        let mut nav = BufferNavigator::new(w, "realestate");
        let t = materialize(&mut nav);
        assert_eq!(
            t.to_string(),
            "view[row[addr[addr0],price[200000]],row[addr[addr1],price[210000]],\
             row[addr[addr2],price[220000]],row[addr[addr3],price[230000]]]"
        );
    }

    #[test]
    fn query_mode_chunks_qualifying_rows() {
        // Every other row qualifies; chunk = 2 qualifying tuples per fill.
        let q = SqlQuery::scan("homes").filter("zip", SqlOp::Eq, 91000);
        let w = RelationalWrapper::with_query(db(28), q, 2);
        let mut nav = BufferNavigator::new(w, "realestate");
        let stats = nav.stats();
        let t = materialize(&mut nav);
        assert_eq!(t.children().len(), 4); // rows 0,7,14,21
        // Fills: root (rows 0,7) + continuation (rows 14,21) + one final
        // empty fill confirming no qualifying rows remain past row 21.
        assert_eq!(stats.snapshot().fills, 3);
    }

    #[test]
    fn query_mode_is_lazier_than_client_side_filtering() {
        // Pushdown ships only qualifying tuples: reaching the first result
        // transfers far fewer nodes than shipping raw rows to the
        // mediator.
        let q = SqlQuery::scan("homes").filter("price", SqlOp::Gt, 2_100_000);
        let w = RelationalWrapper::with_query(db(1000), q, 10);
        let mut nav = BufferNavigator::new(w, "realestate");
        let stats = nav.stats();
        let root = nav.root();
        let first = nav.down(&root).unwrap();
        let _ = first_k_children(&mut nav, 0); // no-op; keep handle alive
        assert_eq!(nav.fetch(&first), "row");
        let snap = stats.snapshot();
        assert!(
            snap.nodes_received < 100,
            "only qualifying tuples cross the wire: {snap:?}"
        );
    }

    #[test]
    fn query_mode_empty_result() {
        let q = SqlQuery::scan("homes").filter("price", SqlOp::Lt, 0);
        let w = RelationalWrapper::with_query(db(5), q, 10);
        let mut nav = BufferNavigator::new(w, "realestate");
        assert_eq!(materialize(&mut nav).to_string(), "view");
    }

    #[test]
    fn query_mode_unknown_table_is_a_source_error() {
        let q = SqlQuery::scan("nope");
        let mut w = RelationalWrapper::with_query(db(1), q, 10);
        let h = w.get_root("realestate").unwrap();
        assert!(matches!(w.fill(&h), Err(LxpError::SourceError(_))));
    }

    #[test]
    fn warm_session_over_the_shared_cache_skips_the_database() {
        // The wrapper's hole ids are self-describing (`db.table.row`), so
        // a second session over a fresh wrapper instance can be served
        // entirely from a shared cross-query cache — zero wire exchanges.
        use mix_buffer::FragmentCache;
        let cache = FragmentCache::new();
        let mut cold = BufferNavigator::new(RelationalWrapper::new(db(3), 100), "realestate")
            .with_fragment_cache(cache.clone());
        let answer = materialize(&mut cold).to_string();
        assert!(cold.stats().snapshot().requests > 0, "cold session paid the wire");

        let mut warm = BufferNavigator::new(RelationalWrapper::new(db(3), 100), "realestate")
            .with_fragment_cache(cache.clone());
        let stats = warm.stats();
        assert_eq!(materialize(&mut warm).to_string(), answer, "byte-identical warm answer");
        let s = stats.snapshot();
        assert_eq!(s.requests, 0, "warm session never reached the database");
        assert_eq!(s.get_roots, 0, "even the root handle came from the cache");
    }
}
