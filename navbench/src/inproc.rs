//! The two in-process workloads: no server, no wire. One client thread
//! builds fresh buffers and an engine per iteration over shared, counted
//! wrappers — the way `SessionSources` hands sessions fresh buffers over
//! pooled wrappers — and navigates the engine directly.

use crate::client::{ms_since, us_since, EngineClient, NavClient, Samples};
use crate::interpose::{Interposed, SourceCounters, TimedNavigator};
use crate::script::{answers, first_answer, Checksum, Client, Fail};
use crate::span::{self, Kind};
use crate::workload::{
    align_first_zip_match, aligning_rotation, compile, level_zips, oracle, script_cost_ns,
    through_xml, tree_source, ClientLoop, Common, Probe, SetupInfo, Workload,
};
use mix_algebra::Plan;
use mix_buffer::{BufferNavigator, BufferStats, LxpWrapper, SharedWrapper, SourceHealth};
use mix_core::{Engine, EngineConfig, SourceRegistry};
use mix_nav::DocNavigator;
use mix_relational::Database;
use mix_wrappers::{gen, RelationalWrapper};
use mix_xml::xmlio::to_xml;
use mix_xml::{Document, Tree};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Figure 3's join with the homes side in a relational source.
const JOIN: &str = "\
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE realestate realestate.homes.row $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2";

/// The paper's selective view: one home in nine is this cheap.
const CHEAP: &str = "\
CONSTRUCT <cheap_homes> $R {$R} </cheap_homes> {}
WHERE realestate realestate.homes.row $R AND $R price._ $P AND $P < 300000";
const CHEAP_BELOW: i64 = 300_000;

/// Answers `inproc_first_k` asks for.
const FIRST_K: usize = 10;
/// Where the generated rows are rotated to put the first and the
/// `FIRST_K`-th cheap home: at their expected rows for a selectivity of
/// one in nine, both inside the first chunk of 100.
const FIRST_MATCH_ROW: usize = 8;
const KTH_MATCH_ROW: usize = 89;

/// The relational export as a tree, built from the table itself rather
/// than through the wrapper under test: `db[table[row[col[value]…]…]…]`.
fn database_tree(db: &Database) -> Tree {
    let tables = db
        .tables()
        .map(|table| {
            let rows = table
                .scan()
                .map(|row| {
                    let cells = table.schema().columns.iter().zip(row);
                    Tree::node(
                        "row",
                        cells
                            .map(|(c, v)| {
                                Tree::node(c.name.as_str(), vec![Tree::leaf(v.to_string())])
                            })
                            .collect(),
                    )
                })
                .collect();
            Tree::node(table.schema().name.as_str(), rows)
        })
        .collect();
    Tree::node(db.name(), tables)
}

/// A source as iterations see it: a shared wrapper to put fresh buffers on.
type Shared = SharedWrapper<Box<dyn LxpWrapper + Send>>;

struct Source {
    name: &'static str,
    wrapper: Shared,
    /// Holes per `fill_many`; 1 is the unbatched protocol.
    batch: usize,
}

/// What both workloads are: a query, sources, and how much of the answer
/// the client reads.
pub struct InProc {
    common: Common,
    sources: Arc<Vec<Source>>,
    /// `Compiled` plans are cloned per iteration; `Text` is compiled per
    /// iteration, which is then part of what is measured.
    query: Query,
    limit: usize,
    /// The oracle's answer: document for the script-cost probe, checksum
    /// of its serialisation (first `limit` children) for the check.
    answer: Arc<Document>,
    expected: Checksum,
}

#[derive(Clone)]
enum Query {
    Compiled(Plan),
    Text(&'static str),
}

fn shared(wrapper: impl LxpWrapper + Send + 'static) -> Shared {
    SharedWrapper::new(Box::new(wrapper))
}

/// Serialise answers the way the client does and checksum the bytes.
fn checksum_of(answers: &[Tree]) -> Checksum {
    let mut sum = Checksum::default();
    for answer in answers {
        sum.bytes(to_xml(answer).as_bytes());
    }
    sum
}

impl InProc {
    /// `inproc_cold_scan`: the whole 1000 × 1000 join.
    pub fn cold_scan(seed: u64) -> Result<InProc, String> {
        let mut info = SetupInfo::default();
        let db = gen::homes_database(seed, 1000, 100);
        let homes = through_xml(&database_tree(&db), &mut info)?;
        let rows = homes.children()[0].children();
        let mut schools = gen::schools_doc(seed.wrapping_add(1), 1000, 100);
        // Ten schools in every zip code a home has: 10 000 pairs whatever
        // the seed.
        let zips: BTreeSet<String> = rows
            .iter()
            .filter_map(|row| row.child("zip").map(Tree::text))
            .collect();
        level_zips(&mut schools, &Vec::from_iter(zips));
        // One school in 100 matches: the first match is expected at 99.
        align_first_zip_match(&mut schools, &rows[0], 99);
        let schools = through_xml(&schools, &mut info)?;
        let plan = compile(JOIN, false, &mut info)?;
        let answer = oracle(
            &plan,
            &[("realestate", &homes), ("schoolsSrc", &schools)],
            &mut info,
        )?;
        let counters = Arc::new(SourceCounters::default());
        let sources = vec![
            Source {
                name: "realestate",
                wrapper: shared(Interposed::new(
                    RelationalWrapper::new(db, 10),
                    Arc::clone(&counters),
                )),
                batch: 8,
            },
            Source {
                name: "schoolsSrc",
                wrapper: shared(tree_source("schoolsSrc", &schools, &counters)),
                batch: 8,
            },
        ];
        Ok(InProc::new(
            info,
            counters,
            sources,
            Query::Compiled(plan),
            usize::MAX,
            &answer,
        ))
    }

    /// `inproc_first_k`: query text to the first ten cheap homes of 10 000.
    pub fn first_k(seed: u64) -> Result<InProc, String> {
        let mut info = SetupInfo::default();
        let db = cheap_homes_aligned(gen::homes_database(seed, 10_000, 100))?;
        let homes = through_xml(&database_tree(&db), &mut info)?;
        let plan = compile(CHEAP, true, &mut info)?;
        let answer = oracle(&plan, &[("realestate", &homes)], &mut info)?;
        let counters = Arc::new(SourceCounters::default());
        let sources = vec![Source {
            name: "realestate",
            wrapper: shared(Interposed::new(
                RelationalWrapper::new(db, 100),
                Arc::clone(&counters),
            )),
            batch: 1,
        }];
        Ok(InProc::new(
            info,
            counters,
            sources,
            Query::Text(CHEAP),
            FIRST_K,
            &answer,
        ))
    }

    fn new(
        info: SetupInfo,
        counters: Arc<SourceCounters>,
        sources: Vec<Source>,
        query: Query,
        limit: usize,
        answer: &Tree,
    ) -> InProc {
        let wanted = &answer.children()[..limit.min(answer.children().len())];
        InProc {
            common: Common {
                info,
                counters,
                probe: Arc::default(),
            },
            sources: Arc::new(sources),
            query,
            limit,
            answer: Arc::new(Document::from_tree(answer)),
            expected: checksum_of(wanted),
        }
    }
}

/// The generated `homes` table with its rows rotated so that the first
/// cheap home is at `FIRST_MATCH_ROW` and the `FIRST_K`-th as near
/// `KTH_MATCH_ROW` as the data allow (see `aligning_rotation`).
fn cheap_homes_aligned(db: Database) -> Result<Database, String> {
    let table = db
        .table("homes")
        .ok_or("the generated database has no homes table")?;
    let price = table
        .schema()
        .col_index("price")
        .ok_or("the homes table has no price column")?;
    let cheap: Vec<bool> = table
        .scan()
        .map(|row| matches!(row[price], mix_relational::Value::Int(p) if p < CHEAP_BELOW))
        .collect();
    let Some(by) = aligning_rotation(&cheap, FIRST_MATCH_ROW, FIRST_K, KTH_MATCH_ROW) else {
        return Ok(db);
    };
    let mut rotated = Database::new(db.name());
    rotated
        .create_table(table.schema().clone())
        .map_err(|e| e.to_string())?;
    let rows = table.scan().skip(by).chain(table.scan().take(by)).cloned();
    rotated
        .insert_rows("homes", rows)
        .map_err(|e| e.to_string())?;
    Ok(rotated)
}

impl Workload for InProc {
    fn common(&self) -> &Common {
        &self.common
    }

    fn clients(&self, traced: bool) -> Result<Vec<Box<dyn ClientLoop>>, String> {
        Ok(vec![Box::new(InProcClient {
            sources: Arc::clone(&self.sources),
            probe: Arc::clone(&self.common.probe),
            query: self.query.clone(),
            limit: self.limit,
            expected: self.expected,
            traced,
            filled: None,
        })])
    }

    fn script_overhead_ns(&self) -> f64 {
        let rounds = if self.limit == usize::MAX { 3 } else { 2_000 };
        script_cost_ns(rounds, || {
            let mut c = NavClient {
                nav: DocNavigator::new(Arc::clone(&self.answer)),
                commands: 0,
            };
            let _ = read_answers(&mut c, self.limit, &mut None);
            c.commands
        })
    }
}

/// The client's script: first answer, then up to `limit` answers in full.
/// `first_at` is set the moment the first answer's label is in hand.
fn read_answers<C: Client>(
    c: &mut C,
    limit: usize,
    first_at: &mut Option<Instant>,
) -> Result<Vec<Tree>, Fail> {
    let mut sum = Checksum::default();
    let first = first_answer(c, &mut sum)?;
    *first_at = Some(Instant::now());
    match first {
        Some(first) => answers(c, first, limit, &mut sum),
        None => Ok(Vec::new()),
    }
}

struct InProcClient {
    sources: Arc<Vec<Source>>,
    probe: Arc<Probe>,
    query: Query,
    limit: usize,
    expected: Checksum,
    traced: bool,
    /// The buffers of the last walk: `rewalk` walks over them again, the
    /// next iteration tears them down.
    filled: Option<Buffers>,
}

/// The buffers of one iteration, as the registry and the report see them.
struct Buffers {
    registry: SourceRegistry,
    handles: Vec<(BufferStats, SourceHealth)>,
}

impl InProcClient {
    fn fresh_buffers(&self) -> Buffers {
        let mut registry = SourceRegistry::new();
        let mut handles = Vec::new();
        for source in self.sources.iter() {
            let mut nav = BufferNavigator::new(source.wrapper.clone(), source.name);
            if source.batch > 1 {
                nav = nav.batched(source.batch);
            }
            handles.push((nav.stats(), nav.health()));
            if self.traced {
                registry.add_navigator(source.name, TimedNavigator::new(nav));
            } else {
                registry.add_navigator(source.name, nav);
            }
        }
        Buffers { registry, handles }
    }

    /// From the query in hand to the checked answer: a cold walk opens
    /// fresh buffers, a warm one reuses `filled`. Returns the walk's
    /// duration in ms and the buffers it used.
    fn walk(&self, filled: Option<Buffers>, samples: &mut Samples) -> (f64, Buffers) {
        let posed = Instant::now();
        let plan = match &self.query {
            Query::Compiled(plan) => Ok(plan.clone()),
            Query::Text(text) => compile(text, true, &mut SetupInfo::default()),
        };
        let buffers =
            filled.unwrap_or_else(|| span::within(Kind::BufferOpen, || self.fresh_buffers()));
        let engine = plan.and_then(|plan| {
            span::within(Kind::EngineBuild, || {
                Engine::with_config(plan, &buffers.registry, EngineConfig::default())
                    .map_err(|e| e.to_string())
            })
        });
        samples.attempted += 1;
        let mut engine = match engine {
            Ok(engine) => engine,
            Err(why) => {
                samples.fail(format!("open: {why}"));
                return (ms_since(posed), buffers);
            }
        };
        samples.open_us.push(us_since(posed));
        let mut client = EngineClient {
            engine: &mut engine,
            commands: 0,
        };
        let (walk_start, mut first_at) = (Instant::now(), None);
        let read = read_answers(&mut client, self.limit, &mut first_at);
        let (commands, walk_us) = (client.commands, us_since(walk_start));
        samples.commands += commands;
        samples.attempted += commands;
        match read {
            Ok(answers) => {
                let seen = span::within(Kind::XmlSerialize, || checksum_of(&answers));
                samples.answer_rows += answers.len() as u64;
                let expected = self.expected;
                samples.check(seen == expected, || {
                    format!("answer is {seen:?}, the oracle's {expected:?}")
                });
            }
            Err(Fail(why)) => samples.fail(why),
        }
        let walked = ms_since(posed);
        if let Some(at) = first_at {
            samples
                .first_answer_ms
                .push(at.duration_since(posed).as_secs_f64() * 1e3);
        }
        samples.walk_nav_us.push(walk_us / commands.max(1) as f64);
        span::within(Kind::Teardown, || drop(engine));
        (walked, buffers)
    }
}

impl ClientLoop for InProcClient {
    /// The cold walk: fresh buffers, and before them the teardown of the
    /// previous walk's, so every lap pays for one.
    fn iteration(&mut self, _index: u32, samples: &mut Samples) {
        span::within(Kind::Teardown, || drop(self.filled.take()));
        let (cold, buffers) = span::within(Kind::ColdWalk, || self.walk(None, samples));
        samples.cold_walk_ms.push(cold);
        // Like the spans, only inside the traced window, not its warm-up.
        if span::enabled() {
            let mut totals = self
                .probe
                .buffers
                .lock()
                .expect("only this client writes it");
            for (stats, health) in &buffers.handles {
                let snap = stats.snapshot();
                totals.fills += snap.fills;
                totals.requests += snap.requests + snap.get_roots;
                totals.batched_holes += snap.batched_holes;
                totals.bytes_received += snap.bytes_received;
                totals.wasted_bytes += snap.wasted_bytes;
                totals.retries += health.snapshot().retries;
            }
        }
        self.filled = Some(buffers);
    }

    /// The warm walk: the same query again, with a fresh engine, over the
    /// buffers the cold walk filled. Only its duration and its failures
    /// are kept.
    fn rewalk(&mut self, samples: &mut Samples) {
        let mut dropped = Samples::default();
        let filled = self.filled.take();
        let (warm, buffers) = self.walk(filled, &mut dropped);
        self.filled = Some(buffers);
        samples.warm_walk_ms.push(warm);
        samples.merge(dropped.failures_only());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_tree_matches_what_the_relational_wrapper_exports() {
        let db = gen::homes_database(3, 25, 4);
        let tree = database_tree(&db);
        let mut nav = BufferNavigator::new(RelationalWrapper::new(db, 7), "realestate");
        assert_eq!(mix_nav::materialize(&mut nav), tree);
    }

    #[test]
    fn cheap_homes_sit_at_their_expected_rows_for_any_seed() {
        for seed in [1, 2, 3, 40, 500] {
            let db = cheap_homes_aligned(gen::homes_database(seed, 2_000, 100)).unwrap();
            let table = db.table("homes").unwrap();
            assert_eq!(table.len(), 2_000);
            let cheap: Vec<usize> = table
                .scan()
                .enumerate()
                .filter(
                    |(_, row)| matches!(row[2], mix_relational::Value::Int(p) if p < CHEAP_BELOW),
                )
                .map(|(i, _)| i)
                .collect();
            assert_eq!(cheap[0], FIRST_MATCH_ROW, "seed {seed}");
            assert!(
                cheap[FIRST_K - 1].abs_diff(KTH_MATCH_ROW) <= 3,
                "seed {seed}: tenth at {}",
                cheap[FIRST_K - 1]
            );
        }
    }
}
