//! The two served workloads: a `VxdServer` on loopback TCP, clients in
//! the same process, one connection and one thread per client.

use crate::client::{close_session, ms_since, open_session, NavClient, Samples, ServedSession};
use crate::interpose::{serve_traced, ConnShared, CountedStream, SourceCounters};
use crate::script::{dfs_prefix, first_answer, mix64, wander, Checksum, Fail, DEAL};
use crate::span::{self, Kind};
use crate::workload::{
    align_first_zip_match, compile, oracle, script_cost_ns, through_xml, tree_source, ClientLoop,
    Common, LayerState, Probe, SetupInfo, Workload,
};
use mix_algebra::Plan;
use mix_buffer::{FragmentCache, MetricsRegistry};
use mix_core::Engine;
use mix_nav::DocNavigator;
use mix_serve::{ServerHandle, SessionSources, VxdClient, VxdServer};
use mix_wrappers::gen;
use mix_xml::{Document, Tree};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The paper's Figure 3 view: homes with the schools of their zip code.
pub const FIG3: &str = "\
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2";

/// E19's six templates, most popular first.
const TEMPLATES: [(&str, &str); 6] = [
    (
        "homes",
        "CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H",
    ),
    (
        "filter",
        "CONSTRUCT <picked> $X {$X} </picked> {} WHERE src items.wanted $X",
    ),
    (
        "schools",
        "CONSTRUCT <sc> $S {$S} </sc> {} WHERE schoolsSrc schools.school $S",
    ),
    (
        "zips",
        "CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home.zip._ $Z",
    ),
    (
        "items",
        "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X",
    ),
    ("fig3", FIG3),
];

/// Commands of the depth-first prefix a `served_walk` session runs after
/// its first answer.
const WALK_COMMANDS: usize = 24;
/// Seeded wander steps of a `served_churn` session after its first answer.
const WANDER_STEPS: usize = 10;
/// Sessions each `served_churn` client keeps open.
const OPEN_WINDOW: usize = 32;
/// `served_churn`'s fragment cache holds this share of what the whole
/// fig3 answer leaves in an unbounded cache (23.2 KB at these source
/// sizes, so 4.6 KB). That is room for what the sessions over the five
/// small templates touch, so a small view asked for again is served from
/// the cache, and not for a fig3 session's scan of the schools, which
/// floods it: hit ratio 0.22 to 0.26 and 46 to 57 evictions per iteration
/// (a traced window holds eight to ten iterations, not a whole cycle of
/// the deal). The cache is read and written under two-way contention, and
/// partly effective.
///
/// The issue's 0.5-0.8 cannot be had with counts that repeat. From 0.1
/// to 0.3 of the working set (2.3 to 7.0 KB) the hit ratio and the
/// exchange count are the same to the last digit; at 0.4 (9.3 KB)
/// everything the twelve-command sessions ever touch fits and it is
/// 0.985 with no eviction. In between LRU falls off a cliff, and what
/// survives a scan depends on how the two clients' commands interleave.
/// 0.2 sits in the middle of the flat stretch.
const CACHE_BUDGET_FACTOR: f64 = 0.2;

/// What the served workloads share: the server, its listener, and the
/// state the traced pass needs to interpose on a connection.
struct Served {
    common: Common,
    server: VxdServer,
    handle: ServerHandle,
    /// Connections made during set-up, one per client, for the untraced
    /// pass (connecting is part of `setup_s`).
    ready: Mutex<Vec<TcpStream>>,
}

/// A client's end of a connection, and the thread serving the other end
/// when that thread is the benchmark's own.
struct Conn<S: Read + Write> {
    client: VxdClient<S>,
    traced: Option<(Arc<ConnShared>, JoinHandle<()>)>,
    server: VxdServer,
    probe: Arc<Probe>,
}

impl Served {
    fn start(
        info: SetupInfo,
        counters: Arc<SourceCounters>,
        server: VxdServer,
        clients: usize,
    ) -> Result<Served, String> {
        let handle = server
            .serve_tcp("127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?;
        let ready = (0..clients)
            .map(|_| TcpStream::connect(handle.local_addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Served {
            common: Common {
                info,
                counters,
                probe: Arc::default(),
            },
            server,
            handle,
            ready: Mutex::new(ready),
        })
    }

    /// The untraced pass goes through `VxdServer::serve_tcp` untouched.
    fn plain_conn(&self) -> Result<Conn<TcpStream>, String> {
        let ready = self.ready.lock().expect("set-up has finished").pop();
        let stream = match ready {
            Some(stream) => stream,
            None => {
                TcpStream::connect(self.handle.local_addr()).map_err(|e| format!("connect: {e}"))?
            }
        };
        Ok(self.conn(VxdClient::new(stream), None))
    }

    /// The traced pass serves the connection from the benchmark's own
    /// loop and counts the client's side of the socket.
    fn traced_conn(&self) -> Result<Conn<CountedStream<TcpStream>>, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (server_end, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let shared = Arc::new(ConnShared::default());
        self.common
            .probe
            .conns
            .lock()
            .expect("probe is only pushed to")
            .push(Arc::clone(&shared));
        let (server, for_loop) = (self.server.clone(), Arc::clone(&shared));
        let serving = std::thread::spawn(move || serve_traced(&server, server_end, &for_loop));
        let stream = CountedStream::new(stream, Arc::clone(&self.common.probe.stream));
        Ok(self.conn(VxdClient::new(stream), Some((shared, serving))))
    }

    fn conn<S: Read + Write>(
        &self,
        client: VxdClient<S>,
        traced: Option<(Arc<ConnShared>, JoinHandle<()>)>,
    ) -> Conn<S> {
        Conn {
            client,
            traced,
            server: self.server.clone(),
            probe: Arc::clone(&self.common.probe),
        }
    }

    fn layer_state(&self) -> LayerState {
        let cache = self.server.cache().stats();
        LayerState {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            panics: self
                .server
                .metrics()
                .snapshot()
                .total("mix_serve_session_panics_total"),
            retries: self.server.source_health().iter().map(|s| s.retries).sum(),
        }
    }
}

impl<S: Read + Write> Conn<S> {
    fn set_iteration(&self, index: u32) {
        if let Some((shared, _)) = &self.traced {
            shared.iteration.store(index, Ordering::Relaxed);
        }
    }

    /// Hang up; in the traced pass, wait for the serving thread and pair
    /// the client's round trips with its service times.
    fn hang_up(self, samples: &mut Samples) {
        drop(self.client);
        let Some((shared, serving)) = self.traced else {
            return;
        };
        if serving.join().is_err() {
            samples.fail("the traced connection loop panicked");
            return;
        }
        let service = shared.service_ns.lock().expect("its only writer has ended");
        let wire = samples
            .exchange_ns
            .kept()
            .iter()
            .zip(service.kept())
            .map(|(rtt, served)| (rtt - served) / 1e3);
        self.probe
            .wire_rtt_us
            .lock()
            .expect("probe is only pushed to")
            .extend(wire);
    }
}

fn pool_with(
    sources: &[(&str, &Tree)],
    cache: FragmentCache,
    counters: &Arc<SourceCounters>,
) -> SessionSources {
    // Metrics on, as `serve_quickstart` and E19 deploy it: the server's
    // own panic counter is read back through the registry.
    let mut pool = SessionSources::new(cache, MetricsRegistry::enabled());
    for (name, tree) in sources {
        pool.add_wrapper(*name, tree_source(name, tree, counters));
    }
    pool
}

/// What became of one session.
struct Walked {
    /// The session, left open.
    id: u64,
    /// What the script saw; `None` when a command failed (the failure is
    /// already counted).
    seen: Option<Checksum>,
    /// Query posed → first answer's label in hand.
    first_answer_ms: Option<f64>,
}

/// One session: open, first answer, then `rest` of the script.
fn session<S: Read + Write>(
    conn: &mut Conn<S>,
    template: &str,
    samples: &mut Samples,
    rest: impl FnOnce(&mut ServedSession<'_, S>, u64, &mut Checksum) -> Result<(), Fail>,
) -> Option<Walked> {
    let posed = Instant::now();
    let open = open_session(&mut conn.client, template, samples)?;
    if span::enabled() {
        conn.probe
            .sessions_peak
            .fetch_max(conn.server.session_count() as u64, Ordering::Relaxed);
    }
    let (mut sum, mut first_answer_ms) = (Checksum::default(), None);
    let mut served = ServedSession {
        client: &mut conn.client,
        session: open.session,
        root: open.root,
        samples,
    };
    let walked = first_answer(&mut served, &mut sum).and_then(|first| {
        first_answer_ms = Some(ms_since(posed));
        match first {
            Some((node, _)) => {
                served.samples.answer_rows += 1;
                rest(&mut served, node, &mut sum)
            }
            None => Ok(()),
        }
    });
    let seen = match walked {
        Ok(()) => Some(sum),
        Err(Fail(why)) => {
            samples.fail(format!("{template}: {why}"));
            None
        }
    };
    Some(Walked {
        id: open.session,
        seen,
        first_answer_ms,
    })
}

// ---------------------------------------------------------------------
// served_walk
// ---------------------------------------------------------------------

pub struct ServedWalk {
    served: Served,
    expected: Checksum,
    answer: Arc<Document>,
}

impl ServedWalk {
    pub fn set_up(seed: u64) -> Result<ServedWalk, String> {
        let mut info = SetupInfo::default();
        let homes = through_xml(&gen::homes_doc(seed, 200, 20), &mut info)?;
        let mut schools = gen::schools_doc(seed.wrapping_add(1), 200, 20);
        // One school in 20 matches: the first match is expected at 19.
        align_first_zip_match(&mut schools, &homes.children()[0], 19);
        let schools = through_xml(&schools, &mut info)?;
        let sources = [("homesSrc", &homes), ("schoolsSrc", &schools)];
        let plan = compile(FIG3, false, &mut info)?;
        let answer = Arc::new(Document::from_tree(&oracle(&plan, &sources, &mut info)?));
        let counters = Arc::new(SourceCounters::default());
        let mut server = VxdServer::new(pool_with(&sources, FragmentCache::new(), &counters));
        server.add_template("fig3", FIG3)?;
        let (expected, _) = walk_over_oracle(&answer);
        Ok(ServedWalk {
            served: Served::start(info, counters, server, 1)?,
            expected,
            answer,
        })
    }
}

/// The walk script against the materialised oracle: its checksum and the
/// number of commands it issues.
fn walk_over_oracle(answer: &Arc<Document>) -> (Checksum, u64) {
    let mut c = NavClient {
        nav: DocNavigator::new(Arc::clone(answer)),
        commands: 0,
    };
    let mut sum = Checksum::default();
    if let Ok(Some((first, _))) = first_answer(&mut c, &mut sum) {
        let _ = dfs_prefix(&mut c, first, WALK_COMMANDS, &mut sum);
    }
    (sum, c.commands)
}

impl Workload for ServedWalk {
    fn common(&self) -> &Common {
        &self.served.common
    }
    fn layer_state(&self) -> LayerState {
        self.served.layer_state()
    }

    fn clients(&self, traced: bool) -> Result<Vec<Box<dyn ClientLoop>>, String> {
        let expected = self.expected;
        Ok(vec![if traced {
            Box::new(WalkClient {
                conn: self.served.traced_conn()?,
                expected,
            }) as Box<dyn ClientLoop>
        } else {
            Box::new(WalkClient {
                conn: self.served.plain_conn()?,
                expected,
            })
        }])
    }

    fn script_overhead_ns(&self) -> f64 {
        script_cost_ns(2_000, || walk_over_oracle(&self.answer).1)
    }
}

struct WalkClient<S: Read + Write> {
    conn: Conn<S>,
    expected: Checksum,
}

impl<S: Read + Write> WalkClient<S> {
    /// A whole session, open to close: its duration and its time to the
    /// first answer, in ms.
    fn walk(&mut self, samples: &mut Samples) -> (f64, Option<f64>) {
        let start = Instant::now();
        let done = session(&mut self.conn, "fig3", samples, |served, first, sum| {
            dfs_prefix(served, first, WALK_COMMANDS, sum)
        });
        let Some(walked) = done else {
            return (ms_since(start), None);
        };
        close_session(&mut self.conn.client, walked.id, samples);
        let duration = ms_since(start);
        if let Some(sum) = walked.seen {
            let expected = self.expected;
            samples.check(sum == expected, || {
                format!("walk saw {sum:?}, the oracle {expected:?}")
            });
        }
        (duration, walked.first_answer_ms)
    }
}

impl<S: Read + Write + Send> ClientLoop for WalkClient<S> {
    fn iteration(&mut self, index: u32, samples: &mut Samples) {
        self.conn.set_iteration(index);
        span::within(Kind::CacheClear, || self.conn.server.cache().clear());
        let (cold, first_answer) = span::within(Kind::ColdWalk, || self.walk(samples));
        samples.cold_walk_ms.push(cold);
        // Only the cold session's first answer is reported: with the
        // warm one's the median would sit between two populations.
        first_answer
            .into_iter()
            .for_each(|ms| samples.first_answer_ms.push(ms));
        let (warm, _) = span::within(Kind::WarmWalk, || self.walk(samples));
        samples.warm_walk_ms.push(warm);
    }

    fn finish(self: Box<Self>, samples: &mut Samples) {
        self.conn.hang_up(samples);
    }
}

// ---------------------------------------------------------------------
// served_churn
// ---------------------------------------------------------------------

pub struct ServedChurn {
    served: Served,
    /// The oracle's answer per template, in `TEMPLATES` order.
    answers: Arc<Vec<Arc<Document>>>,
}

impl ServedChurn {
    pub fn set_up(seed: u64) -> Result<ServedChurn, String> {
        let mut info = SetupInfo::default();
        // E19's source sizes.
        let homes = through_xml(&gen::homes_doc(seed, 60, 8), &mut info)?;
        let mut schools = gen::schools_doc(seed.wrapping_add(1), 40, 8);
        align_first_zip_match(&mut schools, &homes.children()[0], 7);
        let schools = through_xml(&schools, &mut info)?;
        let items = through_xml(&gen::filter_doc(120, 5), &mut info)?;
        let sources = [
            ("homesSrc", &homes),
            ("schoolsSrc", &schools),
            ("src", &items),
        ];
        let mut answers = Vec::new();
        for (_, query) in TEMPLATES {
            let plan = compile(query, false, &mut info)?;
            answers.push(Arc::new(Document::from_tree(&oracle(
                &plan, &sources, &mut info,
            )?)));
        }
        let fig3 = compile(FIG3, false, &mut info)?;
        let budget = (fig3_working_set(&fig3, &sources)? as f64 * CACHE_BUDGET_FACTOR) as u64;
        let counters = Arc::new(SourceCounters::default());
        let mut server = VxdServer::new(pool_with(
            &sources,
            FragmentCache::with_budget(budget),
            &counters,
        ));
        for (name, query) in TEMPLATES {
            server.add_template(name, query)?;
        }
        let served = Served::start(info, counters, server, 2)?;
        Ok(ServedChurn {
            served,
            answers: Arc::new(answers),
        })
    }
}

/// Bytes the whole fig3 answer leaves in an unbounded fragment cache:
/// every home and every school, the largest working set a template has.
fn fig3_working_set(fig3: &Plan, sources: &[(&str, &Tree)]) -> Result<u64, String> {
    let pool = pool_with(sources, FragmentCache::new(), &Arc::default());
    let mut engine =
        Engine::new(fig3.clone(), &pool.registry_for_session()).map_err(|e| e.to_string())?;
    mix_nav::materialize(&mut engine);
    Ok(pool.cache().stats().bytes)
}

/// A churn session's script after its first answer, against anything.
fn wander_over_oracle(answer: &Arc<Document>, seed: u64) -> (Checksum, u64) {
    let mut c = NavClient {
        nav: DocNavigator::new(Arc::clone(answer)),
        commands: 0,
    };
    let mut sum = Checksum::default();
    if let Ok(Some((first, _))) = first_answer(&mut c, &mut sum) {
        let _ = wander(&mut c, first, seed, WANDER_STEPS, &mut sum);
    }
    (sum, c.commands)
}

impl Workload for ServedChurn {
    fn common(&self) -> &Common {
        &self.served.common
    }
    fn layer_state(&self) -> LayerState {
        self.served.layer_state()
    }

    fn clients(&self, traced: bool) -> Result<Vec<Box<dyn ClientLoop>>, String> {
        (0..2u64)
            .map(|c| {
                // The second client starts half a cycle into the deal.
                let (seed, dealt) = (mix64(c + 1), c * (DEAL.len() / 2) as u64);
                let answers = Arc::clone(&self.answers);
                let open = VecDeque::new();
                Ok(if traced {
                    let conn = self.served.traced_conn()?;
                    Box::new(ChurnClient {
                        conn,
                        answers,
                        seed,
                        open,
                        dealt,
                    }) as Box<dyn ClientLoop>
                } else {
                    let conn = self.served.plain_conn()?;
                    Box::new(ChurnClient {
                        conn,
                        answers,
                        seed,
                        open,
                        dealt,
                    })
                })
            })
            .collect()
    }

    fn script_overhead_ns(&self) -> f64 {
        let mut seed = 0;
        script_cost_ns(2_000, || {
            seed += 1;
            wander_over_oracle(&self.answers[0], seed).1
        })
    }
}

struct ChurnClient<S: Read + Write> {
    conn: Conn<S>,
    answers: Arc<Vec<Arc<Document>>>,
    /// Of this client's wanders: the client's number, not the run's seed.
    /// As in E19 the sequence of sessions is fixed and the run's seed
    /// drives the data (see `DEAL`).
    seed: u64,
    /// Open sessions, oldest first.
    open: VecDeque<u64>,
    /// Position in the deal.
    dealt: u64,
}

impl<S: Read + Write> ChurnClient<S> {
    /// Open a session over `template`, run the wander, leave it open and
    /// close the oldest. Returns open-to-last-command in ms.
    fn churn(&mut self, template: usize, wander_seed: u64, samples: &mut Samples) -> f64 {
        let start = Instant::now();
        let done = session(
            &mut self.conn,
            TEMPLATES[template].0,
            samples,
            |served, first, sum| wander(served, first, wander_seed, WANDER_STEPS, sum),
        );
        let duration = ms_since(start);
        if let Some(walked) = done {
            self.open.push_back(walked.id);
            walked
                .first_answer_ms
                .into_iter()
                .for_each(|ms| samples.first_answer_ms.push(ms));
            if let Some(seen) = walked.seen {
                let (expected, _) = wander_over_oracle(&self.answers[template], wander_seed);
                samples.check(seen == expected, || {
                    format!(
                        "{} wander {wander_seed}: saw {seen:?}, the oracle {expected:?}",
                        TEMPLATES[template].0
                    )
                });
            }
        }
        if self.open.len() > OPEN_WINDOW {
            let oldest = self.open.pop_front().expect("just checked");
            close_session(&mut self.conn.client, oldest, samples);
        }
        duration
    }
}

impl<S: Read + Write + Send> ClientLoop for ChurnClient<S> {
    /// Fill the window: the steady state has `OPEN_WINDOW` sessions open.
    fn warm_up(&mut self, samples: &mut Samples) {
        while self.open.len() < OPEN_WINDOW {
            let template = DEAL[self.dealt as usize % DEAL.len()];
            self.dealt += 1;
            match open_session(&mut self.conn.client, TEMPLATES[template].0, samples) {
                Some(open) => self.open.push_back(open.session),
                None => return,
            }
        }
    }

    /// A session over the next dealt template, and the same view asked
    /// for again: the second session re-walks what the first just pulled
    /// through the cache, which is where a partly effective cache shows.
    /// Both are sessions of the churn like any other, and both count.
    fn iteration(&mut self, index: u32, samples: &mut Samples) {
        self.conn.set_iteration(index);
        let template = DEAL[self.dealt as usize % DEAL.len()];
        let wander_seed = mix64(self.seed ^ self.dealt.wrapping_mul(0xA24B_AED4_963E_E407));
        self.dealt += 1;
        let first = span::within(Kind::ColdWalk, || {
            self.churn(template, wander_seed, samples)
        });
        samples.cold_walk_ms.push(first);
        let again = span::within(Kind::WarmWalk, || {
            self.churn(template, wander_seed, samples)
        });
        samples.warm_walk_ms.push(again);
    }

    fn finish(self: Box<Self>, samples: &mut Samples) {
        // Sessions still open are closed by the server when the
        // connection drops.
        self.conn.hang_up(samples);
    }
}

/// `algebra.view_lookup_us`: the six templates recorded as views over
/// E19-sized sources, then `ViewCatalog::rewrite_against_views` timed on
/// each template's plan; the median over 300 lookups, in µs.
pub fn view_lookup_us() -> Result<(f64, u64), String> {
    let mut scratch = SetupInfo::default();
    let (homes, schools, items) = (
        gen::homes_doc(7, 60, 8),
        gen::schools_doc(8, 40, 8),
        gen::filter_doc(120, 5),
    );
    let sources = [
        ("homesSrc", &homes),
        ("schoolsSrc", &schools),
        ("src", &items),
    ];
    let catalog = mix_core::ViewCatalog::new();
    let mut plans = Vec::new();
    for (_, query) in TEMPLATES {
        let plan = compile(query, false, &mut scratch)?;
        let epochs: Vec<(String, u64)> = plan.source_names().into_iter().map(|s| (s, 0)).collect();
        catalog.record(&plan, &oracle(&plan, &sources, &mut scratch)?, &epochs);
        plans.push(plan);
    }
    let mut lookups = Vec::new();
    for _ in 0..50 {
        for plan in &plans {
            let start = Instant::now();
            std::hint::black_box(catalog.rewrite_against_views(plan, &|_| 0));
            lookups.push(crate::client::us_since(start));
        }
    }
    Ok((crate::stats::median(&mut lookups), lookups.len() as u64))
}
