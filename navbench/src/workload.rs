//! What a workload is to the runner, and the set-up steps workloads share.

use crate::client::Samples;
use crate::interpose::{ConnShared, Interposed, SourceCounters, StreamCounters};
use crate::span::{self, Kind};
use mix_algebra::rewrite::rewrite;
use mix_algebra::{translate, NcCapabilities, Plan};
use mix_buffer::{FillPolicy, TreeWrapper};
use mix_core::{eager, Engine, EngineConfig, SourceRegistry};
use mix_xml::xmlio::{parse_xml, to_xml};
use mix_xml::{Document, Tree};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed-loop client: the runner calls `iteration` back to back on
/// the client's own thread.
pub trait ClientLoop: Send {
    /// State the steady state needs before the first iteration (off the
    /// clock).
    fn warm_up(&mut self, _samples: &mut Samples) {}
    /// The commands that count: the runner times it, and `navs_per_s` and
    /// the per-command source counts are over what it adds to `samples`.
    fn iteration(&mut self, index: u32, samples: &mut Samples);
    /// The in-process workloads' warm walk: the same walk again over what
    /// `iteration` left filled. It exists because every workload reports
    /// `warm_walk_ms`; it runs off the clock and unrecorded, and feeds
    /// nothing else.
    fn rewalk(&mut self, _samples: &mut Samples) {}
    /// After the window, off the clock: check what was deferred, hang up.
    fn finish(self: Box<Self>, _samples: &mut Samples) {}
}

/// A workload, set up: sources generated from the seed, oracle evaluated,
/// server (if any) listening.
pub trait Workload: Sync {
    fn common(&self) -> &Common;
    /// The workload's clients, connected and ready. In the traced pass
    /// they go through the benchmark's own interposers.
    fn clients(&self, traced: bool) -> Result<Vec<Box<dyn ClientLoop>>, String>;
    /// Counters only the workload can reach (fragment cache, server).
    fn layer_state(&self) -> LayerState {
        LayerState::default()
    }
    /// Seconds the workload's script takes per command against the
    /// materialised oracle: the cost of the client side alone.
    fn script_overhead_ns(&self) -> f64;
}

/// What every workload has, and the runner reads.
pub struct Common {
    pub info: SetupInfo,
    /// What all the workload's sources shipped.
    pub counters: Arc<SourceCounters>,
    pub probe: Arc<Probe>,
}

/// Measured while setting up; reported as per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct SetupInfo {
    pub xml_bytes: u64,
    pub xml_parse_s: f64,
    pub xml_serialize_s: f64,
    pub eager_ms: f64,
    pub parse_us: f64,
    pub translate_us: f64,
    pub rewrite_us: f64,
    pub engine_build_us: f64,
}

/// Absolute counters read before and after a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerState {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub panics: u64,
    pub retries: u64,
}

/// `BufferStats` of the in-process buffers, summed over iterations.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferTotals {
    pub fills: u64,
    pub requests: u64,
    pub batched_holes: u64,
    pub bytes_received: u64,
    pub wasted_bytes: u64,
    pub retries: u64,
}

/// Where clients leave what only they can see, for the per-layer report.
#[derive(Default)]
pub struct Probe {
    pub buffers: Mutex<BufferTotals>,
    pub sessions_peak: AtomicU64,
    pub stream: Arc<StreamCounters>,
    /// One per traced connection.
    pub conns: Mutex<Vec<Arc<ConnShared>>>,
    /// Client round trip minus the server's read-to-write time, per
    /// exchange, in µs.
    pub wire_rtt_us: Mutex<Vec<f64>>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Ship a generated source through XML text and back, as a source that
/// arrives over a wire would: serialise, parse, and insist the round
/// trip is lossless.
pub fn through_xml(tree: &Tree, info: &mut SetupInfo) -> Result<Tree, String> {
    let (text, ser_s) = timed(|| to_xml(tree));
    let (parsed, parse_s) = timed(|| parse_xml(&text));
    let parsed = parsed.map_err(|e| format!("generated source does not parse back: {e}"))?;
    if &parsed != tree {
        return Err("XML round trip of a generated source changed it".into());
    }
    info.xml_bytes += text.len() as u64;
    info.xml_serialize_s += ser_s;
    info.xml_parse_s += parse_s;
    Ok(parsed)
}

/// Query text to plan, each step under a span and a clock.
pub fn compile(query: &str, with_rewrite: bool, info: &mut SetupInfo) -> Result<Plan, String> {
    let (ast, parse_s) = timed(|| span::within(Kind::XmasParse, || mix_xmas::parse_query(query)));
    let ast = ast.map_err(|e| e.to_string())?;
    let (plan, translate_s) = timed(|| span::within(Kind::AlgebraTranslate, || translate(&ast)));
    let mut plan = plan.map_err(|e| e.to_string())?;
    let ((), rewrite_s) = timed(|| {
        span::within(Kind::AlgebraRewrite, || {
            if with_rewrite {
                rewrite(&mut plan, NcCapabilities::minimal());
            }
        })
    });
    info.parse_us = parse_s * 1e6;
    info.translate_us = translate_s * 1e6;
    info.rewrite_us = rewrite_s * 1e6;
    Ok(plan)
}

/// The eager evaluator's answer over materialised sources: the oracle
/// every lazy answer is compared with. Also times a bare engine build
/// over the same registry.
pub fn oracle(
    plan: &Plan,
    sources: &[(&str, &Tree)],
    info: &mut SetupInfo,
) -> Result<Tree, String> {
    let mut registry = SourceRegistry::new();
    for (name, tree) in sources {
        registry.add_tree(*name, tree);
    }
    let (answer, eager_s) = timed(|| eager::eval(plan, &registry));
    info.eager_ms += eager_s * 1e3;
    let mut builds: Vec<f64> = (0..20)
        .map(|_| {
            timed(|| Engine::with_config(plan.clone(), &registry, EngineConfig::default()).is_ok())
                .1
                * 1e6
        })
        .collect();
    info.engine_build_us = crate::stats::median(&mut builds);
    answer.map_err(|e| e.to_string())
}

/// The left rotation of a cyclic list that puts a match at index `first`
/// with no match before it, and the `k`-th match from there as near index
/// `kth` as the list allows. `None` if no match has `first` non-matches
/// before it.
///
/// Generated lists are rotated like this wherever a lazy plan scans until
/// it finds something: where the first school in the first home's zip
/// code, or the tenth cheap home, falls is a geometric draw per seed, and
/// a session's source traffic is proportional to it. Rotated so that the
/// draw sits at its expectation, every seed still gives different data,
/// and the same amount of it has to be read.
pub fn aligning_rotation(matches: &[bool], first: usize, k: usize, kth: usize) -> Option<usize> {
    let n = matches.len();
    let at: Vec<usize> = (0..n).filter(|&i| matches[i]).collect();
    (0..at.len())
        .filter(|&i| {
            let previous = at[(i + at.len() - 1) % at.len()];
            let gap = (at[i] + n - previous - 1) % n + 1; // n when it is the only match
            gap > first && k <= at.len()
        })
        .min_by_key(|&i| {
            let span = (at[(i + k - 1) % at.len()] + n - at[i]) % n;
            (first + span).abs_diff(kth)
        })
        .map(|i| (at[i] + n - first % n) % n)
}

/// Rotate `list`'s children so that the first one whose `zip` is that of
/// `first_home` sits at index `at` (see [`aligning_rotation`]).
pub fn align_first_zip_match(list: &mut Tree, first_home: &Tree, at: usize) {
    let zip = first_home.child("zip").map(Tree::text);
    let matches: Vec<bool> = list
        .children()
        .iter()
        .map(|c| c.child("zip").map(Tree::text) == zip)
        .collect();
    if let Some(by) = aligning_rotation(&matches, at, 1, at) {
        list.children_mut().rotate_left(by);
    }
}

/// Re-deal the `zip` of `list`'s children so that every code of `pool`
/// (sorted) has equally many: in order of the zip the generator drew, the
/// children are cut into `pool.len()` equal blocks, and block `b` gets
/// code `b`: a child's new code is the one the generator drew or one
/// near it.
///
/// The size of a join's whole answer is the sum over the homes of the
/// schools in the home's zip code: a draw per seed (quartiles 2 % apart
/// at 1000 x 1000 over 100 codes), and a whole-answer scan's commands,
/// time and bytes are proportional to it. With the schools level over the
/// homes' codes every seed's join has homes x schools / codes pairs.
pub fn level_zips(list: &mut Tree, pool: &[String]) {
    let zip_of = |c: &Tree| c.child("zip").map(Tree::text);
    let n = list.children().len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (zip_of(&list.children()[i]), i));
    for (rank, i) in order.into_iter().enumerate() {
        let zip = Tree::node(
            "zip",
            vec![Tree::leaf(pool[rank * pool.len() / n].as_str())],
        );
        let fields = list.children_mut()[i].children_mut();
        if let Some(field) = fields.iter_mut().find(|f| f.label().as_str() == "zip") {
            *field = zip;
        }
    }
}

/// A counted, node-at-a-time `TreeWrapper` exporting `tree` as `name`.
pub fn tree_source(
    name: &str,
    tree: &Tree,
    counters: &Arc<SourceCounters>,
) -> Interposed<TreeWrapper> {
    let mut wrapper = TreeWrapper::new(FillPolicy::NodeAtATime);
    wrapper.add(name, Arc::new(Document::from_tree(tree)));
    Interposed::new(wrapper, Arc::clone(counters))
}

/// Time `script` `rounds` times; ns per command it reports having issued.
pub fn script_cost_ns(rounds: usize, mut script: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let commands: u64 = (0..rounds).map(|_| script()).sum();
    start.elapsed().as_nanos() as f64 / commands.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_xml::term::parse_term;

    fn flags(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == 'x').collect()
    }

    #[test]
    fn rotation_puts_first_and_kth_match_where_asked() {
        //                 0123456789
        let list = flags("x..x.....x");
        // First match at 2 with nothing before it: only index 9 has two
        // non-matches before it cyclically... and so does 3 (1, 2).
        let by = aligning_rotation(&list, 2, 1, 2).unwrap();
        let mut rotated = list.clone();
        rotated.rotate_left(by);
        assert_eq!(rotated.iter().position(|&m| m), Some(2));
        // Second match as near index 3 as possible: start at 9 (next match
        // one later), not at 3 (next match six later).
        let by = aligning_rotation(&list, 2, 2, 3).unwrap();
        let mut rotated = list.clone();
        rotated.rotate_left(by);
        assert_eq!(rotated, flags("..xx..x..."));
        assert_eq!(
            aligning_rotation(&flags("xx"), 1, 1, 1),
            None,
            "no match has a non-match before it"
        );
        assert_eq!(aligning_rotation(&flags("...."), 1, 1, 1), None);
        assert_eq!(
            aligning_rotation(&flags("..x."), 1, 1, 1),
            Some(1),
            "a single match has the whole cycle before it"
        );
    }

    #[test]
    fn levelled_zips_are_even_and_move_only_the_excess() {
        let mut schools = parse_term(
            "schools[school[zip[3]],school[zip[1]],school[zip[3]],school[zip[3]],\
             school[dir[x],zip[2]],school[zip[3]]]",
        )
        .unwrap();
        level_zips(&mut schools, &["1".into(), "2".into(), "3".into()]);
        let zips: Vec<String> = schools
            .children()
            .iter()
            .map(|s| s.child("zip").unwrap().text())
            .collect();
        // By drawn zip: 1, 2, 3, 3, 3, 3 -> blocks 1 1 | 2 2 | 3 3: the 2
        // and the first two of the four 3s move down one code.
        assert_eq!(zips, ["2", "1", "2", "3", "1", "3"]);
        assert_eq!(schools.children()[4].children().len(), 2, "dir is kept");
    }

    #[test]
    fn schools_are_rotated_to_the_first_homes_zip() {
        let home = parse_term("home[addr[a],zip[7]]").unwrap();
        let mut schools = parse_term(
            "schools[school[zip[7]],school[zip[1]],school[zip[2]],school[zip[7]],school[zip[3]]]",
        )
        .unwrap();
        align_first_zip_match(&mut schools, &home, 2);
        let zips: Vec<String> = schools
            .children()
            .iter()
            .map(|s| s.child("zip").unwrap().text())
            .collect();
        assert_eq!(zips, ["1", "2", "7", "3", "7"]);
    }
}
