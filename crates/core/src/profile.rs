//! Navigational-complexity profiling.
//!
//! Def. 2 relates *client* navigations to the *source* navigations a lazy
//! mediator issues for them. [`profile`] runs a client [`NavProgram`]
//! against an engine and records, per client command, the source commands
//! it triggered — the raw data behind the browsability experiments: a
//! bounded-browsable view shows a bounded per-command column; a browsable
//! view shows data-dependent spikes; an unbrowsable view pays everything
//! on the first touching command.
//!
//! The wire columns ([`StepCost::requests`], [`StepCost::batched_holes`],
//! [`StepCost::wasted_bytes`]) read the *same* [`BufferStats`] cells the
//! live metrics registry exports as `mix_requests_total` /
//! `mix_batched_holes_total` / `mix_wasted_bytes` — one set of counters,
//! three views (profile deltas, [`Engine::traffic`] totals, Prometheus
//! series), never reconciled because never duplicated.
//!
//! [`BufferStats`]: mix_buffer::BufferStats
//! [`Engine::traffic`]: crate::Engine::traffic

use crate::Engine;
use mix_nav::{Cmd, NavProgram, NavStats, Navigator};
use std::fmt;

/// Cost accounting for one client command.
#[derive(Debug, Clone)]
pub struct StepCost {
    /// The client command (rendered, e.g. `d(p0)`).
    pub command: String,
    /// Source navigations this command triggered, across all sources.
    pub cost: NavStats,
    /// Source operations that degraded (gave up after retries) while
    /// answering this command — non-zero only when a source is unhealthy.
    pub faults: u64,
    /// LXP wire exchanges this command triggered, across stats-reporting
    /// buffered sources — a batched exchange counts once however many
    /// holes it answers.
    pub requests: u64,
    /// Holes answered by wire exchanges during this command.
    pub batched_holes: u64,
    /// Net change in speculative bytes sitting unused in pending caches.
    /// Usually positive while batches run ahead of the navigation and
    /// negative as the navigation catches up and consumes them.
    pub wasted_bytes: i64,
}

/// The profile of a client navigation.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Per-command costs, in program order.
    pub steps: Vec<StepCost>,
}

impl Profile {
    /// Total source navigations.
    pub fn total(&self) -> u64 {
        self.steps.iter().map(|s| s.cost.total()).sum()
    }

    /// The most expensive single client command.
    pub fn max_step(&self) -> u64 {
        self.steps.iter().map(|s| s.cost.total()).max().unwrap_or(0)
    }

    /// Is every per-command cost at most `bound`? (The measured analogue
    /// of bounded browsability for this particular navigation.)
    pub fn bounded_by(&self, bound: u64) -> bool {
        self.steps.iter().all(|s| s.cost.total() <= bound)
    }

    /// Total degraded source operations across the profiled navigation.
    pub fn total_faults(&self) -> u64 {
        self.steps.iter().map(|s| s.faults).sum()
    }

    /// Total LXP wire exchanges across the profiled navigation (zero
    /// when no source reports buffer stats).
    pub fn total_requests(&self) -> u64 {
        self.steps.iter().map(|s| s.requests).sum()
    }

    /// Total holes answered through batched exchanges.
    pub fn total_batched_holes(&self) -> u64 {
        self.steps.iter().map(|s| s.batched_holes).sum()
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Optional columns only appear when something actually happened
        // (a fault, a wire exchange), keeping the healthy unbuffered
        // tables identical to the paper's.
        let with_faults = self.total_faults() > 0;
        let with_traffic = self.total_requests() > 0;
        write!(
            f,
            "{:<16} {:>6} {:>6} {:>6} {:>7} {:>7}",
            "command", "d", "r", "f", "select", "total"
        )?;
        if with_faults {
            write!(f, "  faults")?;
        }
        if with_traffic {
            write!(f, "  {:>5} {:>7} {:>7}", "wire", "holes", "waste")?;
        }
        writeln!(f)?;
        for s in &self.steps {
            write!(
                f,
                "{:<16} {:>6} {:>6} {:>6} {:>7} {:>7}",
                s.command,
                s.cost.downs,
                s.cost.rights,
                s.cost.fetches,
                s.cost.selects,
                s.cost.total()
            )?;
            if with_faults {
                write!(f, " {:>7}", s.faults)?;
            }
            if with_traffic {
                write!(f, "  {:>5} {:>7} {:>7}", s.requests, s.batched_holes, s.wasted_bytes)?;
            }
            writeln!(f)?;
        }
        write!(f, "total source navigations: {}", self.total())?;
        if with_faults {
            write!(f, " (degraded operations: {})", self.total_faults())?;
        }
        if with_traffic {
            write!(
                f,
                " (wire exchanges: {}, batched holes: {})",
                self.total_requests(),
                self.total_batched_holes()
            )?;
        }
        Ok(())
    }
}

/// Run a client navigation program against the engine, recording the
/// source navigations each client command costs.
///
/// ```
/// use mix_core::{profile::profile, Engine, SourceRegistry};
/// use mix_algebra::translate;
/// use mix_nav::{Cmd, NavProgram};
/// use mix_xmas::parse_query;
///
/// let plan = translate(&parse_query(
///     "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X").unwrap()).unwrap();
/// let mut reg = SourceRegistry::new();
/// reg.add_term("src", "items[a,b,c]");
/// let mut engine = Engine::new(plan, &reg).unwrap();
///
/// // The client navigation c = d;f of Example 1.
/// let prog = NavProgram::chain([Cmd::Down, Cmd::Fetch]);
/// let p = profile(&mut engine, &prog);
/// assert_eq!(p.steps.len(), 2);
/// assert!(p.total() > 0);
/// ```
pub fn profile(engine: &mut Engine, prog: &NavProgram) -> Profile {
    let root = engine.root();
    let mut ptrs: Vec<Option<crate::VNode>> = vec![Some(root)];
    let mut steps = Vec::with_capacity(prog.steps.len());

    for step in &prog.steps {
        let before: NavStats = engine.stats().total();
        let faults_before = engine.total_degraded_ops();
        let traffic_before = engine.total_traffic();
        let src = ptrs.get(step.on).cloned().flatten();
        match &step.cmd {
            Cmd::Down => ptrs.push(src.and_then(|p| engine.down(&p))),
            Cmd::Right => ptrs.push(src.and_then(|p| engine.right(&p))),
            Cmd::Select(pred) => ptrs.push(src.and_then(|p| engine.select(&p, pred))),
            Cmd::Fetch => {
                if let Some(p) = src {
                    let _ = engine.fetch(&p);
                }
            }
        }
        let after = engine.stats().total();
        let traffic_after = engine.total_traffic();
        steps.push(StepCost {
            command: format!("{}(p{})", step.cmd, step.on),
            cost: after.since(&before),
            faults: engine.total_degraded_ops() - faults_before,
            requests: traffic_after.0 - traffic_before.0,
            batched_holes: traffic_after.1 - traffic_before.1,
            wasted_bytes: traffic_after.2 as i64 - traffic_before.2 as i64,
        });
    }
    Profile { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, SourceRegistry};
    use mix_algebra::translate;
    use mix_xmas::parse_query;

    fn collect_engine(items: &str, config: EngineConfig) -> Engine {
        let q = parse_query("CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X").unwrap();
        let plan = translate(&q).unwrap();
        let mut reg = SourceRegistry::new();
        reg.add_term("src", items);
        Engine::with_config(plan, &reg, config).unwrap()
    }

    #[test]
    fn per_command_costs_are_recorded() {
        let mut engine = collect_engine("items[a,b,c,d]", EngineConfig::default());
        // c = d;f;r;f — enter the view, fetch, step right, fetch.
        let prog = NavProgram::chain([Cmd::Down, Cmd::Fetch, Cmd::Right, Cmd::Fetch]);
        let p = profile(&mut engine, &prog);
        assert_eq!(p.steps.len(), 4);
        assert!(p.total() > 0);
        assert_eq!(p.total(), engine.stats().total().total());
        // The display renders one line per command plus a header/total.
        let text = p.to_string();
        assert!(text.contains("d(p0)"), "{text}");
        assert!(text.contains("total source navigations"), "{text}");
    }

    #[test]
    fn bounded_view_has_bounded_steps() {
        // The collect view mirrors navigations: after the first (setup)
        // command, every step costs a small constant.
        let mut engine = collect_engine(
            "items[a,b,c,d,e,f,g,h,i,j,k,l,m,n]",
            EngineConfig::default(),
        );
        let mut cmds = vec![Cmd::Down];
        for _ in 0..12 {
            cmds.push(Cmd::Fetch);
            cmds.push(Cmd::Right);
        }
        let prog = NavProgram::chain(cmds);
        let p = profile(&mut engine, &prog);
        // Steady-state steps are cheap and uniform.
        let tail_max =
            p.steps[1..].iter().map(|s| s.cost.total()).max().unwrap();
        assert!(tail_max <= 6, "steady-state step cost {tail_max}");
        assert!(p.bounded_by(p.steps[0].cost.total().max(tail_max)));
    }

    #[test]
    fn filter_view_spikes_where_the_data_is_sparse() {
        // Example 1's browsable view: the same program costs more when
        // matches are farther apart — visible as a per-command spike.
        let q = parse_query(
            "CONSTRUCT <picked> $X {$X} </picked> {} WHERE src items.wanted $X",
        )
        .unwrap();
        let plan = translate(&q).unwrap();
        let mk = |term: &str| {
            let mut reg = SourceRegistry::new();
            reg.add_term("src", term);
            Engine::new(plan.clone(), &reg).unwrap()
        };
        let prog = NavProgram::chain([Cmd::Down, Cmd::Fetch]);
        let near = profile(&mut mk("items[wanted[1],x,x,x,x,x,x,x]"), &prog);
        let far = profile(&mut mk("items[x,x,x,x,x,x,x,wanted[1]]"), &prog);
        assert!(
            far.max_step() > near.max_step() + 10,
            "far {} vs near {}",
            far.max_step(),
            near.max_step()
        );
    }

    #[test]
    fn buffered_sources_report_per_command_traffic() {
        use mix_buffer::{BufferNavigator, FillPolicy, TreeWrapper};
        use mix_xml::term::parse_term;

        let q = parse_query("CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X").unwrap();
        let plan = translate(&q).unwrap();
        let tree = parse_term("items[a,b,c,d,e,f]").unwrap();
        let nav = BufferNavigator::new(
            TreeWrapper::single(&tree, FillPolicy::Chunked { n: 1 }).with_batch_budget(4),
            "doc",
        )
        .batched(4);
        let mut reg = SourceRegistry::new();
        reg.add_buffer("src", nav);
        let mut engine = Engine::new(plan, &reg).unwrap();

        let prog = NavProgram::chain([Cmd::Down, Cmd::Fetch, Cmd::Right, Cmd::Fetch]);
        let p = profile(&mut engine, &prog);
        assert!(p.total_requests() > 0, "wire exchanges attributed to steps");
        assert!(
            p.total_batched_holes() >= p.total_requests(),
            "batched exchanges answer at least one hole each"
        );
        let text = p.to_string();
        assert!(text.contains("wire"), "traffic columns render: {text}");
        assert!(text.contains("wire exchanges:"), "{text}");
    }

    #[test]
    fn unbuffered_profiles_render_without_traffic_columns() {
        let mut engine = collect_engine("items[a,b]", EngineConfig::default());
        let p = profile(&mut engine, &NavProgram::chain([Cmd::Down, Cmd::Fetch]));
        assert_eq!(p.total_requests(), 0);
        assert!(!p.to_string().contains("wire"), "no traffic columns for plain sources");
    }

    #[test]
    fn commands_on_bottom_pointers_cost_nothing() {
        let mut engine = collect_engine("items[a]", EngineConfig::default());
        // Walk past the end, then keep navigating from ⊥.
        let prog =
            NavProgram::chain([Cmd::Down, Cmd::Right, Cmd::Right, Cmd::Fetch, Cmd::Down]);
        let p = profile(&mut engine, &prog);
        // Steps 3..: applied to ⊥ — zero cost.
        assert_eq!(p.steps[3].cost.total(), 0);
        assert_eq!(p.steps[4].cost.total(), 0);
    }
}
