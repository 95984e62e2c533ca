//! End-to-end fault tolerance through the engine: a buffered LXP source
//! behind `FaultyWrapper`, queried through the full mediator stack.
//!
//! Three behaviours from the issue's acceptance criteria:
//! * transient faults are retried away — the client sees the identical
//!   answer it would get from a healthy source;
//! * a permanent outage degrades to a partial answer plus a reported
//!   health status — never a panic;
//! * the profiler attributes degraded operations to the client commands
//!   that triggered them.

use mix_algebra::translate;
use mix_buffer::{
    BufferNavigator, FaultConfig, FaultyWrapper, FillPolicy, RetryPolicy, SourceHealth,
    TreeWrapper,
};
use mix_core::{profile, Engine, HealthStatus, SourceRegistry, VirtualDocument};
use mix_nav::explore::materialize;
use mix_nav::{Cmd, NavProgram};
use mix_xmas::parse_query;
use mix_xml::term::parse_term;

const QUERY: &str = "CONSTRUCT <all> $X {$X} </all> {} WHERE src items._ $X";
const SOURCE: &str = "items[a[1],b[2],c[3],d[4],e[5]]";

fn faulty_registry(
    config: FaultConfig,
    policy: RetryPolicy,
) -> (SourceRegistry, SourceHealth) {
    let tree = parse_term(SOURCE).unwrap();
    let wrapper = FaultyWrapper::new(
        TreeWrapper::single(&tree, FillPolicy::NodeAtATime),
        config,
    );
    let nav = BufferNavigator::with_retry(wrapper, "doc", policy);
    let health = nav.health();
    let mut reg = SourceRegistry::new();
    reg.add_buffer("src", nav);
    (reg, health)
}

fn engine_over(reg: &SourceRegistry) -> Engine {
    let plan = translate(&parse_query(QUERY).unwrap()).unwrap();
    Engine::new(plan, reg).unwrap()
}

/// The answer a healthy source produces — the oracle for the faulty runs.
fn clean_answer() -> String {
    let mut reg = SourceRegistry::new();
    reg.add_term("src", SOURCE);
    materialize(&mut engine_over(&reg)).to_string()
}

#[test]
fn transient_faults_stay_invisible_to_the_client() {
    let policy = RetryPolicy { max_attempts: 32, ..RetryPolicy::default() };
    let (reg, health) = faulty_registry(FaultConfig::transient(7, 0.25), policy);
    let mut engine = engine_over(&reg);
    assert_eq!(materialize(&mut engine).to_string(), clean_answer());

    // Retries happened, but nothing degraded: the source reports Healthy.
    let snap = health.snapshot();
    assert!(snap.retries > 0, "a 25% fault rate must trigger retries");
    assert!(snap.backoff_cost > 0, "retries charge simulated backoff");
    assert_eq!(snap.degraded_ops, 0);
    assert_eq!(engine.overall_health(), HealthStatus::Healthy);
    let reported = engine.health();
    assert_eq!(reported.len(), 1);
    assert_eq!(reported[0].0, "src");
    assert!(reported[0].1.as_ref().is_some_and(|s| s.retries == snap.retries));
}

#[test]
fn permanent_outage_degrades_to_a_partial_answer() {
    // The source answers the handshake and a few fills, then goes dark.
    let (reg, _health) = faulty_registry(
        FaultConfig::outage_after(4),
        RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
    );
    let doc = VirtualDocument::new(engine_over(&reg));

    // Navigating must not panic; the answer is a (possibly empty) prefix.
    let shown: Vec<String> = doc
        .root()
        .children()
        .map(|c| c.label().to_string())
        .collect();
    assert!(shown.len() < 5, "outage must truncate the answer: {shown:?}");

    // The client can see which source failed and why, via DOM-side health.
    assert_ne!(doc.overall_health(), HealthStatus::Healthy);
    let per_source = doc.health();
    let snap = per_source[0].1.as_ref().expect("buffered source reports health");
    assert!(snap.degraded_ops > 0);
    assert!(
        snap.last_error.as_deref().unwrap_or("").contains("injected outage"),
        "{:?}",
        snap.last_error
    );
}

#[test]
fn profiler_attributes_faults_to_client_commands() {
    let (reg, _health) = faulty_registry(
        FaultConfig::outage_after(3),
        RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
    );
    let mut engine = engine_over(&reg);
    let prog = NavProgram::chain([
        Cmd::Down,
        Cmd::Fetch,
        Cmd::Right,
        Cmd::Fetch,
        Cmd::Right,
        Cmd::Fetch,
    ]);
    let p = profile(&mut engine, &prog);
    assert!(p.total_faults() > 0, "the outage must surface in the profile");
    let text = p.to_string();
    assert!(text.contains("faults"), "{text}");
    assert!(text.contains("degraded operations"), "{text}");
}

#[test]
fn healthy_sources_report_no_fault_column() {
    let mut reg = SourceRegistry::new();
    reg.add_term("src", SOURCE);
    let mut engine = engine_over(&reg);
    let prog = NavProgram::chain([Cmd::Down, Cmd::Fetch]);
    let p = profile(&mut engine, &prog);
    assert_eq!(p.total_faults(), 0);
    // The healthy table is byte-identical to the pre-fault-layer format.
    assert!(!p.to_string().contains("faults"));
    assert_eq!(engine.overall_health(), HealthStatus::Healthy);
    // Plain (unbuffered) sources carry no health handle.
    assert!(engine.health()[0].1.is_none());
}
