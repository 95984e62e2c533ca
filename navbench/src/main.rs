//! navbench — the repository's benchmark.
//!
//! ```text
//! navbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//! navbench run [--seed <n>] [--seconds <s>]
//!     every workload, untraced then traced, each in a fresh process
//! navbench selfcheck [--seed <n>] [--seconds <s>]
//!     the untraced set twice (medians of three runs each); fails if the
//!     two disagree beyond a bound
//! navbench smoke
//!     one iteration of everything; checks the output against the spec
//! navbench spec
//!     print BENCHMARK.json
//! ```
//!
//! See README.md beside this package for what is measured and why.

mod client;
mod inproc;
mod interpose;
mod json;
mod run;
mod script;
mod selfcheck;
mod served;
mod span;
mod spec;
mod stats;
mod workload;

use run::{RunConfig, RunResult};
use std::process::ExitCode;

/// `--key value` pairs after an optional subcommand.
struct Args {
    command: Option<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut command = None;
        let mut options = Vec::new();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    if !["workload", "seed", "seconds", "trace"].contains(&key) {
                        return Err(format!("unknown option `{arg}`"));
                    }
                    let value = raw.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    options.push((key.to_string(), value));
                }
                None if command.is_none() && options.is_empty() => command = Some(arg),
                None => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(Args { command, options })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.options.iter().rev().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read `{v}`")),
        }
    }
}

/// The commit of the checkout this runs in, read from `.git` here (and
/// nowhere above it); the driver's checkouts have none.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.chars().take(12).collect()
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".into(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

/// The environment stamp printed with every run.
fn stamp(config: &RunConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "navbench workload={} seed={} trace={} seconds={} warmup_s={} setup_repeats={} commit={} nproc={nproc} rustc=\"{}\"",
        config.workload,
        config.seed,
        u8::from(config.trace),
        config.seconds,
        spec::WARMUP_SECONDS,
        spec::SETUP_REPEATS,
        commit(),
        rustc_version(),
    )
}

fn print_result(result: &RunResult) {
    for m in &result.metrics {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    for failure in &result.failures {
        println!("failure: {failure}");
    }
    println!(
        "result attempted={} failed={}",
        result.attempted, result.failed
    );
    println!("{}", result.to_json());
}

fn single(args: &Args) -> Result<ExitCode, String> {
    let config = RunConfig {
        workload: args
            .get("workload")?
            .ok_or("--workload is required (or a subcommand: run, selfcheck, smoke, spec)")?,
        seed: args.get("seed")?.unwrap_or(1),
        seconds: args.get("seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
        trace: match args.get::<u8>("trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        iterations: None,
    };
    if !(config.seconds > 0.0 && config.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], not {}",
            config.seconds
        ));
    }
    println!("{}", stamp(&config));
    let result = run::run(&config)?;
    print_result(&result);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("navbench: {why}");
            return ExitCode::from(2);
        }
    };
    if args.command.as_deref() == Some("spec") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "navbench: this is a debug build; measure optimized builds only (cargo run --release)"
        );
        return ExitCode::from(2);
    }
    let seed = args.get("seed").map(|s| s.unwrap_or(1));
    let seconds = args
        .get("seconds")
        .map(|s| s.unwrap_or(spec::RUN_SECONDS as f64));
    let outcome = match (args.command.as_deref(), seed, seconds) {
        (None, _, _) => single(&args),
        (Some("run"), Ok(seed), Ok(seconds)) => selfcheck::run_all(seed, seconds),
        (Some("selfcheck"), Ok(seed), Ok(seconds)) => selfcheck::selfcheck(seed, seconds),
        (Some("smoke"), _, _) => selfcheck::smoke().map(|()| ExitCode::SUCCESS),
        (Some(other), Ok(_), Ok(_)) => Err(format!("unknown subcommand `{other}`")),
        (_, Err(why), _) | (_, _, Err(why)) => Err(why),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("navbench: {why}");
            ExitCode::FAILURE
        }
    }
}
