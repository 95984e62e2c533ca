//! The modes that run more than one workload: `run`, `selfcheck`, `smoke`.

use crate::run::{self, RunConfig, RunResult};
use crate::spec;
use std::process::{Command, ExitCode};

/// What a child run reported.
struct ChildRun {
    /// `(name, value)` in the spec's order.
    metrics: Vec<(String, f64)>,
    failed: u64,
}

/// One run in a fresh process — clean peak RSS, label interner and
/// allocator — with its output passed through.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut run = ChildRun {
        metrics: Vec::new(),
        failed: 0,
    };
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("metric"), Some(name), Some(value)) => {
                let value = value
                    .parse()
                    .map_err(|_| format!("{workload}: unreadable line `{line}`"))?;
                run.metrics.push((name.to_string(), value));
            }
            (Some("result"), Some(_attempted), Some(failed)) => {
                run.failed = failed
                    .trim_start_matches("failed=")
                    .parse()
                    .unwrap_or(u64::MAX);
            }
            _ => {}
        }
    }
    Ok(run)
}

/// `navbench run`: every workload, untraced then traced.
pub fn run_all(seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let mut failed = 0;
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            failed += child(w.name, seed, seconds, trace)?.failed;
        }
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs of a workload in one of `selfcheck`'s sets. One run against one
/// run trips over what the bounds are not for: a set-up of 9 ms that took
/// 12, a peak RSS that is 32 MB or 36 MB from process to process.
const RUNS_PER_SET: usize = 3;

/// `RUNS_PER_SET` untraced runs of `workload`: the median of every
/// metric, and the operations that failed in all of them.
fn median_of_runs(workload: &str, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let runs = (0..RUNS_PER_SET)
        .map(|_| child(workload, seed, seconds, false))
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = (0..runs[0].metrics.len())
        .map(|m| {
            let mut values: Vec<f64> = runs.iter().map(|r| r.metrics[m].1).collect();
            (
                runs[0].metrics[m].0.clone(),
                crate::stats::median(&mut values),
            )
        })
        .collect();
    Ok(ChildRun {
        metrics,
        failed: runs.iter().map(|r| r.failed).sum(),
    })
}

/// `navbench selfcheck`: the untraced set twice on this build, each set
/// `RUNS_PER_SET` runs per workload, medians compared as the driver
/// compares them. Prints the relative difference of every end-to-end
/// metric on every workload beside its bound, and fails if one exceeds it
/// or an operation failed.
pub fn selfcheck(seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let runs: Result<Vec<ChildRun>, String> = spec::WORKLOADS
            .iter()
            .map(|w| median_of_runs(w.name, seed, seconds))
            .collect();
        sets.push(runs?);
    }
    let mut offenders = Vec::new();
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (w, (first, second)) in spec::WORKLOADS.iter().zip(sets[0].iter().zip(&sets[1])) {
        for (m, ((_, a), (_, b))) in spec::END_TO_END
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            let diff = if *a == 0.0 {
                f64::INFINITY
            } else {
                (b - a).abs() / a.abs()
            };
            let over = diff > m.bound;
            println!(
                "{:<18} {:<26} {a:>14.4} {b:>14.4} {:>7.2}% {:>6.0}%{}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if over { "  <-- over" } else { "" }
            );
            if over {
                offenders.push(format!(
                    "{}/{}: {:.2}% > {:.0}%",
                    w.name,
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        if first.failed + second.failed > 0 {
            offenders.push(format!(
                "{}: {} failed operations",
                w.name,
                first.failed + second.failed
            ));
        }
    }
    if offenders.is_empty() {
        println!("selfcheck: both sets agree within every bound, no failed operation");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("selfcheck: {} offender(s):", offenders.len());
        offenders.iter().for_each(|o| println!("  {o}"));
        Ok(ExitCode::FAILURE)
    }
}

/// What a smoke run's output must satisfy: exactly the spec's metrics, in
/// order, finite (end-to-end ones positive), nothing failed, and a result
/// line that names them all.
fn check_against_spec(workload: &str, trace: bool, result: &RunResult) -> Result<(), String> {
    let specs: &[spec::MetricSpec] = if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = specs.iter().map(|m| m.name).collect();
    let fail = |why: String| Err(format!("{workload} trace={}: {why}", u8::from(trace)));
    if names != expected {
        return fail(format!(
            "metrics {names:?}, BENCHMARK.json lists {expected:?}"
        ));
    }
    if result.failed > 0 || result.attempted == 0 {
        return fail(format!(
            "{} of {} operations failed: {:?}",
            result.failed, result.attempted, result.failures
        ));
    }
    let line = result.to_json();
    for (m, s) in result.metrics.iter().zip(specs) {
        if !m.value.is_finite() || m.unit != s.unit {
            return fail(format!("{} = {} {}", m.name, m.value, m.unit));
        }
        if !trace && m.value <= 0.0 {
            return fail(format!(
                "end-to-end metric {} is {}, and must never be 0",
                m.name, m.value
            ));
        }
        if !line.contains(&format!("\"{}\": {{\"value\": ", m.name)) {
            return fail(format!("result line lacks {}", m.name));
        }
    }
    Ok(())
}

/// `navbench smoke`: one iteration of every workload, both passes, in
/// this process, checked against the spec.
pub fn smoke() -> Result<(), String> {
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            let config = RunConfig {
                workload: w.name.into(),
                seed: 1,
                seconds: 1.0,
                trace,
                iterations: Some(1),
            };
            let result = run::run(&config)?;
            check_against_spec(w.name, trace, &result)?;
            println!(
                "smoke {} trace={}: {} metrics ok",
                w.name,
                u8::from(trace),
                result.metrics.len()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_output_matches_benchmark_json() {
        let _serial = crate::span::TEST_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        super::smoke().unwrap();
    }
}
