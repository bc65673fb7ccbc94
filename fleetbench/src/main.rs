//! `fleetbench` — the end-to-end and per-layer benchmark of the
//! Replay4NCL fleet.
//!
//! ```sh
//! bash fleetbench/run.sh --workload serve_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Boots an in-process fleet (learner + followers behind the router,
//! over localhost TCP) from the workspace crates' public APIs, drives
//! one workload (see [`workload`]) and checks every output. The last
//! stdout line is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`); the line before it carries diagnostics (generator
//! accounting per phase, tail latency with its sample count). A failed
//! check makes `correct` false and the exit code 1.
//!
//! Each run pre-trains into a fresh `NCL_CACHE_DIR` under
//! `.fleetbench/` in the working directory (removed at exit), so no run
//! reuses another's model; `setup_s` is the median of 3 to 15 set-ups,
//! all but one in child processes of this binary. A traced run writes
//! its spans to `.fleetbench/spans-<workload>-<seed>.json`.

mod check;
mod fleet;
mod load;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::Value;

use crate::workload::{RunArgs, Spec};

/// Working directory of every run, relative to where it is started.
const WORK_DIR: &str = ".fleetbench";

/// Set-ups timed per run (this process plus child processes): at least
/// `MIN_SETUPS`, and more while the children together took less than
/// `SETUP_BUDGET`, up to `MAX_SETUPS` — cheap set-ups get more samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_secs(3);

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "fleetbench: {problem}\nusage: fleetbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

struct Cli {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut spec = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_probe = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Cli {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_probe,
    })
}

/// Points `NCL_CACHE_DIR` at a fresh directory of this process.
fn fresh_cache_dir() -> std::io::Result<PathBuf> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = PathBuf::from(WORK_DIR).join(format!("cache-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("NCL_CACHE_DIR", &dir);
    std::env::set_var("NCL_CACHE_QUIET", "1");
    Ok(dir)
}

/// One set-up in a child process (its own fresh cache and memo),
/// returning its set-up seconds.
fn child_setup(cli: &Cli) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            cli.spec.name,
            "--seed",
            &cli.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(secs)) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(problem) => return usage(&problem),
    };
    let cache = match fresh_cache_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("fleetbench: cannot create {WORK_DIR}: {e}");
            return ExitCode::from(2);
        }
    };
    let code = if cli.setup_probe {
        setup_probe(&cli)
    } else {
        run(&cli)
    };
    let _ = std::fs::remove_dir_all(&cache);
    code
}

/// Checks the run measured exactly the metrics `BENCHMARK.json` (in the
/// working directory) declares for its kind of run.
fn check_declared(report: &workload::Report, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let json: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let declared: std::collections::BTreeSet<&str> = json
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str))
        .collect();
    let measured: std::collections::BTreeSet<&str> = report.metrics.keys().copied().collect();
    if declared == measured {
        return Ok(());
    }
    Err(format!(
        "measured metrics differ from BENCHMARK.json {key}: missing {:?}, undeclared {:?}",
        declared.difference(&measured).collect::<Vec<_>>(),
        measured.difference(&declared).collect::<Vec<_>>()
    ))
}

fn setup_probe(cli: &Cli) -> ExitCode {
    let start = Instant::now();
    let rec = trace::Recorder::new(false);
    match workload::setup(&cli.spec, cli.seed, &rec, 0) {
        Ok((_, fleet)) => {
            let secs = start.elapsed().as_secs_f64();
            fleet.shutdown();
            println!("{secs}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cli: &Cli) -> ExitCode {
    let mut setup_samples = Vec::with_capacity(MAX_SETUPS);
    let mut probe_errors = Vec::new();
    if !cli.trace {
        let start = Instant::now();
        for child in 1..MAX_SETUPS {
            if child >= MIN_SETUPS && start.elapsed() >= SETUP_BUDGET {
                break;
            }
            match child_setup(cli) {
                Ok(secs) => setup_samples.push(secs),
                Err(e) => probe_errors.push(e),
            }
        }
    }
    let args = RunArgs {
        spec: cli.spec,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let (mut report, setup_time) = workload::run(&args);
    for e in probe_errors {
        report.errors.push(e);
        report.failed += 1;
    }
    report.attempted += 1;
    if !cli.trace {
        if let Some(t) = setup_time {
            setup_samples.push(t.as_secs_f64());
        }
        report.metrics.insert(
            "setup_s",
            (stats::median(&setup_samples).unwrap_or(0.0), "s"),
        );
        report.metrics.insert(
            "peak_rss_mib",
            (stats::peak_rss_mib().unwrap_or(0.0), "MiB"),
        );
        report.diagnostics.insert(
            "setup_samples_s".into(),
            setup_samples.iter().copied().map(Value::from).collect(),
        );
    } else {
        let path =
            PathBuf::from(WORK_DIR).join(format!("spans-{}-{}.json", cli.spec.name, cli.seed));
        if let Err(e) = std::fs::write(&path, trace::spans_json(&report.spans).to_json()) {
            eprintln!("fleetbench: could not write {}: {e}", path.display());
        }
    }
    if let Err(e) = check_declared(&report, cli.trace) {
        report.errors.push(e);
    }
    for e in &report.errors {
        eprintln!("fleetbench: check failed: {e}");
    }
    let correct = report.errors.is_empty() && report.failed == 0;
    let metrics: Value = Value::Object(
        report
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    (*name).to_owned(),
                    ncl_serve::protocol::object(vec![
                        ("value", (*value).into()),
                        ("unit", (*unit).into()),
                    ]),
                )
            })
            .collect(),
    );
    let diagnostics = Value::Object(report.diagnostics.clone().into_iter().collect());
    println!(
        "{}",
        ncl_serve::protocol::object(vec![("diagnostics", diagnostics)]).to_json()
    );
    println!(
        "{}",
        ncl_serve::protocol::object(vec![
            ("correct", correct.into()),
            ("attempted", report.attempted.into()),
            ("failed", report.failed.into()),
            ("metrics", metrics),
        ])
        .to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
