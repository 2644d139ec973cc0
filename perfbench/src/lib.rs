//! The qoz-suite benchmark: four workloads driven through the public
//! API (`qoz_api::{Session, Pipeline}`, `qoz_serve::{Server, Client}`,
//! `qoz_archive`), end-to-end metrics with tracing off, and a traced
//! run that times every layer from outside.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints a report line and, last, one JSON result line.

pub mod daemon;
pub mod host;
pub mod inproc;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod record;
pub mod stats;
pub mod trace;

use inputs::{Inputs, Workload};
use json::Json;
use qoz_datagen::SizeClass;
use std::time::Instant;

/// Where runs leave traces and the daemon's files, relative to the
/// working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: SizeClass,
}

const USAGE: &str = "usage: perfbench --workload <warm-tight|warm-loose|cold-tune|daemon> \
--seed <n> --seconds <s> --trace <0|1> [--size small|tiny]";

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut size = SizeClass::Small;
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value '{value}' for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0);
                    seconds = Some(s.ok_or_else(bad)?);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--size" => {
                    size = match value.as_str() {
                        "small" => SizeClass::Small,
                        "tiny" => SizeClass::Tiny,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        let missing = |what: &str| format!("missing {what}\n{USAGE}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            size,
        })
    }
}

/// What a run prints: a report line, then the result line.
#[derive(Debug)]
pub struct Outcome {
    pub report: Json,
    pub result: Json,
    /// Every correctness gate held.
    pub correct: bool,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
}

/// Time `SETUP_REPEATS` set-ups, keep the last, report the median.
fn timed_setups<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(setup(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let kept = kept.expect("at least one set-up");
    Ok((kept, stats::median(&times), times))
}

/// Run one workload as `args` says.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let t = Instant::now();
    let inputs = Inputs::generate(args.workload, args.size, args.seed);
    let datagen_s = t.elapsed().as_secs_f64();
    let bounds: Vec<Json> = args
        .workload
        .rel_bounds()
        .iter()
        .map(|&b| Json::from(b))
        .collect();
    let mut report = Json::obj()
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with(
            "size_class",
            match args.size {
                SizeClass::Tiny => "tiny",
                SizeClass::Small => "small",
                SizeClass::Medium => "medium",
            },
        )
        .with("host", host::header())
        .with("rel_bounds", bounds)
        .with("fields", inputs.describe())
        .with("datagen_s", datagen_s);

    if args.trace {
        let traced = layers::run(args.workload, &inputs, args.seed, args.seconds)?;
        report.push("traced", traced.report);
        let rec = traced.rec;
        let correct = rec.violations.is_empty();
        return Ok(Outcome {
            report,
            result: result_line(correct, rec.attempted, rec.failed, traced.metrics),
            correct,
        });
    }

    let (rec, wall, setup_s, setup_times) = match args.workload {
        Workload::Daemon => {
            let (daemon, setup_s, times) = timed_setups(
                |rep| daemon::Daemon::start(&inputs, rep),
                daemon::Daemon::stop,
            )?;
            let reference = daemon.reference(&inputs);
            let reference = match reference {
                Ok(r) => r,
                Err(e) => {
                    daemon.stop();
                    return Err(e);
                }
            };
            let (clients, wall, counts) = daemon.run(&inputs, &reference, args.seed, args.seconds);
            report.push(
                "daemon",
                Json::obj()
                    .with("clients", daemon::CLIENTS)
                    .with("warm_passes", daemon.warm_passes)
                    .with("timed_cold_tunes", counts.cold_tunes)
                    .with("warmed", counts.cold_tunes == 0)
                    .with("shed", counts.shed)
                    .with("deadline_missed", counts.deadline_missed)
                    .with("served", counts.served),
            );
            daemon.stop();
            let mut clients = clients.into_iter();
            let mut rec = clients.next().expect("at least one client");
            clients.for_each(|c| rec.merge(c));
            (rec, wall, setup_s, times)
        }
        w => {
            let (mut handles, setup_s, times) =
                timed_setups(|_| inproc::Handles::setup(w, &inputs), drop)?;
            let (rec, wall) = handles.run(&inputs, args.seconds);
            (rec, wall, setup_s, times)
        }
    };
    let e2e = rec.end_to_end(&inputs.cases, wall);
    report.push(
        "setup_samples_s",
        Json::Arr(setup_times.into_iter().map(Json::from).collect()),
    );
    report.push("timed_s", wall);
    report.push("end_to_end", e2e.describe());
    let correct = rec.violations.is_empty() && rec.covered();
    Ok(Outcome {
        report,
        result: result_line(correct, rec.attempted, rec.failed, e2e.metrics(setup_s)),
        correct,
    })
}
