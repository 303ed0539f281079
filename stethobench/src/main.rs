//! End-to-end and per-stage benchmark of Stethoscope's two user paths:
//! watching a query online, and stepping through a saved plan and trace
//! offline. See README.md for the workloads and metrics.
//!
//! ```text
//! stethobench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process (so `peak_rss_mb` is that workload's alone);
//! `--workload all` runs every workload, untraced then traced, as child
//! processes and summarises them. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod offline;
mod online;
mod report;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::Outcome;

pub const WORKLOADS: [&str; 3] = [online::FIG1.name, online::Q1_MITOSIS.name, offline::NAME];

/// Where runs leave their files, relative to the repository root.
pub const OUT_DIR: &str = ".bench_out";

/// Set-up runs at least [`SETUP_MIN_REPEATS`] times per run, and again
/// while the repeats take under [`SETUP_BUDGET`], up to
/// [`SETUP_MAX_REPEATS`]; `setup_s` is their median. A set-up of a few
/// ms varies by 2x from one repeat to the next, so it needs many repeats
/// for a steady median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 30.0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {val}");
            match flag.as_str() {
                "--workload" => a.workload = val.clone(),
                "--seed" => a.seed = val.parse().map_err(bad)?,
                "--seconds" => {
                    a.seconds = val
                        .parse()
                        .map_err(|_| format!("bad value for {flag}: {val}"))?
                }
                "--trace" => a.trace = val.parse::<u8>().map_err(bad)? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
        }
        Ok(a)
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `setup` repeatedly; the median wall time in seconds and the last
/// result.
pub fn median_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && started.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        stats::percentile(&times, 0.5),
        last.expect("ran at least once"),
    ))
}

fn run_one(args: &Args) -> Outcome {
    // Files the sessions write stay inside the checkout, one directory
    // per process; the span log survives it.
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        let mut o = Outcome::new("setup", args);
        o.fail(format!("cannot create {}: {e}", work.display()));
        return o;
    }
    let mut o = match args.workload.as_str() {
        "online-fig1" => online::run(&online::FIG1, args, &work),
        "online-q1-mitosis" => online::run(&online::Q1_MITOSIS, args, &work),
        _ => offline::run(args, &work),
    };
    std::fs::remove_dir_all(&work).ok();
    if args.trace {
        o.fill_per_layer();
    }
    o
}

/// Value of `"name": {"value": X` in a result line.
fn metric(json: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&pat)? + pat.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut summary = Vec::new();
    for w in WORKLOADS {
        let mut untraced_mean = None;
        for trace in [0, 1] {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{w}: cannot run: {e}");
                    ok = false;
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            for line in text.lines() {
                println!("[{w} trace={trace}] {line}");
            }
            let last = text.lines().last().unwrap_or("");
            ok &= out.status.success() && last.contains("\"correct\": true");
            attempted += metric_count(last, "attempted");
            failed += metric_count(last, "failed");
            if trace == 0 {
                untraced_mean = metric(last, "op_ms.mean");
                summary.push(format!("{w}: {}", last));
            } else if w != offline::NAME {
                if let (Some(u), Some(t)) = (untraced_mean, metric(last, "online.session_ms")) {
                    println!(
                        "{w}: tracing overhead = {:.3} ms (traced online.session_ms {t:.3} - untraced op_ms.mean {u:.3})",
                        t - u
                    );
                }
            }
        }
    }
    for s in summary {
        println!("{s}");
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_count(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    json.find(&pat)
        .map(|at| &json[at + pat.len()..])
        .and_then(|rest| rest[..rest.find(',').unwrap_or(rest.len())].parse().ok())
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stethobench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(".").join("BENCHMARK.json").exists() {
        eprintln!("stethobench: run from the repository root (no BENCHMARK.json here)");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let o = run_one(&args);
    o.print();
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"op_ms.mean\": {\"value\": 71.5, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}";
        assert_eq!(metric(line, "op_ms.mean"), Some(71.5));
        assert_eq!(metric(line, "setup_s"), Some(0.25));
        assert_eq!(metric(line, "nope"), None);
        assert_eq!(metric_count(line, "attempted"), 12);
        assert_eq!(metric_count(line, "failed"), 0);
    }
}
