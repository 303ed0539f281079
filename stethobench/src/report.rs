//! A run's result: human-readable notes, then one JSON line with the
//! correctness verdict, the operation counts and the metrics.

use std::fmt::Write as _;
use std::path::Path;

use crate::spans::Tracer;
use crate::stats::mean;
use crate::Args;

#[derive(Debug, Clone, Copy)]
pub enum Unit {
    S,
    Ms,
    Us,
    MiB,
    Count,
    Ratio,
}

impl Unit {
    fn as_str(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::MiB => "MiB",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
        }
    }
}

/// Operations whose every span goes to the span log; later ones log
/// only their top-level spans.
const SPAN_LOG_FULL_OPS: u64 = 4;

/// Every per-layer metric, in the order the traced run prints them.
pub const PER_LAYER: &[(&str, Unit)] = &[
    ("online.session_ms", Unit::Ms),
    ("online.stage_sum_ms", Unit::Ms),
    ("online.wait_ms", Unit::Ms),
    ("offline.load_ms", Unit::Ms),
    ("offline.load_stage_sum_ms", Unit::Ms),
    ("offline.step_us.p50", Unit::Us),
    ("offline.step_us.p99", Unit::Us),
    ("offline.seek_us.p50", Unit::Us),
    ("sql.compile_us", Unit::Us),
    ("mal.verify_us", Unit::Us),
    ("dot.emit_us", Unit::Us),
    ("dot.parse_us", Unit::Us),
    ("engine.execute_ms", Unit::Ms),
    ("engine.instructions", Unit::Count),
    ("engine.steal_ratio", Unit::Ratio),
    ("profiler.frames", Unit::Count),
    ("profiler.encode_us", Unit::Us),
    ("profiler.decode_us", Unit::Us),
    ("profiler.frames_lost", Unit::Count),
    ("profiler.frames_lost_ratio", Unit::Ratio),
    ("profiler.tracewrite_us", Unit::Us),
    ("profiler.sample_us", Unit::Us),
    ("profiler.trace_parse_ms", Unit::Ms),
    ("layout.layout_us", Unit::Us),
    ("layout.svg_write_us", Unit::Us),
    ("layout.svg_parse_us", Unit::Us),
    ("zvtm.space_build_us", Unit::Us),
    ("zvtm.edt_us", Unit::Us),
    ("zvtm.edt_enqueued", Unit::Count),
    ("zvtm.edt_coalesced_ratio", Unit::Ratio),
    ("zvtm.edt_max_queue", Unit::Count),
    ("core.map_build_us", Unit::Us),
    ("core.color_round_us.p50", Unit::Us),
    ("core.progress_us", Unit::Us),
    ("core.replay_step_us", Unit::Us),
    ("core.current_colors_us.p50", Unit::Us),
    ("core.current_colors_us.p99", Unit::Us),
    ("core.replay_seek_us", Unit::Us),
    ("core.dot_fallbacks", Unit::Count),
    ("core.nodes_lost", Unit::Count),
];

pub struct Outcome {
    workload: &'static str,
    seed: u64,
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, Unit)>,
    notes: Vec<String>,
    steal_at_start: Option<f64>,
    errors: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, args: &Args) -> Self {
        Outcome {
            workload,
            seed: args.seed,
            trace: args.trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            errors: Vec::new(),
            steal_at_start: steal_s(),
        }
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// One operation passed its output checks.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// One operation failed a check or returned an error.
    pub fn fail(&mut self, e: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Set-up itself failed: nothing was measured.
    pub fn setup_failed(mut self, e: String) -> Self {
        self.fail(format!("setup: {e}"));
        self
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: Unit) {
        self.metrics.push((name, value, unit));
    }

    /// The end-to-end metrics of the untraced run. The mean, not the
    /// median, summarises the operations: the host's CPU speed changes by
    /// up to 1.8x in phases of seconds, so per-operation times are
    /// bimodal and their median jumps between the modes from run to run,
    /// while the mean follows the share of time spent in each.
    pub fn e2e(&mut self, setup_s: f64, ops_ms: &[f64]) {
        self.layer("setup_s", setup_s, Unit::S);
        self.layer("op_ms.mean", mean(ops_ms), Unit::Ms);
        self.layer("peak_rss_mb", peak_rss_mib(), Unit::MiB);
    }

    /// Put the traced run's metrics in [`PER_LAYER`] order, reporting 0
    /// for layers this workload does not exercise.
    pub fn fill_per_layer(&mut self) {
        let got = std::mem::take(&mut self.metrics);
        for &(name, unit) in PER_LAYER {
            let value = got.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            self.metrics.push((name, value, unit));
        }
        debug_assert!(got.iter().all(|m| PER_LAYER.iter().any(|p| p.0 == m.0)));
    }

    /// Write the run's spans to `.bench_out/spans-<workload>.jsonl`,
    /// replacing the previous traced run's.
    pub fn write_spans(&mut self, tr: &Tracer) {
        let path = Path::new(crate::OUT_DIR).join(format!("spans-{}.jsonl", self.workload));
        match tr.write_jsonl(&path, SPAN_LOG_FULL_OPS) {
            Ok(n) => self.note(format!(
                "spans: {} recorded, {n} written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => self.note(format!("spans: could not write {}: {e}", path.display())),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print the notes and the final JSON line.
    pub fn print(&self) {
        let steal = match (self.steal_at_start, steal_s()) {
            (Some(a), Some(b)) => format!("{:.2}", b - a),
            _ => "unknown".into(),
        };
        println!(
            "host: nproc={} rmem_default={} cpu_steal_s={steal} seed={} trace={}",
            crate::nproc(),
            rmem_default(),
            self.seed,
            u8::from(self.trace)
        );
        for n in &self.notes {
            println!("{n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {}", unit.as_str());
        }
        println!(
            "error_rate = {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for e in &self.errors {
            println!("error: {e}");
        }
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit.as_str()
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the hypervisor took from this machine so far, in seconds
/// (the `steal` column of `/proc/stat`, in 1/100 s).
fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// Default socket receive buffer; the online frame loss depends on it.
pub fn rmem_default() -> String {
    std::fs::read_to_string("/proc/sys/net/core/rmem_default")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the runs print, with the
    /// same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let entry = |name: &str, unit: Unit| {
            format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{}\"",
                unit.as_str()
            )
        };
        for &(name, unit) in PER_LAYER {
            assert!(json.contains(&entry(name, unit)), "{name} missing");
        }
        for (name, unit) in [
            ("setup_s", Unit::S),
            ("op_ms.mean", Unit::Ms),
            ("peak_rss_mb", Unit::MiB),
        ] {
            assert!(json.contains(&entry(name, unit)), "{name} missing");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            PER_LAYER.len() + 3 + crate::WORKLOADS.len()
        );
        for w in crate::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }
}
