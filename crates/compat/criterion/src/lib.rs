//! Offline stand-in for the `criterion` crate (see `crates/compat/`).
//!
//! Implements the macro and builder surface the workspace's benches use
//! (`criterion_group!` / `criterion_main!`, `Criterion::bench_function`,
//! benchmark groups with ids and throughput) over a simple wall-clock
//! timer: each benchmark runs `sample_size` timed samples after a short
//! warm-up and prints mean time per iteration. No statistics machinery,
//! no plots — just enough to keep `cargo bench` meaningful offline.
//!
//! Two extensions beyond plain timing:
//!
//! * the real criterion CLI's time knobs are honoured —
//!   `--warm-up-time <s>`, `--measurement-time <s>` and `--quick` (CI
//!   smoke runs pass these; unknown flags such as cargo's `--bench` are
//!   ignored), and so is its positional filter: only benchmarks whose
//!   full path contains it run;
//! * every reported mean is also pushed to an in-process registry,
//!   [`take_reports`], so a bench target can persist its own numbers
//!   (the workspace's `BENCH_engine.json` ledger) without re-measuring.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Re-export point used by benches (`criterion::black_box`).
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier for one parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `group/<function>/<parameter>` form.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            text: format!("{function}/{parameter}"),
        }
    }

    /// `group/<parameter>` form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// One reported measurement, mirrored into the in-process registry.
#[derive(Debug, Clone)]
pub struct Report {
    /// Full benchmark path (`group/function/parameter`).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
}

static REPORTS: Mutex<Vec<Report>> = Mutex::new(Vec::new());

/// Drain every measurement reported so far in this process, in
/// execution order. Bench targets call this after their groups finish
/// to persist results themselves.
pub fn take_reports() -> Vec<Report> {
    match REPORTS.lock() {
        Ok(mut g) => std::mem::take(&mut *g),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    warm_up: Duration,
    measurement: Duration,
    /// Mean nanoseconds per iteration, filled by [`Bencher::iter`].
    mean_ns: f64,
}

impl Bencher {
    /// Time `routine`, storing the mean per-iteration cost.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (at least one call), tracking the fastest single run
        // as the calibration estimate for sample sizing.
        let warm_start = Instant::now();
        let t0 = Instant::now();
        black_box(routine());
        let mut once = t0.elapsed().max(Duration::from_nanos(1));
        while warm_start.elapsed() < self.warm_up {
            let t = Instant::now();
            black_box(routine());
            once = once.min(t.elapsed().max(Duration::from_nanos(1)));
        }
        // Fit `samples` samples into the measurement budget.
        let sample_budget = (self.measurement / self.samples.max(1) as u32)
            .max(Duration::from_nanos(1));
        let per_sample = (sample_budget.as_nanos() / once.as_nanos()).clamp(1, 10_000) as usize;

        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            total += t.elapsed();
            iters += per_sample as u64;
        }
        self.mean_ns = total.as_nanos() as f64 / iters as f64;
    }
}

fn report(name: &str, mean_ns: f64, throughput: Option<Throughput>) {
    match REPORTS.lock() {
        Ok(mut g) => g.push(Report {
            name: name.to_string(),
            mean_ns,
        }),
        Err(poisoned) => poisoned.into_inner().push(Report {
            name: name.to_string(),
            mean_ns,
        }),
    }
    let human = if mean_ns >= 1e9 {
        format!("{:.3} s", mean_ns / 1e9)
    } else if mean_ns >= 1e6 {
        format!("{:.3} ms", mean_ns / 1e6)
    } else if mean_ns >= 1e3 {
        format!("{:.3} µs", mean_ns / 1e3)
    } else {
        format!("{mean_ns:.1} ns")
    };
    match throughput {
        Some(Throughput::Elements(n)) => {
            let rate = n as f64 / (mean_ns / 1e9);
            println!("bench: {name:<50} {human:>12}/iter  {rate:>14.0} elem/s");
        }
        Some(Throughput::Bytes(n)) => {
            let rate = n as f64 / (mean_ns / 1e9) / (1 << 20) as f64;
            println!("bench: {name:<50} {human:>12}/iter  {rate:>10.1} MiB/s");
        }
        None => println!("bench: {name:<50} {human:>12}/iter"),
    }
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    /// Run only benchmarks whose full path contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    /// Baseline knobs (one warm-up call, 2 ms samples — the historical
    /// behaviour of this stand-in), then the criterion CLI arguments on
    /// the command line: see [`Criterion::from_args`].
    fn default() -> Self {
        Criterion::from_args(std::env::args().skip(1))
    }
}

impl Criterion {
    /// Baseline knobs, then the criterion CLI arguments in `args` (the
    /// program name excluded): the time flags `--warm-up-time <s>`,
    /// `--measurement-time <s>`, `--sample-size <n>` and `--quick`, and
    /// a positional filter that selects the benchmarks whose full path
    /// (`group/function/parameter`) contains it. Unrecognised flags (for
    /// example the `--bench` cargo appends) are ignored, like the real
    /// crate's lenient CLI.
    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut c = Criterion {
            sample_size: 10,
            warm_up: Duration::ZERO,
            measurement: Duration::from_millis(20),
            filter: None,
        };
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        let secs = |s: &String| s.parse::<f64>().ok().filter(|x| *x >= 0.0);
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    c.warm_up = Duration::from_millis(250);
                    c.measurement = Duration::from_millis(500);
                    c.sample_size = 5;
                }
                "--warm-up-time" => {
                    if let Some(x) = args.get(i + 1).and_then(secs) {
                        c.warm_up = Duration::from_secs_f64(x);
                        i += 1;
                    }
                }
                "--measurement-time" => {
                    if let Some(x) = args.get(i + 1).and_then(secs) {
                        c.measurement = Duration::from_secs_f64(x);
                        i += 1;
                    }
                }
                "--sample-size" => {
                    if let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                        c.sample_size = n.max(1);
                        i += 1;
                    }
                }
                positional if !positional.starts_with('-') && c.filter.is_none() => {
                    c.filter = Some(positional.to_string());
                }
                _ => {}
            }
            i += 1;
        }
        c
    }

    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the warm-up budget before timed samples begin.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Set the total measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Whether the benchmark at `path` passes the filter.
    fn selects(&self, path: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| path.contains(f))
    }

    fn bencher(&self, samples: usize) -> Bencher {
        Bencher {
            samples,
            warm_up: self.warm_up,
            measurement: self.measurement,
            mean_ns: 0.0,
        }
    }

    /// Run one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if !self.selects(name) {
            return self;
        }
        let mut b = self.bencher(self.sample_size);
        f(&mut b);
        report(name, b.mean_ns, None);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size,
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the per-iteration throughput used in reports.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Set the number of timed samples for benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let path = format!("{}/{id}", self.name);
        if !self.criterion.selects(&path) {
            return self;
        }
        let mut b = self.criterion.bencher(self.sample_size);
        f(&mut b);
        report(&path, b.mean_ns, self.throughput);
        self
    }

    /// Run one parameterised benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let path = format!("{}/{id}", self.name);
        if !self.criterion.selects(&path) {
            return self;
        }
        let mut b = self.criterion.bencher(self.sample_size);
        f(&mut b, input);
        report(&path, b.mean_ns, self.throughput);
        self
    }

    /// Finish the group (reporting already happened incrementally).
    pub fn finish(self) {}
}

/// Declare a benchmark group, mirroring criterion's two macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declare the bench entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("compat/noop", |b| b.iter(|| black_box(1 + 1)));
        let mut g = c.benchmark_group("compat/group");
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::from_parameter(4), &4usize, |b, &n| {
            b.iter(|| (0..n).sum::<usize>())
        });
        g.finish();
    }

    criterion_group!(name = benches; config = Criterion::default().sample_size(3); targets = sample_bench);
    criterion_group!(plain, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
        plain();
    }

    #[test]
    fn positional_filter_selects_by_path() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut c = Criterion::from_args(args(&[
            "--bench",
            "--measurement-time",
            "0.002",
            "compat/filtered/keep",
        ]))
        .sample_size(2);
        let mut ran = Vec::new();
        c.bench_function("compat/filtered/skip", |b| {
            ran.push("skip");
            b.iter(|| black_box(1))
        });
        let mut g = c.benchmark_group("compat/filtered");
        g.bench_function("keep", |b| {
            ran.push("keep");
            b.iter(|| black_box(2))
        });
        g.bench_with_input(BenchmarkId::new("keep", 2), &2, |b, &n| {
            ran.push("keep/2");
            b.iter(|| black_box(n))
        });
        g.bench_with_input(BenchmarkId::from_parameter("drop"), &3, |b, &n| {
            ran.push("drop");
            b.iter(|| black_box(n))
        });
        g.finish();
        assert_eq!(ran, ["keep", "keep/2"]);
        assert_eq!(c.measurement, Duration::from_millis(2));
        // Without a positional argument everything runs.
        assert!(Criterion::from_args(args(&["--bench", "--quick"]))
            .filter
            .is_none());
    }

    #[test]
    fn reports_are_registered() {
        let mut c = Criterion::from_args(Vec::new())
            .sample_size(2)
            .measurement_time(Duration::from_millis(4));
        c.bench_function("compat/registered", |b| b.iter(|| black_box(2 + 2)));
        let reports = take_reports();
        assert!(reports
            .iter()
            .any(|r| r.name == "compat/registered" && r.mean_ns > 0.0));
    }

    #[test]
    fn time_budgets_shape_sampling() {
        let mut b = Bencher {
            samples: 3,
            warm_up: Duration::from_millis(1),
            measurement: Duration::from_millis(3),
            mean_ns: 0.0,
        };
        let t0 = Instant::now();
        b.iter(|| black_box(1u64.wrapping_mul(3)));
        // Warm-up plus measurement must stay in the same order of
        // magnitude as the budgets, not the old fixed 2 ms × samples.
        assert!(t0.elapsed() < Duration::from_millis(200));
        assert!(b.mean_ns > 0.0);
    }
}
