//! The metrics registry: instruments, families, snapshots, exposition.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic, so a handle can be carried into worker threads freely.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn inc_by(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the absolute value. Only for bridging an *external*
    /// monotone source (e.g. the transport's own atomic counters) into
    /// the registry at snapshot time — never mix with [`Counter::inc`]
    /// on the same instrument.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous value that can go up and down. Stored as
/// `f64` bits in one atomic word.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: per-bucket atomic counts plus a running
/// count and sum. Bucket bounds are upper bounds, sorted ascending; an
/// implicit `+Inf` bucket catches the tail. Observation is a bounded
/// linear scan over a handful of bounds and three `fetch_add`s — no
/// locks, no allocation, no clock reads.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

#[derive(Debug)]
struct HistogramCore {
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, accumulated as f64 bits with a CAS loop.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut sorted: Vec<f64> = bounds.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("histogram bounds must not be NaN"));
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCore {
            bounds: sorted,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let core = &*self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative `(upper_bound, count)` pairs, ending with `+Inf`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let core = &*self.0;
        let mut acc = 0;
        let mut out = Vec::with_capacity(core.bounds.len() + 1);
        for (i, &b) in core.bounds.iter().enumerate() {
            acc += core.buckets[i].load(Ordering::Relaxed);
            out.push((b, acc));
        }
        acc += core.buckets[core.bounds.len()].load(Ordering::Relaxed);
        out.push((f64::INFINITY, acc));
        out
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type LabelSet = Vec<(String, String)>;

struct Family {
    help: String,
    kind: MetricKind,
    /// Instruments by label set, in registration order.
    instruments: Vec<(LabelSet, Instrument)>,
}

/// The metrics registry.
///
/// Registration (`counter`, `gauge`, `histogram` and their `_with`
/// label variants) takes a mutex and is idempotent: asking for the same
/// name + label set returns the existing instrument, so sessions can be
/// re-run against one long-lived registry. The returned handles update
/// without any lock. Collectors registered with
/// [`Registry::register_collector`] run at snapshot time to pull values
/// from external sources (e.g. the transport's own counters).
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
    #[allow(clippy::type_complexity)]
    collectors: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("families", &self.families.lock().unwrap().len())
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            families: Mutex::new(BTreeMap::new()),
            collectors: Mutex::new(Vec::new()),
        }
    }

    /// Register (or fetch) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or fetch) a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, MetricKind::Counter, &[]) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// Register (or fetch) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or fetch) a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, MetricKind::Gauge, &[]) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// Register (or fetch) an unlabelled histogram with the given
    /// bucket upper bounds (an implicit `+Inf` bucket is added).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Register (or fetch) a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.instrument(name, help, labels, MetricKind::Histogram, bounds) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked in instrument()"),
        }
    }

    /// Find the instrument registered under `name` and `labels`, or
    /// register a new one of `kind` (a histogram with `bounds`). Panics
    /// when `name` is already registered as another kind.
    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        bounds: &[f64],
    ) -> Instrument {
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            instruments: Vec::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric `{name}` already registered as {:?}",
            family.kind
        );
        let labels: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some((_, ins)) = family.instruments.iter().find(|(l, _)| *l == labels) {
            return ins.clone();
        }
        let ins = match kind {
            MetricKind::Counter => Instrument::Counter(Counter::default()),
            MetricKind::Gauge => Instrument::Gauge(Gauge::default()),
            MetricKind::Histogram => Instrument::Histogram(Histogram::new(bounds)),
        };
        family.instruments.push((labels, ins.clone()));
        ins
    }

    /// Register a closure that runs before every snapshot, pulling
    /// values from an external source into pre-registered instruments
    /// (the bridge pattern — e.g. transport counters owned by the
    /// receive path).
    pub fn register_collector(&self, f: impl Fn() + Send + Sync + 'static) {
        self.collectors.lock().unwrap().push(Box::new(f));
    }

    /// Run collectors and copy out every instrument.
    pub fn snapshot(&self) -> Snapshot {
        for c in self.collectors.lock().unwrap().iter() {
            c();
        }
        let families = self.families.lock().unwrap();
        let mut out = Vec::with_capacity(families.len());
        for (name, family) in families.iter() {
            let samples = family
                .instruments
                .iter()
                .map(|(labels, ins)| Sample {
                    labels: labels.clone(),
                    value: match ins {
                        Instrument::Counter(c) => SampleValue::Counter(c.get()),
                        Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
                        Instrument::Histogram(h) => SampleValue::Histogram {
                            buckets: h.cumulative_buckets(),
                            count: h.count(),
                            sum: h.sum(),
                        },
                    },
                })
                .collect();
            out.push(MetricFamily {
                name: name.clone(),
                help: family.help.clone(),
                kind: family.kind,
                samples,
            });
        }
        Snapshot { families: out }
    }

    /// The Prometheus-style text exposition of a fresh snapshot.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

// ---------------------------------------------------------------------
// Snapshot & exposition
// ---------------------------------------------------------------------

/// One instrument's point-in-time value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Cumulative `(upper_bound, count)` pairs ending with `+Inf`.
        buckets: Vec<(f64, u64)>,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
    },
}

/// One labelled sample within a family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label key/value pairs, registration order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: SampleValue,
}

/// All samples of one metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Samples, one per label set.
    pub samples: Vec<Sample>,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Families sorted by metric name.
    pub families: Vec<MetricFamily>,
}

impl Snapshot {
    /// Look up a family by name.
    pub fn family(&self, name: &str) -> Option<&MetricFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Sum of a counter family across all label sets (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name)
            .map(|f| {
                f.samples
                    .iter()
                    .map(|s| match s.value {
                        SampleValue::Counter(v) => v,
                        _ => 0,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Value of an unlabelled gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.family(name).and_then(|f| {
            f.samples.iter().find_map(|s| match s.value {
                SampleValue::Gauge(v) if s.labels.is_empty() => Some(v),
                _ => None,
            })
        })
    }

    /// The Prometheus text-format (0.0.4) exposition.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(
                out,
                "# TYPE {} {}",
                family.name,
                family.kind.exposition_name()
            );
            for sample in &family.samples {
                match &sample.value {
                    SampleValue::Counter(v) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(&sample.labels, None),
                            v
                        );
                    }
                    SampleValue::Gauge(v) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(&sample.labels, None),
                            fmt_f64(*v)
                        );
                    }
                    SampleValue::Histogram {
                        buckets,
                        count,
                        sum,
                    } => {
                        for (bound, cum) in buckets {
                            let le = if bound.is_infinite() {
                                "+Inf".to_string()
                            } else {
                                fmt_f64(*bound)
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                family.name,
                                render_labels(&sample.labels, Some(&le)),
                                cum
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            render_labels(&sample.labels, None),
                            fmt_f64(*sum)
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            family.name,
                            render_labels(&sample.labels, None),
                            count
                        );
                    }
                }
            }
        }
        out
    }
}

/// Render `{k="v",...}` (empty string when there are no labels), with
/// an optional trailing `le` label for histogram buckets.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Floats without a trailing `.0` for whole numbers — `150000` not
/// `150000.0` — matching what scrapers and the tests expect.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("t_total", "things");
        c.inc();
        c.inc_by(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("t_depth", "depth");
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("t_total"), 5);
        assert_eq!(snap.gauge_value("t_depth"), Some(3.5));
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter_with("x_total", "x", &[("worker", "0")]);
        let b = r.counter_with("x_total", "x", &[("worker", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same label set shares one atomic");
        let other = r.counter_with("x_total", "x", &[("worker", "1")]);
        other.inc();
        assert_eq!(r.snapshot().counter_total("x_total"), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", "m");
        r.gauge("m", "m");
    }

    #[test]
    fn histograms_register_through_the_same_lookup() {
        let r = Registry::new();
        let a = r.histogram_with("h_usec", "h", &[10.0], &[("stage", "a")]);
        let b = r.histogram_with("h_usec", "h", &[99.0], &[("stage", "a")]);
        a.observe(1.0);
        b.observe(1.0);
        assert_eq!(a.count(), 2, "same label set shares one histogram");
        assert_eq!(b.cumulative_buckets()[0], (10.0, 2), "first bounds kept");
        r.histogram_with("h_usec", "h", &[10.0], &[("stage", "b")]);
        assert_eq!(r.snapshot().family("h_usec").unwrap().samples.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn histogram_kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("m", "m");
        r.histogram("m", "m", &[1.0]);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_usec", "latency", &[10.0, 100.0, 1000.0]);
        for v in [5.0, 50.0, 500.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5555.0);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(10.0, 1), (100.0, 2), (1000.0, 3), (f64::INFINITY, 4)]
        );
    }

    #[test]
    fn histogram_boundary_is_inclusive() {
        let r = Registry::new();
        let h = r.histogram("b_usec", "b", &[100.0]);
        h.observe(100.0);
        assert_eq!(h.cumulative_buckets()[0], (100.0, 1), "le is inclusive");
    }

    #[test]
    fn exposition_format_shape() {
        let r = Registry::new();
        r.counter_with("s_total", "Help text", &[("worker", "1")])
            .inc_by(7);
        let h = r.histogram("s_usec", "Latency", &[150_000.0]);
        h.observe(10.0);
        let g = r.gauge("s_fraction", "Progress");
        g.set(0.5);
        let text = r.render_text();
        assert!(text.contains("# HELP s_total Help text"), "{text}");
        assert!(text.contains("# TYPE s_total counter"), "{text}");
        assert!(text.contains("s_total{worker=\"1\"} 7"), "{text}");
        assert!(text.contains("# TYPE s_usec histogram"), "{text}");
        assert!(text.contains("s_usec_bucket{le=\"150000\"} 1"), "{text}");
        assert!(text.contains("s_usec_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("s_usec_sum 10"), "{text}");
        assert!(text.contains("s_usec_count 1"), "{text}");
        assert!(text.contains("s_fraction 0.5"), "{text}");
    }

    #[test]
    fn collectors_run_at_snapshot_time() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let r = Registry::new();
        let external = Arc::new(AtomicU64::new(0));
        let bridged = r.counter("ext_total", "bridged");
        let src = Arc::clone(&external);
        r.register_collector(move || bridged.set(src.load(Ordering::Relaxed)));
        external.store(42, Ordering::Relaxed);
        assert_eq!(r.snapshot().counter_total("ext_total"), 42);
        external.store(43, Ordering::Relaxed);
        assert_eq!(r.snapshot().counter_total("ext_total"), 43);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let r = Arc::new(Registry::new());
        let c = r.counter("c_total", "c");
        let h = r.histogram("h_usec", "h", &[50.0]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000 {
                        c.inc();
                        h.observe((i % 100) as f64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
        let total: u64 = (0..100).map(|i| i * 400).sum();
        assert_eq!(h.sum(), total as f64, "CAS sum loses no observation");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("e_total", "e", &[("q", "a\"b\\c")]).inc();
        let text = r.render_text();
        assert!(text.contains("e_total{q=\"a\\\"b\\\\c\"} 1"), "{text}");
    }
}
