//! Experiment D6 — online end-to-end: the complete §4.2 workflow (UDP
//! textual Stethoscope, query thread, stream monitor, sampling, coloring)
//! measured wall-to-wall, with the EDT pacing on and off.
//!
//! Every mean is upserted into the `BENCH_engine.json` ledger at the
//! repository root, with the host's CPU count in its context. The
//! `online/query/*` rows also carry what one session sent: datagrams
//! and events received, and the plan's instruction count.

use std::sync::Mutex;

use criterion::{criterion_group, BenchmarkId, Criterion};
use stetho_bench::catalog;
use stetho_bench::ledger::{self, int, num, text};
use stetho_core::{OnlineConfig, OnlineSession};
use stetho_tpch::queries;

fn bench_online(c: &mut Criterion) {
    let cat = catalog(0.002);
    let mut group = c.benchmark_group("online/end_to_end");
    group.sample_size(10);
    for pacing in [0u64, 150] {
        group.bench_with_input(
            BenchmarkId::new("pacing_ms", pacing),
            &pacing,
            |b, &pacing| {
                b.iter(|| {
                    let cfg = OnlineConfig {
                        pacing_ms: pacing,
                        partitions: 2,
                        workers: 2,
                        ..Default::default()
                    };
                    let out =
                        OnlineSession::run(std::sync::Arc::clone(&cat), queries::Q6, &cfg).unwrap();
                    std::fs::remove_file(&cfg.dot_path).ok();
                    std::fs::remove_file(&cfg.trace_path).ok();
                    out.events.len()
                })
            },
        );
    }
    group.finish();
}

/// One `online/query/*` row.
struct QueryRow {
    row: &'static str,
    /// Named like the `stetho_tpch::queries` constant the row runs.
    query: &'static str,
    sql: &'static str,
    partitions: usize,
    workers: usize,
}

/// `q1_mitosis` has the shape of the benchmark's `online-q1-mitosis`
/// workload; the others run serial plans.
const QUERY_ROWS: [QueryRow; 3] = [
    QueryRow {
        row: "figure1",
        query: "FIGURE1",
        sql: queries::FIGURE1,
        partitions: 1,
        workers: 0,
    },
    QueryRow {
        row: "q1",
        query: "Q1",
        sql: queries::Q1,
        partitions: 1,
        workers: 0,
    },
    QueryRow {
        row: "q1_mitosis",
        query: "Q1",
        sql: queries::Q1,
        partitions: 8,
        workers: 2,
    },
];

/// Per `online/query/*` row: what its timed sessions received, summed.
#[derive(Default)]
struct Traffic {
    sessions: u64,
    datagrams: u64,
    events: u64,
    instructions: usize,
}

static TRAFFIC: Mutex<Vec<(&str, Traffic)>> = Mutex::new(Vec::new());

fn bench_online_queries(c: &mut Criterion) {
    let cat = catalog(0.002);
    let mut group = c.benchmark_group("online/query");
    group.sample_size(10);
    for r in &QUERY_ROWS {
        group.bench_with_input(BenchmarkId::from_parameter(r.row), r, |b, r| {
            let mut traffic = Traffic::default();
            b.iter(|| {
                let cfg = OnlineConfig {
                    pacing_ms: 0,
                    partitions: r.partitions,
                    workers: r.workers,
                    ..Default::default()
                };
                let out = OnlineSession::run(std::sync::Arc::clone(&cat), r.sql, &cfg).unwrap();
                std::fs::remove_file(&cfg.dot_path).ok();
                std::fs::remove_file(&cfg.trace_path).ok();
                traffic.sessions += 1;
                traffic.datagrams += out.transport.datagrams;
                traffic.events += out.events.len() as u64;
                traffic.instructions = out.plan.len();
                out.result_rows
            });
            TRAFFIC
                .lock()
                .expect("traffic tally poisoned")
                .push((r.row, traffic));
        });
    }
    group.finish();
}

/// The traffic fields of row `row`: per-session means over every
/// session it ran, warm-up included.
fn traffic_fields(row: &str) -> Vec<(String, serde_json::Value)> {
    let tally = TRAFFIC.lock().expect("traffic tally poisoned");
    let Some((_, t)) = tally.iter().find(|(r, _)| *r == row) else {
        return Vec::new();
    };
    let per_session = |n: u64| num(n as f64 / t.sessions.max(1) as f64);
    vec![
        (
            "datagrams_per_session".to_string(),
            per_session(t.datagrams),
        ),
        ("events_per_session".to_string(), per_session(t.events)),
        ("instructions".to_string(), int(t.instructions as i64)),
    ]
}

/// Map one criterion report path to its ledger descriptor fields.
fn describe(name: &str) -> Option<Vec<(String, serde_json::Value)>> {
    let (query, pacing, partitions, workers, traffic) = match name.split('/').collect::<Vec<_>>()[..]
    {
        ["online", "end_to_end", "pacing_ms", pacing] => {
            ("Q6", pacing.parse().ok()?, 2, 2, Vec::new())
        }
        ["online", "query", row] => {
            let r = QUERY_ROWS.iter().find(|r| r.row == row)?;
            let traffic = traffic_fields(row);
            (r.query, 0, r.partitions as i64, r.workers as i64, traffic)
        }
        _ => return None,
    };
    let mut fields = vec![
        ("bench".to_string(), text("online_session")),
        ("query".to_string(), text(query)),
        ("sf".to_string(), num(0.002)),
        ("pacing_ms".to_string(), int(pacing)),
        ("partitions".to_string(), int(partitions)),
        ("workers".to_string(), int(workers)),
    ];
    fields.extend(traffic);
    Some(fields)
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_online, bench_online_queries
}

fn main() {
    benches();
    // A session runs the listener, the query and the monitor on their
    // own threads, so its wall clock depends on the CPUs granted.
    ledger::record(describe);
}
