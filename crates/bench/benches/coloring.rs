//! Experiments A1 / A2 / X1 / C2 — the run-time coloring algorithms:
//! pair-elision over sample-buffer snapshots (A1) and kept incrementally
//! over a sliding window as the online monitor does, the user-threshold
//! streaming variant (A2), and the §6 gradient extension (X1). C2
//! (color-coded monitoring) is the combination measured end-to-end in
//! `online_session`.
//!
//! Every mean is upserted into the `BENCH_engine.json` ledger at the
//! repository root.

use std::collections::HashMap;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use stetho_bench::ledger::{self, text};
use stetho_bench::synthetic_trace;
use stetho_core::{ColorState, ElisionWindow, GradientColoring, PairElision, ThresholdColoring};

fn bench_pair_elision(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring/pair_elision");
    for size in [64usize, 256, 1024, 4096] {
        let buffer = synthetic_trace(size / 2, 4, 7);
        group.throughput(Throughput::Elements(buffer.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &buffer, |b, buf| {
            b.iter(|| PairElision.analyse(buf).len())
        });
    }
    group.finish();
}

fn bench_pair_elision_diff(c: &mut Criterion) {
    // The per-event online path: re-analysing the window after each
    // arrival (what §4.2 does against the sample buffer) and diffing it
    // against what is painted.
    let window = synthetic_trace(128, 4, 7);
    let painted = HashMap::new();
    c.bench_function("coloring/pair_elision_diff_256", |b| {
        b.iter(|| PairElision.diff(&window, &painted).len())
    });
}

fn bench_incremental_push(c: &mut Criterion) {
    // The same per-event step kept incrementally: push one event into a
    // full 256-event window and collect the round's changes. Each
    // iteration pushes the next event of a long trace, so the window
    // slides and evicts as it does online.
    let trace = synthetic_trace(4096, 4, 7);
    let mut window = ElisionWindow::new(256, trace.len() / 2);
    let mut painted = vec![ColorState::Uncolored; trace.len() / 2];
    let mut changes = Vec::new();
    let mut next = trace.iter().cycle();
    c.bench_function("coloring/incremental_push_256", |b| {
        b.iter(|| {
            let e = next.next().expect("cycle never ends");
            window.push(e.pc, e.status);
            changes.clear();
            window.changes(|pc| painted[pc], &mut changes);
            for ch in &changes {
                painted[ch.pc] = ch.state;
            }
            changes.len()
        })
    });
}

fn bench_threshold(c: &mut Criterion) {
    let events = synthetic_trace(5_000, 4, 9);
    let mut group = c.benchmark_group("coloring/threshold");
    group.throughput(Throughput::Elements(events.len() as u64));
    for threshold in [100u64, 1_000, 10_000] {
        let mut probe = ThresholdColoring::new(threshold, events.len() / 2);
        let flagged = events
            .iter()
            .filter_map(|e| probe.on_event(e))
            .filter(|c| matches!(c.state, ColorState::Red))
            .count();
        eprintln!("[threshold_coloring] {threshold}µs flags {flagged} instructions");
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &t| {
                b.iter(|| {
                    let mut alg = ThresholdColoring::new(t, events.len() / 2);
                    events.iter().filter_map(|e| alg.on_event(e)).count()
                })
            },
        );
    }
    group.finish();
}

fn bench_gradient(c: &mut Criterion) {
    let events = synthetic_trace(5_000, 4, 9);
    c.bench_function("coloring/gradient", |b| {
        b.iter(|| {
            let mut g = GradientColoring::new(events.len() / 2);
            events.iter().filter_map(|e| g.on_event(e)).count()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pair_elision, bench_pair_elision_diff, bench_incremental_push,
        bench_threshold, bench_gradient
}

/// Map one criterion report path to its ledger descriptor fields.
fn describe(name: &str) -> Option<Vec<(String, serde_json::Value)>> {
    let algorithm = name.strip_prefix("coloring/")?.split('/').next()?;
    Some(vec![
        ("bench".to_string(), text("coloring")),
        ("algorithm".to_string(), text(algorithm)),
    ])
}

fn main() {
    benches();
    ledger::record(describe);
}
