//! Deterministic chaos tests: a full online session driven through a
//! seeded in-memory [`ChaosLink`] that drops, truncates, duplicates,
//! and reorders datagrams on a fixed schedule. Every run must
//! terminate, converge visually (no node left RED — each is GREEN or
//! written off to a *reported* `Lost` gap), and reconcile the
//! receiver's [`TransportStats`] exactly against the link's ground
//! truth — no fault may go unaccounted. A datagram carries several
//! frames and the receiver sequences frames, so the reconciliation is
//! at frame granularity, using the link's per-frame counts.
//!
//! Seeds are fixed so failures are replayable: rerun with
//! `cargo test --test chaos_transport` and the same per-datagram fault
//! schedule unfolds. Which frames share a datagram depends on how the
//! engine's worker threads interleave their sends, so the frames a fault
//! strikes can differ between runs; the reconciliation holds for any
//! packing.
//! On failure, the rendered transport/report pair for each seed is in
//! `target/chaos/` (uploaded by the CI chaos job).

use std::sync::Arc;

use stethoscope::core::{ColorState, OnlineConfig, OnlineSession};
use stethoscope::engine::{Bat, Catalog, TableDef};
use stethoscope::mal::MalType;
use stethoscope::profiler::chaos::ChaosConfig;

/// The ISSUE's fixed seed set; the CI chaos job runs one process per
/// seed via `CHAOS_SEED`.
const SEEDS: [u64; 4] = [1, 7, 23, 42];

fn catalog(rows: i64) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.add_table(
        TableDef::new(
            "lineitem",
            vec![
                (
                    "l_partkey".into(),
                    MalType::Int,
                    Bat::ints((0..rows).map(|i| i % 10).collect()),
                ),
                (
                    "l_tax".into(),
                    MalType::Dbl,
                    Bat::dbls((0..rows).map(|i| i as f64 * 0.001).collect()),
                ),
            ],
        )
        .unwrap(),
    );
    Arc::new(c)
}

/// Render both sides of the ledger to `target/chaos/` so a failing CI
/// run can upload what actually happened on this seed.
fn dump_artifact(seed: u64, out: &stethoscope::core::OnlineOutcome) {
    let dir = std::path::Path::new("target/chaos");
    std::fs::create_dir_all(dir).ok();
    let body = format!(
        "seed: {seed}\nplan instructions: {}\n{}\nlink ground truth: {:?}\n\
         lost gaps: {:?}\ngarbled lines: {}\nsynthesized dones: {}\n\
         dot degraded: {}\nprogress: {:?}\n",
        out.plan.len(),
        out.transport,
        out.chaos_report,
        out.lost_gaps,
        out.garbled_lines,
        out.synthesized_dones,
        out.dot_degraded,
        out.progress,
    );
    std::fs::write(dir.join(format!("seed_{seed}.txt")), body).ok();
}

fn run_seed(seed: u64) {
    // 64-way mitosis over the Figure-1 query gives a wide plan — the
    // ISSUE demands ≥200 instructions so gaps land mid-stream, not
    // only at the edges.
    let cfg = OnlineConfig {
        partitions: 64,
        workers: 4,
        pacing_ms: 0,
        chaos: Some(ChaosConfig::hostile(seed)),
        ..Default::default()
    };
    let out = OnlineSession::run(
        catalog(64_000),
        "select l_tax from lineitem where l_partkey = 1",
        &cfg,
    )
    .unwrap_or_else(|e| panic!("seed {seed}: session must terminate cleanly, got {e}"));
    dump_artifact(seed, &out);
    std::fs::remove_file(&cfg.trace_path).ok();
    std::fs::remove_file(&cfg.dot_path).ok();

    assert!(
        out.plan.len() >= 200,
        "seed {seed}: plan too narrow ({} instructions)",
        out.plan.len()
    );
    // The query itself is never affected by transport faults.
    assert_eq!(out.result_rows, 6_400, "seed {seed}");

    // Visual convergence: nothing may be left RED. Every instruction
    // is GREEN (done observed or synthesized) or written off as Lost —
    // and anything written off must be covered by a reported gap.
    for (pc, state) in &out.final_states {
        assert_ne!(
            *state,
            ColorState::Red,
            "seed {seed}: pc {pc} stuck RED after convergence"
        );
    }
    assert_eq!(
        out.progress.fraction, 1.0,
        "seed {seed}: progress must account for every instruction: {:?}",
        out.progress
    );
    assert_eq!(out.progress.running, 0, "seed {seed}");
    assert_eq!(
        out.progress.done + out.progress.lost,
        out.plan.len(),
        "seed {seed}"
    );
    if out.progress.lost > 0 || out.synthesized_dones > 0 {
        assert!(
            !out.lost_gaps.is_empty(),
            "seed {seed}: degraded picture without a reported Lost gap"
        );
    }
    // Exact reconciliation: receiver counters vs link ground truth.
    let t = out.transport;
    let r = out.chaos_report.expect("chaos mode reports ground truth");
    assert_eq!(
        t.lost + r.frames_invisible_tail,
        r.frames_dropped + r.frames_truncated,
        "seed {seed}: every frame of a destroyed datagram is in a reported \
         gap or an invisible tail\n{t}\n{r:?}"
    );
    assert_eq!(t.garbled, r.truncated, "seed {seed}: {t}\n{r:?}");
    assert_eq!(t.duplicated, r.frames_duplicated, "seed {seed}: {t}\n{r:?}");
    assert_eq!(t.reordered, r.frames_reordered, "seed {seed}: {t}\n{r:?}");
    assert_eq!(
        t.received,
        r.frames_delivered - r.frames_truncated,
        "seed {seed}: every frame of an intact delivery was received\n{t}\n{r:?}"
    );
    assert_eq!(
        t.datagrams, r.delivered,
        "seed {seed}: every delivered datagram was decoded\n{t}\n{r:?}"
    );
    assert_eq!(t.dropped_backpressure, 0, "seed {seed}: ring never filled");
    // The hostile schedule actually bit on this stream.
    assert!(
        t.lost + t.duplicated + t.reordered + t.garbled > 0,
        "seed {seed}: chaos schedule produced no observable fault\n{t}"
    );
}

#[test]
fn hostile_seed_1_converges_and_reconciles() {
    run_seed(SEEDS[0]);
}

#[test]
fn hostile_seed_7_converges_and_reconciles() {
    run_seed(SEEDS[1]);
}

#[test]
fn hostile_seed_23_converges_and_reconciles() {
    run_seed(SEEDS[2]);
}

#[test]
fn hostile_seed_42_converges_and_reconciles() {
    run_seed(SEEDS[3]);
}

/// `CHAOS_SEED` lets CI (or a human) probe an arbitrary seed without
/// editing the fixed set.
#[test]
fn hostile_env_seed_converges_and_reconciles() {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        run_seed(s.parse().expect("CHAOS_SEED must be a u64"));
    }
}

/// A clean (fault-free) chaos link must behave exactly like loopback
/// UDP: full trace, no degradation, zeroed fault counters.
#[test]
fn clean_link_is_transparent() {
    let cfg = OnlineConfig {
        partitions: 4,
        pacing_ms: 0,
        chaos: Some(ChaosConfig::clean(5)),
        ..Default::default()
    };
    let out =
        OnlineSession::run(catalog(500), "select sum(l_tax) as s from lineitem", &cfg).unwrap();
    std::fs::remove_file(&cfg.trace_path).ok();
    std::fs::remove_file(&cfg.dot_path).ok();
    assert_eq!(out.events.len(), out.plan.len() * 2);
    assert_eq!(out.synthesized_dones, 0);
    assert!(!out.dot_degraded);
    assert!(out.lost_gaps.is_empty());
    let t = out.transport;
    assert_eq!(t.lost + t.duplicated + t.reordered + t.garbled, 0, "{t}");
    let r = out.chaos_report.unwrap();
    assert_eq!(t.received, r.frames_delivered);
    assert_eq!(t.datagrams, r.delivered);
    assert_eq!(r.dropped + r.truncated + r.duplicated + r.reordered, 0);
}
