//! Multi-core utilisation analysis (§5) — thread utilisation, memory by
//! operator, costly-instruction clustering, serial-vs-parallel
//! comparison, and the paper's reported anomaly: "sequential execution
//! of a MAL plan where multithreaded execution was expected".
//!
//! Run with: `cargo run --release --example multicore_analysis`
//!
//! Pass `--verify` to statically check the plan (malcheck) and print
//! the rendered report before executing it.

use std::sync::Arc;

use stethoscope::core::analysis::{
    cluster_durations, detect_parallelism_anomaly, diff_traces, memory_by_operator, micro_stats,
    thread_utilisation, threads::observed_concurrency,
};
use stethoscope::engine::{ExecOptions, Interpreter, ProfilerConfig, VecSink};
use stethoscope::profiler::TraceEvent;
use stethoscope::sql::opt::mitosis::{scanned_rows, GROUPED_MIN_ROWS};
use stethoscope::sql::{compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

fn run(
    interp: &Interpreter,
    plan: &stethoscope::mal::Plan,
    parallel: Option<usize>,
) -> Vec<TraceEvent> {
    let sink = VecSink::new();
    let opts = match parallel {
        Some(w) => ExecOptions::parallel(w, ProfilerConfig::to_sink(sink.clone())),
        None => ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone())),
    };
    interp.execute(plan, &opts).expect("query executes");
    sink.take()
}

fn main() {
    let catalog = Arc::new(generate_catalog(&TpchConfig::sf(0.01)));
    let interp = Interpreter::new(Arc::clone(&catalog));
    println!(
        "catalog: {} lineitem rows\n",
        catalog.table("lineitem").unwrap().rows()
    );

    // A wide (8-way mitosis) Q1 plan.
    let q = compile_with(&catalog, queries::Q1, &CompileOptions::with_partitions(8))
        .expect("Q1 compiles");
    stethoscope::verify_plan("q1-mitosis-8", &q.plan);
    println!("Q1 mitosis plan: {} instructions", q.plan.len());
    // Mitosis groups per partition and packs only the partials once a
    // partition holds GROUPED_MIN_ROWS rows; below that it packs full
    // columns and groups them in one serial tail.
    let per_partition = scanned_rows(&catalog, &q.unoptimized) / 8;
    let grouped = q
        .plan
        .instructions
        .iter()
        .filter(|i| i.qualified_name() == "group.group")
        .count()
        > 1;
    println!(
        "grouped rewrite: {} ({per_partition} rows per partition, gate {GROUPED_MIN_ROWS})",
        if grouped { "fired" } else { "not fired" }
    );

    // ---- D7: serial vs parallel execution of the same plan ----------
    let t0 = std::time::Instant::now();
    let serial_trace = run(&interp, &q.plan, None);
    let serial_time = t0.elapsed();
    let t0 = std::time::Instant::now();
    let parallel_trace = run(&interp, &q.plan, Some(8));
    let parallel_time = t0.elapsed();
    println!(
        "\nserial   : {serial_time:?}\nparallel : {parallel_time:?} ({}x)",
        serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9)
    );

    // ---- D1: thread utilisation distribution ------------------------
    println!("\n--- thread utilisation (parallel run) ---");
    for t in thread_utilisation(&parallel_trace) {
        let bar = "#".repeat((t.utilisation * 40.0).min(60.0) as usize);
        println!(
            "thread {:>2}: {:>4} instr {:>9} µs |{bar}",
            t.thread, t.instructions, t.busy_usec
        );
    }
    println!(
        "observed concurrency: serial={} parallel={}",
        observed_concurrency(&serial_trace),
        observed_concurrency(&parallel_trace)
    );

    // ---- D2: memory usage by operators -------------------------------
    println!("\n--- memory by operator (top 8) ---");
    for m in memory_by_operator(&parallel_trace).into_iter().take(8) {
        println!(
            "{:<22} count {:>4}  peak {:>8} KiB  mean {:>10.1} KiB  max growth {:>8}",
            m.operator, m.count, m.peak_rss, m.mean_rss, m.max_growth
        );
    }

    // ---- D3: costly instruction clustering ---------------------------
    println!("\n--- duration clusters ---");
    for (i, c) in cluster_durations(&parallel_trace, 3).iter().enumerate() {
        println!(
            "cluster {i}: {:>4} instructions, {:>8.0} µs mean ({}..{} µs)",
            c.members.len(),
            c.mean_usec,
            c.min_usec,
            c.max_usec
        );
    }

    // ---- §6 extension: per-operator micro statistics ------------------
    println!("\n--- micro stats (top 5 by total time) ---");
    for s in micro_stats(&parallel_trace).into_iter().take(5) {
        println!(
            "{:<22} n={:<5} total {:>9} µs  p50 {:>6} µs  p95 {:>6} µs  max {:>7} µs",
            s.operator, s.count, s.total_usec, s.p50_usec, s.p95_usec, s.max_usec
        );
    }

    // ---- trace diff: where did parallel execution change costs? ------
    println!("\n--- serial → parallel trace diff (top movers) ---");
    let d = diff_traces(&serial_trace, &parallel_trace);
    println!(
        "total instruction time: {} µs serial vs {} µs parallel",
        d.base_total, d.new_total
    );
    for r in d.top_regressions(3) {
        println!(
            "  pc {:>3} +{:>7} µs  {}",
            r.pc,
            r.delta_usec.unwrap_or(0),
            &r.stmt[..r.stmt.len().min(60)]
        );
    }
    for r in d.top_improvements(3) {
        println!(
            "  pc {:>3} {:>8} µs  {}",
            r.pc,
            r.delta_usec.unwrap_or(0),
            &r.stmt[..r.stmt.len().min(60)]
        );
    }

    // ---- D8: the paper's anomaly -------------------------------------
    // The serial run of the wide plan is exactly "sequential execution
    // of a MAL plan where multithreaded execution was expected".
    println!("\n--- parallelism anomaly detection ---");
    let serial_report = detect_parallelism_anomaly(&q.plan, &serial_trace, 4);
    println!("serial run  : {}", serial_report.verdict);
    assert!(serial_report.anomalous, "serial wide plan must be flagged");
    let parallel_report = detect_parallelism_anomaly(&q.plan, &parallel_trace, 4);
    println!("parallel run: {}", parallel_report.verdict);
}
