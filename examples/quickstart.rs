//! Quickstart — reproduces the paper's Figure 1 (the MAL plan of
//! `select l_tax from lineitem where l_partkey=1`) and Figure 3 (its
//! execution trace), then replays the trace through the Stethoscope.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Pass `--verify` to statically check the plan (malcheck) and print
//! the rendered report before executing it.

use std::sync::Arc;

use stethoscope::core::OfflineSession;
use stethoscope::dot::{plan_to_dot, LabelStyle};
use stethoscope::engine::{ExecOptions, Interpreter, ProfilerConfig, VecSink};
use stethoscope::profiler::format_event;
use stethoscope::sql::compile;
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

fn main() {
    // A small TPC-H instance (≈6000 lineitem rows at sf 0.001).
    let catalog = Arc::new(generate_catalog(&TpchConfig::sf(0.001)));

    // ---- Figure 1: the MAL plan -------------------------------------
    let q = compile(&catalog, queries::FIGURE1).expect("figure-1 query compiles");
    stethoscope::verify_plan("figure-1", &q.plan);
    println!("=== SQL ===\n{}\n", queries::FIGURE1);
    println!("=== Relational algebra ===\n{}", q.algebra);
    println!("=== MAL plan (Figure 1) ===\n{}", q.plan.listing());
    println!("=== Optimizer pipeline ===");
    for p in &q.passes {
        println!(
            "  {:<10} {:>4} -> {:>4} instructions",
            p.name, p.before, p.after
        );
    }

    // ---- Figure 3: the execution trace ------------------------------
    let sink = VecSink::new();
    let interp = Interpreter::new(Arc::clone(&catalog));
    let out = interp
        .execute(
            &q.plan,
            &ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone())),
        )
        .expect("query executes");
    let events = sink.take();
    println!("\n=== Execution trace (Figure 3) ===");
    for e in &events {
        println!("{}", format_event(e));
    }
    let result = out.result.expect("result set");
    println!(
        "\n=== Result ({} rows, {:?}) ===\n{}",
        result.rows(),
        out.elapsed,
        result.to_table(5)
    );

    // ---- Stethoscope replay ------------------------------------------
    let dot = plan_to_dot(&q.plan, LabelStyle::FullStatement);
    let trace: Vec<String> = events.iter().map(format_event).collect();
    let mut session = OfflineSession::load_text(&dot, &trace.join("\n")).expect("session loads");
    println!(
        "=== Stethoscope ===\nplan graph: {} nodes, {} edges; trace: {} events",
        session.view.scene.nodes.len(),
        session.graph.edge_count(),
        session.replay.len()
    );
    // Step halfway through and inspect the instruction under analysis.
    let half = session.replay.len() / 2;
    session.seek(half);
    session.advance_ms(60_000); // let the paced renders land
    if let Some(e) = session.replay.events().get(half.saturating_sub(1)) {
        if let Some(tip) = session.tooltip(e.pc) {
            println!("\n--- tooltip at replay midpoint ---\n{}", tip.render());
        }
    }
    session.run_to_end();
    println!(
        "replay complete: {} events applied",
        session.replay.position()
    );
}
