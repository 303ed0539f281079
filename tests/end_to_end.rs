//! End-to-end integration: SQL → algebra → MAL → optimizers → execution
//! → trace → dot → layout → SVG → session → replay, across crates.

use std::sync::Arc;

use stethoscope::core::{ColorState, OfflineSession, OnlineConfig, OnlineSession};
use stethoscope::dot::{parse_dot, plan_to_dot, LabelStyle};
use stethoscope::engine::{ExecOptions, Interpreter, ProfilerConfig, QueryResult, VecSink};
use stethoscope::profiler::{format_event, ChaosConfig, EventStatus};
use stethoscope::sql::{compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

fn catalog() -> Arc<stethoscope::engine::Catalog> {
    Arc::new(generate_catalog(&TpchConfig::sf(0.001)))
}

fn run_query(
    cat: &Arc<stethoscope::engine::Catalog>,
    sql: &str,
    partitions: usize,
    workers: usize,
) -> (
    stethoscope::mal::Plan,
    QueryResult,
    Vec<stethoscope::profiler::TraceEvent>,
) {
    let q = compile_with(cat, sql, &CompileOptions::with_partitions(partitions)).unwrap();
    let sink = VecSink::new();
    let opts = if workers > 1 {
        ExecOptions::parallel(workers, ProfilerConfig::to_sink(sink.clone()))
    } else {
        ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone()))
    };
    let out = Interpreter::new(Arc::clone(cat))
        .execute(&q.plan, &opts)
        .unwrap();
    (q.plan, out.result.expect("result"), sink.take())
}

fn same_result(a: &QueryResult, b: &QueryResult) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.columns.len(), b.columns.len());
    for ((na, ca), (nb, cb)) in a.columns.iter().zip(&b.columns) {
        assert_eq!(na, nb);
        assert_eq!(ca.len(), cb.len());
        for i in 0..ca.len() {
            let (va, vb) = (ca.get(i).unwrap(), cb.get(i).unwrap());
            match (va, vb) {
                (stethoscope::mal::Value::Dbl(x), stethoscope::mal::Value::Dbl(y)) => {
                    assert!((x - y).abs() < 1e-6, "{na}[{i}]: {x} vs {y}");
                }
                (x, y) => assert_eq!(x, y, "{na}[{i}]"),
            }
        }
    }
}

#[test]
fn every_tpch_query_consistent_across_execution_modes() {
    let cat = catalog();
    for (name, sql) in queries::all() {
        let (_, serial, _) = run_query(&cat, sql, 1, 1);
        let (_, parallel, _) = run_query(&cat, sql, 1, 4);
        let (_, mitosis, _) = run_query(&cat, sql, 4, 4);
        same_result(&serial, &parallel);
        same_result(&serial, &mitosis);
        assert!(serial.rows() > 0, "{name} returned no rows");
    }
}

/// Every intermediate is released after its last reader, so the trace
/// `rss` reports the live working set: on Q1 with 8 partitions it peaks
/// well below the sum of everything the instructions produce, and it
/// falls again before the query ends.
#[test]
fn q1_trace_rss_is_a_bounded_working_set() {
    let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.01)));
    // Serially, each instruction's rss rise from start to done is its own
    // output, so the rises sum to every byte the plan produces (KiB).
    let (_, _, serial) = run_query(&cat, queries::Q1, 8, 1);
    let produced: u64 = serial
        .chunks(2)
        .map(|pair| pair[1].rss.saturating_sub(pair[0].rss))
        .sum();
    // Serially the live set peaks near a quarter of that; four workers
    // keep several partitions' pipelines live at once (about half).
    let parallel = run_query(&cat, queries::Q1, 8, 4).2;
    for (workers, events, bound) in [(1, serial, produced / 2), (4, parallel, produced * 3 / 4)] {
        let base = events.first().unwrap().rss;
        let peak = events.iter().map(|e| e.rss).max().unwrap();
        let last = events.last().unwrap().rss;
        assert!(
            peak - base < bound,
            "{workers} workers: rss peaked {} KiB over base against {produced} KiB produced",
            peak - base
        );
        assert!(
            last < peak,
            "{workers} workers: final rss {last} KiB not below peak {peak} KiB"
        );
    }
}

#[test]
fn trace_pairs_complete_and_clocks_monotone_per_thread() {
    let cat = catalog();
    for partitions in [1usize, 4] {
        let (plan, _, events) = run_query(&cat, queries::Q6, partitions, 4);
        assert_eq!(events.len(), plan.len() * 2);
        // Per pc: exactly one start and one done, start before done.
        for pc in 0..plan.len() {
            let s: Vec<_> = events
                .iter()
                .filter(|e| e.pc == pc && e.status == EventStatus::Start)
                .collect();
            let d: Vec<_> = events
                .iter()
                .filter(|e| e.pc == pc && e.status == EventStatus::Done)
                .collect();
            assert_eq!((s.len(), d.len()), (1, 1), "pc {pc}");
            assert!(s[0].clk <= d[0].clk);
        }
    }
}

#[test]
fn dot_trace_contract_holds_for_generated_plans() {
    let cat = catalog();
    let (plan, _, events) = run_query(&cat, queries::Q3, 1, 1);
    let dot = plan_to_dot(&plan, LabelStyle::FullStatement);
    let graph = parse_dot(&dot).unwrap();
    assert_eq!(graph.node_count(), plan.len());
    // Every trace stmt matches its dot node label (the §3.3 contract).
    let map = stethoscope::core::TraceDotMap::from_graph(&graph);
    for e in &events {
        assert!(map.stmt_matches(e.pc, &e.stmt), "pc {}: {}", e.pc, e.stmt);
    }
}

#[test]
fn offline_session_over_real_query_artifacts() {
    let cat = catalog();
    let (plan, _, events) = run_query(&cat, queries::Q1, 2, 2);
    let dot = plan_to_dot(&plan, LabelStyle::FullStatement);
    let trace: Vec<String> = events.iter().map(format_event).collect();
    let mut s = OfflineSession::load_text(&dot, &trace.join("\n")).unwrap();
    assert_eq!(s.view.scene.nodes.len(), plan.len());

    // Walk the whole trace step by step, then verify every instruction
    // completed.
    while s.step() {}
    for pc in 0..plan.len() {
        assert_eq!(s.replay.node(pc).dones, 1, "pc {pc}");
    }
    // The rendered frame mentions real operators.
    let svg = s.render_frame_svg();
    assert!(svg.contains("aggr.subsum"));
}

#[test]
fn offline_replay_rewind_matches_fresh_session() {
    let cat = catalog();
    let (plan, _, events) = run_query(&cat, queries::Q6, 2, 1);
    let dot = plan_to_dot(&plan, LabelStyle::FullStatement);
    let trace: Vec<String> = events.iter().map(format_event).collect();
    let text = trace.join("\n");

    let mut a = OfflineSession::load_text(&dot, &text).unwrap();
    a.run_to_end();
    a.seek(7);
    let mut b = OfflineSession::load_text(&dot, &text).unwrap();
    b.seek(7);
    for pc in 0..plan.len() {
        assert_eq!(a.replay.node(pc), b.replay.node(pc), "pc {pc}");
    }
}

/// Replay the dot and trace files an online session wrote: same event
/// sequence, and after running to the end and draining the EDT, every
/// node's state and glyph fill equal the session's final colors.
/// Returns the trace length.
fn assert_offline_replay_matches(sql: &str, cfg: &OnlineConfig) -> usize {
    let out = OnlineSession::run(catalog(), sql, cfg).unwrap();
    let mut offline = OfflineSession::load_files(&cfg.dot_path, &cfg.trace_path).unwrap();
    std::fs::remove_file(&cfg.dot_path).ok();
    std::fs::remove_file(&cfg.trace_path).ok();
    assert_eq!(offline.replay.len(), out.events.len());
    for (a, b) in offline.replay.events().iter().zip(&out.events) {
        assert_eq!(a, b);
    }
    offline.run_to_end();
    while offline.edt.backlog() > 0 {
        offline.advance_ms(10_000);
    }
    for pc in 0..out.plan.len() {
        let state = out
            .final_states
            .get(&pc)
            .copied()
            .unwrap_or(ColorState::Uncolored);
        assert_eq!(offline.node_state(pc), state, "pc {pc}");
        let glyph = offline.view.map.shape_of_pc(pc).expect("node per pc");
        assert_eq!(
            offline.view.space.glyph(glyph).color,
            state.fill(),
            "pc {pc} fill"
        );
    }
    out.events.len()
}

#[test]
fn online_session_matches_offline_analysis() {
    let _ = assert_offline_replay_matches(
        queries::Q6,
        &OnlineConfig {
            pacing_ms: 0,
            partitions: 2,
            workers: 2,
            ..Default::default()
        },
    );
    let cfg = OnlineConfig {
        pacing_ms: 0,
        partitions: 8,
        chaos: Some(ChaosConfig::clean(8)),
        ..Default::default()
    };
    let len = assert_offline_replay_matches(queries::Q1, &cfg);
    assert!(
        len > cfg.sample_capacity,
        "trace outgrows the sample window"
    );
}

#[test]
fn pruning_shrinks_graph_but_preserves_plan_nodes() {
    // Build a plan, decorate it with administrative instructions via the
    // textual form, and prune.
    let text = r#"
function user.p();
    X_0:int := sql.mvc();
    X_1:bat[:oid] := sql.tid(X_0, "sys", "lineitem");
    language.pass(X_1);
    querylog.define("q");
end user.p;
"#;
    let plan = stethoscope::mal::parse_plan(text).unwrap();
    let dot = plan_to_dot(&plan, LabelStyle::FullStatement);
    let graph = parse_dot(&dot).unwrap();
    let (pruned, removed) = stethoscope::core::prune::prune_administrative(&graph);
    assert_eq!(removed.len(), 2);
    assert_eq!(pruned.node_count(), 2);
}

#[test]
fn every_generated_plan_passes_registry_validation() {
    // The ModuleRegistry documents everything the engine implements;
    // the code generator must never emit a call outside it, for any
    // query, with or without mitosis.
    let cat = catalog();
    let registry = stethoscope::mal::ModuleRegistry::standard();
    for (name, sql) in queries::all() {
        for partitions in [1usize, 4] {
            let q = compile_with(&cat, sql, &CompileOptions::with_partitions(partitions))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            registry
                .check_plan(&q.plan)
                .unwrap_or_else(|e| panic!("{name} (partitions={partitions}): {e}"));
            registry
                .check_plan(&q.unoptimized)
                .unwrap_or_else(|e| panic!("{name} unoptimized: {e}"));
        }
    }
}

#[test]
fn figure1_plan_is_paper_shaped() {
    let cat = catalog();
    let (plan, result, _) = run_query(&cat, queries::FIGURE1, 1, 1);
    let ops: Vec<String> = plan
        .instructions
        .iter()
        .map(|i| i.qualified_name())
        .collect();
    assert_eq!(
        ops,
        vec![
            "sql.mvc",
            "sql.tid",
            "sql.bind",
            "algebra.select",
            "sql.bind",
            "algebra.projection",
            "sql.resultSet"
        ],
        "Figure-1 canonical instruction sequence"
    );
    assert!(result.column("l_tax").is_some());
}
