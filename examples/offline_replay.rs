//! Offline analysis demo (§4.1 / §5) — the trace-replay features:
//! step-by-step walk-through, fast-forward/rewind/pause, costly-
//! instruction coloring between two instruction states, trace filtering,
//! the birds-eye view, and the Figure-4 display-window frame (written to
//! disk as SVG/PPM).
//!
//! Run with: `cargo run --release --example offline_replay`
//!
//! Pass `--verify` to statically check the plan (malcheck) and print
//! the rendered report before executing it.

use std::path::PathBuf;
use std::sync::Arc;

use stethoscope::core::inspect::DebugWindow;
use stethoscope::core::OfflineSession;
use stethoscope::dot::{plan_to_dot, LabelStyle};
use stethoscope::engine::{ExecOptions, Interpreter, ProfilerConfig, VecSink};
use stethoscope::profiler::{format_event, FilterOptions, TraceFile};
use stethoscope::sql::{compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

fn main() {
    let out_dir = PathBuf::from("target/stethoscope-demo");
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    // Produce the "preexisting dot file and trace file" offline mode
    // needs: run TPC-H Q6 with a 4-way mitosis plan and capture both.
    let catalog = Arc::new(generate_catalog(&TpchConfig::sf(0.002)));
    let q = compile_with(&catalog, queries::Q6, &CompileOptions::with_partitions(4))
        .expect("Q6 compiles");
    stethoscope::verify_plan("q6-mitosis-4", &q.plan);
    let sink = VecSink::new();
    Interpreter::new(Arc::clone(&catalog))
        .execute(
            &q.plan,
            &ExecOptions::parallel(4, ProfilerConfig::to_sink(sink.clone())),
        )
        .expect("Q6 executes");
    let events = sink.take();

    let dot_path = out_dir.join("q6.dot");
    let trace_path = out_dir.join("q6.trace");
    std::fs::write(&dot_path, plan_to_dot(&q.plan, LabelStyle::FullStatement)).unwrap();
    TraceFile::new(&trace_path).write(&events).unwrap();
    println!(
        "wrote {} ({} nodes) and {} ({} events)",
        dot_path.display(),
        q.plan.len(),
        trace_path.display(),
        events.len()
    );

    // ---- load the offline session from the files --------------------
    let mut session = OfflineSession::load_files(&dot_path, &trace_path).unwrap();

    // Step-by-step walk-through of the first few instructions.
    println!("\n--- step-by-step ---");
    for _ in 0..6 {
        session.step();
        session.advance_ms(200);
    }
    println!("cursor at event {}", session.replay.position());

    // Fast-forward at 50× trace speed, pause, then resume.
    println!("\n--- fast-forward / pause ---");
    session.replay.play(50.0);
    let applied = session.replay.tick(100_000.0);
    println!("ffwd applied {} events", applied.len());
    session.replay.pause();

    // Costly-instruction coloring between two instruction states.
    let lo = session.replay.position().saturating_sub(16);
    let hi = session.replay.position();
    println!("\n--- coloring between events {lo} and {hi} ---");
    let colors = session.replay.colors_between(lo, hi);
    let mut colored: Vec<_> = colors
        .iter()
        .filter(|(_, s)| !matches!(s, stethoscope::core::ColorState::Uncolored))
        .collect();
    colored.sort_by_key(|(pc, _)| **pc);
    for (pc, state) in colored {
        println!("  pc {pc:>3} -> {state:?}");
    }

    // Finish, then render the Figure-4 display window.
    session.run_to_end();
    session.advance_ms(1_000_000);
    let frame_svg = out_dir.join("display_window.svg");
    std::fs::write(&frame_svg, session.render_frame_svg()).unwrap();
    let frame_ppm = out_dir.join("display_window.ppm");
    std::fs::write(&frame_ppm, session.render_frame(1280, 800).to_ppm()).unwrap();
    println!(
        "\nwrote {} and {}",
        frame_svg.display(),
        frame_ppm.display()
    );

    // Birds-eye views (§5).
    let bird = out_dir.join("birdseye.ppm");
    std::fs::write(&bird, session.birdseye(320, 200).to_ppm()).unwrap();
    let strip = out_dir.join("trace_overview.ppm");
    std::fs::write(&strip, session.trace_overview(640, 24).to_ppm()).unwrap();
    println!("wrote {} and {}", bird.display(), strip.display());

    // Debug window over the three slowest instructions.
    let mut slowest: Vec<_> = session
        .replay
        .nodes()
        .map(|(pc, rt)| (rt.total_usec, pc))
        .collect();
    slowest.sort_unstable_by(|a, b| b.cmp(a));
    let mut dbg = DebugWindow::new("slowest instructions");
    for &(_, pc) in slowest.iter().take(3) {
        dbg.watch(pc);
    }
    println!("\n{}", dbg.render(&session.view.map, &session.replay));

    // Filtered reload (§3 feature 4): algebra module only.
    let filter = FilterOptions::all().with_module("algebra");
    let filtered = OfflineSession::load_filtered(
        &std::fs::read_to_string(&dot_path).unwrap(),
        &events
            .iter()
            .map(format_event)
            .collect::<Vec<_>>()
            .join("\n"),
        &filter,
    )
    .unwrap();
    println!(
        "filtered session (algebra only): {} of {} events",
        filtered.replay.len(),
        events.len()
    );
}
