//! Property-based invariant tests on the core algorithms: §4.2.1
//! pair-elision coloring, EDT pacing, camera projection, layout
//! layering, replay determinism, and BAT operator identities.

use proptest::prelude::*;

use stethoscope::core::color::{ColorState, PairElision};
use stethoscope::core::{InstrState, ProgressModel, ReplayController};
use stethoscope::engine::rt::RuntimeValue;
use stethoscope::engine::{ops, Bat, Catalog, ExecCtx};
use stethoscope::layout::{layout, LayoutOptions};
use stethoscope::mal::{parse_plan, DataflowGraph, Value};
use stethoscope::profiler::{EventStatus, TraceEvent};
use stethoscope::zvtm::{Camera, Color, EventDispatchThread, GlyphId};

fn ev(status: EventStatus, pc: usize, clk: u64) -> TraceEvent {
    TraceEvent {
        event: 0,
        status,
        pc,
        thread: 0,
        clk,
        usec: 0,
        rss: 0,
        stmt: format!("X_{pc} := f.g();"),
    }
}

/// A random trace: interleavings of start/done with each done following
/// its start.
fn arb_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0usize..12, any::<bool>()), 0..60).prop_map(|ops| {
        let mut running = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut clk = 0;
        for (pc, want_done) in ops {
            clk += 7;
            if want_done && running.contains(&pc) {
                running.remove(&pc);
                out.push(ev(EventStatus::Done, pc, clk));
            } else if !running.contains(&pc) {
                running.insert(pc);
                out.push(ev(EventStatus::Start, pc, clk));
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An all-immediate-pairs prefix is never colored RED.
    #[test]
    fn pair_elision_sequential_pairs_never_red(pcs in proptest::collection::vec(0usize..20, 1..20)) {
        let mut buffer = Vec::new();
        let mut clk = 0;
        for &pc in &pcs {
            clk += 2;
            buffer.push(ev(EventStatus::Start, pc, clk));
            buffer.push(ev(EventStatus::Done, pc, clk + 1));
        }
        let states = PairElision.analyse(&buffer);
        for (&pc, &s) in &states {
            prop_assert_ne!(s, ColorState::Red, "pc {} red in a fully paired trace", pc);
        }
    }

    /// Any instruction whose start is followed by a different event (and
    /// which never completes in the buffer) must be RED.
    #[test]
    fn pair_elision_unpaired_nonfinal_start_is_red(trace in arb_trace()) {
        let states = PairElision.analyse(&trace);
        for (i, e) in trace.iter().enumerate() {
            if e.status != EventStatus::Start || i + 1 >= trace.len() {
                continue;
            }
            let next_is_own_done =
                trace[i + 1].status == EventStatus::Done && trace[i + 1].pc == e.pc;
            let completes_later = trace[i + 1..]
                .iter()
                .any(|x| x.status == EventStatus::Done && x.pc == e.pc);
            if !next_is_own_done && !completes_later {
                prop_assert_eq!(
                    states.get(&e.pc).copied(),
                    Some(ColorState::Red),
                    "pc {} started, never finished, but not red", e.pc
                );
            }
        }
    }

    /// A done event always leaves its node non-RED.
    #[test]
    fn pair_elision_done_clears_red(trace in arb_trace()) {
        let states = PairElision.analyse(&trace);
        let mut last_status = std::collections::HashMap::new();
        for e in &trace {
            last_status.insert(e.pc, e.status);
        }
        for (&pc, &status) in &last_status {
            if status == EventStatus::Done {
                prop_assert_ne!(
                    states.get(&pc).copied().unwrap_or(ColorState::Uncolored),
                    ColorState::Red,
                    "pc {} finished but is red", pc
                );
            }
        }
    }

    /// EDT: consecutive dispatches are never closer than the pacing.
    #[test]
    fn edt_pacing_always_respected(
        pacing in 1u64..500,
        arrivals in proptest::collection::vec(0u64..2_000, 1..80),
    ) {
        let mut edt = EventDispatchThread::new(pacing);
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let mut dispatched = Vec::new();
        for (i, &at) in arrivals.iter().enumerate() {
            edt.enqueue(GlyphId(i), Color::RED, at);
            dispatched.extend(edt.advance(at));
        }
        dispatched.extend(edt.flush());
        prop_assert_eq!(dispatched.len(), arrivals.len());
        for w in dispatched.windows(2) {
            prop_assert!(w[1].at >= w[0].at + pacing, "gap {} < pacing {}", w[1].at - w[0].at, pacing);
        }
        // No op dispatched before it arrived.
        for d in &dispatched {
            prop_assert!(d.at >= d.op.enqueued_at);
        }
    }

    /// Camera: unproject ∘ project = identity at any pose.
    #[test]
    fn camera_projection_invertible(
        cx in -1e5f64..1e5, cy in -1e5f64..1e5,
        alt in 0.0f64..1e5,
        wx in -1e5f64..1e5, wy in -1e5f64..1e5,
    ) {
        let cam = Camera::at(cx, cy, alt);
        let (sx, sy) = cam.project(wx, wy, 800.0, 600.0);
        let (bx, by) = cam.unproject(sx, sy, 800.0, 600.0);
        prop_assert!((bx - wx).abs() < 1e-4);
        prop_assert!((by - wy).abs() < 1e-4);
    }

    /// Layout of a random DAG: edges always point to a strictly lower
    /// layer (larger y) and every coordinate is finite and in bounds.
    #[test]
    fn layout_respects_dag_order(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..80),
    ) {
        let mut g = stethoscope::dot::Graph::new("prop");
        for i in 0..n {
            g.add_node(format!("n{i}"), std::collections::HashMap::new()).unwrap();
        }
        for (a, b) in edges {
            // Force DAG by orienting edges low → high index.
            let (f, t) = (a.min(b), a.max(b));
            if f != t && t < n {
                g.add_edge(stethoscope::dot::NodeId(f), stethoscope::dot::NodeId(t), Default::default()).unwrap();
            }
        }
        let scene = layout(&g, &LayoutOptions::default());
        prop_assert!(scene.in_bounds());
        for e in &scene.edges {
            prop_assert!(scene.nodes[e.from].y < scene.nodes[e.to].y);
            for p in &e.points {
                prop_assert!(p.0.is_finite() && p.1.is_finite());
            }
        }
    }

    /// Replay: seek(k) is equivalent to k fresh forward steps, and
    /// ffwd + rewind + seek lands in the same state.
    #[test]
    fn replay_seek_deterministic(trace in arb_trace(), k in 0usize..60) {
        let k = k.min(trace.len());
        let mut direct = ReplayController::new(trace.clone());
        for _ in 0..k {
            direct.step_forward();
        }
        let mut wandering = ReplayController::new(trace);
        wandering.seek(wandering.len());
        wandering.rewind();
        wandering.seek(k);
        prop_assert_eq!(direct.position(), wandering.position());
        for pc in 0..12 {
            prop_assert_eq!(direct.node(pc), wandering.node(pc), "pc {}", pc);
        }
    }

    /// Progress wavefront: `completed_depth` is the first dataflow level
    /// with an instruction neither done nor lost (every level when all
    /// are settled), after every event and write-off of a random stream
    /// over a random plan, including pcs past its end.
    #[test]
    fn progress_wavefront_matches_per_level_definition(
        inputs in proptest::collection::vec(0usize..100, 1..12),
        ops in proptest::collection::vec((0usize..14, 0u8..3), 0..80),
    ) {
        // Instruction i reads an earlier one, or nothing.
        let mut text = String::new();
        for (i, r) in inputs.iter().enumerate() {
            match r % (i + 1) {
                p if p < i => text.push_str(&format!("X_{i}:int := calc.+(X_{p}, 1:int);\n")),
                _ => text.push_str(&format!("X_{i}:int := calc.+(1:int, {i}:int);\n")),
            }
        }
        let plan = parse_plan(&text).unwrap();
        let depths = DataflowGraph::from_plan(&plan).depths();
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        let mut m = ProgressModel::new(&plan);
        for (clk, &(pc, op)) in ops.iter().enumerate() {
            match op {
                0 => m.on_event(&ev(EventStatus::Start, pc, clk as u64)),
                1 => m.on_event(&ev(EventStatus::Done, pc, clk as u64)),
                _ => m.mark_lost(pc),
            }
            let settled = |pc: usize| matches!(m.state_of(pc), InstrState::Done | InstrState::Lost);
            let expected = (0..=max_depth)
                .find(|&level| (0..plan.len()).any(|pc| depths[pc] == level && !settled(pc)))
                .unwrap_or(max_depth + 1);
            prop_assert_eq!(m.snapshot().completed_depth, expected, "after {:?}", &ops[..=clk]);
        }
    }

    /// BAT identity: select(v, lo, hi) twice with narrowing ranges equals
    /// one select with the intersection.
    #[test]
    fn select_compose_equals_intersection(
        values in proptest::collection::vec(-50i64..50, 0..80),
        a_lo in -50i64..50, a_hi in -50i64..50,
        b_lo in -50i64..50, b_hi in -50i64..50,
    ) {
        let (a_lo, a_hi) = (a_lo.min(a_hi), a_lo.max(a_hi));
        let (b_lo, b_hi) = (b_lo.min(b_hi), b_lo.max(b_hi));
        let col = RuntimeValue::bat(Bat::ints(values.clone()));
        let cand = RuntimeValue::bat(Bat::dense_oids(values.len()));
        let sel = |cand: RuntimeValue, lo: i64, hi: i64| -> Vec<u64> {
            let out = ops::execute(
                "algebra",
                "select",
                &[col.clone(), cand, RuntimeValue::Scalar(Value::Int(lo)),
                  RuntimeValue::Scalar(Value::Int(hi)), RuntimeValue::Scalar(Value::Bit(true))],
                &ExecCtx::new(std::sync::Arc::new(Catalog::new())),
            ).unwrap();
            out[0].as_bat("t").unwrap().as_oids().unwrap().to_vec()
        };
        let first = sel(cand.clone(), a_lo, a_hi);
        let composed = sel(RuntimeValue::bat(Bat::oids(first)), b_lo, b_hi);
        let direct = sel(cand, a_lo.max(b_lo), a_hi.min(b_hi));
        prop_assert_eq!(composed, direct);
    }

    /// BAT identity: join result size equals the brute-force pair count,
    /// and every returned pair actually matches.
    #[test]
    fn join_matches_bruteforce(
        l in proptest::collection::vec(0i64..12, 0..40),
        r in proptest::collection::vec(0i64..12, 0..40),
    ) {
        let ctx = ExecCtx::new(std::sync::Arc::new(Catalog::new()));
        let out = ops::execute(
            "algebra",
            "join",
            &[RuntimeValue::bat(Bat::ints(l.clone())), RuntimeValue::bat(Bat::ints(r.clone()))],
            &ctx,
        ).unwrap();
        let lo = out[0].as_bat("t").unwrap().as_oids().unwrap().to_vec();
        let ro = out[1].as_bat("t").unwrap().as_oids().unwrap().to_vec();
        let brute: usize = l.iter().map(|x| r.iter().filter(|y| *y == x).count()).sum();
        prop_assert_eq!(lo.len(), brute);
        for (a, b) in lo.iter().zip(&ro) {
            prop_assert_eq!(l[*a as usize], r[*b as usize]);
        }
    }

    /// Mitosis-style identity: packing positional slices reconstructs the
    /// original BAT for any chunk size.
    #[test]
    fn slice_pack_identity(
        values in proptest::collection::vec(any::<i64>(), 0..100),
        k in 1usize..8,
    ) {
        let ctx = ExecCtx::new(std::sync::Arc::new(Catalog::new()));
        let b = RuntimeValue::bat(Bat::ints(values.clone()));
        let chunk = values.len().div_ceil(k).max(1);
        let mut parts = Vec::new();
        for i in 0..k {
            let out = ops::execute("algebra", "slice", &[
                b.clone(),
                RuntimeValue::Scalar(Value::Int((i * chunk) as i64)),
                RuntimeValue::Scalar(Value::Int(((i + 1) * chunk) as i64)),
            ], &ctx).unwrap();
            parts.push(out[0].clone());
        }
        let packed = ops::execute("mat", "pack", &parts, &ctx).unwrap();
        prop_assert_eq!(packed[0].as_bat("t").unwrap().as_ints().unwrap(), &values[..]);
    }
}
