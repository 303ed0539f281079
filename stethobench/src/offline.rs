//! The offline workload: open a Figure-2-scale dot file and trace, step
//! through every event, then seek around the trace.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stetho_core::{ColorState, OfflineSession, ReplayController, TraceDotMap};
use stetho_dot::{parse_dot, plan_to_dot, LabelStyle};
use stetho_engine::{ExecOptions, FileSink, Interpreter, ProfilerConfig, ProfilerSink};
use stetho_layout::{layout, parse_svg, write_svg, LayoutOptions};
use stetho_profiler::TraceFile;
use stetho_sql::{compile_with, CompileOptions};
use stetho_tpch::{generate_catalog, queries, TpchConfig};
use stetho_zvtm::{Camera, Color, EventDispatchThread, VirtualSpace};

use crate::report::{Outcome, Unit};
use crate::spans::{maybe_span, Tracer};
use crate::stats::{beyond, mean, percentile, ratio};
use crate::{median_setup, nproc, Args};

pub const NAME: &str = "offline-q1-stepthrough";
const PARTITIONS: usize = 96;
const SCALE_FACTOR: f64 = 0.002;
const SEEKS: usize = 64;
/// Virtual time the viewer lets pass after each step: one EDT pacing slot.
const STEP_ADVANCE_MS: u64 = 150;

pub struct Setup {
    dot_path: PathBuf,
    trace_path: PathBuf,
    instructions: usize,
    events: usize,
    /// Batch pair-elision over the whole trace: the states stepping must
    /// end in.
    expected: HashMap<usize, ColorState>,
}

/// Run Q1 with 96 partitions once and keep its dot file and trace.
pub fn setup(seed: u64, dir: &Path) -> Result<Setup, String> {
    let catalog = Arc::new(generate_catalog(&TpchConfig {
        scale_factor: SCALE_FACTOR,
        seed,
    }));
    let plan = compile_with(
        &catalog,
        queries::Q1,
        &CompileOptions::with_partitions(PARTITIONS),
    )
    .map_err(|e| e.to_string())?
    .plan;
    let dot_path = dir.join("offline.dot");
    let trace_path = dir.join("offline.trace");
    std::fs::write(&dot_path, plan_to_dot(&plan, LabelStyle::FullStatement))
        .map_err(|e| e.to_string())?;
    let sink = FileSink::create(&trace_path).map_err(|e| e.to_string())?;
    let opts = ExecOptions::parallel(2.min(nproc()), ProfilerConfig::to_sink(sink.clone()));
    Interpreter::new(catalog)
        .execute(&plan, &opts)
        .map_err(|e| e.to_string())?;
    sink.flush();
    let events = TraceFile::new(&trace_path)
        .read()
        .map_err(|e| e.to_string())?;
    if events.len() != 2 * plan.len() {
        return Err(format!(
            "trace has {} events for {} instructions",
            events.len(),
            plan.len()
        ));
    }
    Ok(Setup {
        dot_path,
        trace_path,
        instructions: plan.len(),
        events: events.len(),
        expected: stetho_core::PairElision.analyse(&events),
    })
}

/// Seek targets: uniform over the trace, so about half go backward.
fn seek_targets(rng: &mut u64, len: usize) -> Vec<usize> {
    (0..SEEKS)
        .map(|_| (splitmix(rng) % (len as u64 + 1)) as usize)
        .collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D4_9BB4_6331_11EB);
    z ^ (z >> 31)
}

fn state_of(states: &HashMap<usize, ColorState>, pc: usize) -> ColorState {
    states.get(&pc).copied().unwrap_or(ColorState::Uncolored)
}

/// The checks after a full step-through.
fn check_stepped(s: &Setup, sess: &OfflineSession) -> Result<(), String> {
    if !sess.replay.at_end() {
        return Err(format!(
            "replay stopped at {} of {}",
            sess.replay.position(),
            sess.replay.len()
        ));
    }
    if let Some(pc) = (0..s.instructions).find(|&pc| sess.replay.node(pc).dones != 1) {
        return Err(format!("pc {pc} has {} dones", sess.replay.node(pc).dones));
    }
    let bad = sess.verify_contract();
    if !bad.is_empty() {
        return Err(format!("dot/trace contract broken at {} pcs", bad.len()));
    }
    if let Some(pc) =
        (0..s.instructions).find(|&pc| sess.node_state(pc) != state_of(&s.expected, pc))
    {
        return Err(format!(
            "pc {pc} ends {:?}, batch analyse says {:?}",
            sess.node_state(pc),
            state_of(&s.expected, pc)
        ));
    }
    Ok(())
}

/// Timings of one checked operation.
struct OpRecord {
    load: Duration,
    steps: Vec<u32>,
    seeks: Vec<u32>,
    backward: usize,
    edt_enqueued: u64,
    edt_coalesced: u64,
    edt_max_queue: usize,
}

impl OpRecord {
    fn total_ms(&self) -> f64 {
        let ns: u64 = self
            .steps
            .iter()
            .chain(&self.seeks)
            .map(|&x| u64::from(x))
            .sum();
        self.load.as_secs_f64() * 1e3 + ns as f64 / 1e6
    }
}

fn ns(d: Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// Open, step through every event, then seek: the operation the
/// workload repeats. When traced, it is one `offline.op` span whose
/// children wrap the session's own calls.
fn operation(s: &Setup, rng: &mut u64, mut tr: Option<&mut Tracer>) -> Result<OpRecord, String> {
    let root = tr.as_mut().map(|t| t.begin("offline.op"));
    let rec = operation_steps(s, rng, tr.as_deref_mut());
    if let (Some(t), Some(root)) = (tr, root) {
        t.end(root);
    }
    rec
}

fn operation_steps(
    s: &Setup,
    rng: &mut u64,
    mut tr: Option<&mut Tracer>,
) -> Result<OpRecord, String> {
    let t0 = Instant::now();
    let loaded = maybe_span(tr.as_deref_mut(), "offline.load", || {
        OfflineSession::load_files(&s.dot_path, &s.trace_path)
    });
    let load = t0.elapsed();
    let mut sess = loaded.map_err(|e| e.to_string())?;

    let mut steps = Vec::with_capacity(sess.replay.len());
    loop {
        let t = Instant::now();
        let advanced = maybe_span(tr.as_deref_mut(), "offline.step", || {
            let advanced = sess.step();
            sess.advance_ms(STEP_ADVANCE_MS);
            advanced
        });
        let d = t.elapsed();
        if !advanced {
            break;
        }
        steps.push(ns(d));
    }
    check_stepped(s, &sess)?;

    let mut seeks = Vec::with_capacity(SEEKS);
    let mut backward = 0;
    for target in seek_targets(rng, sess.replay.len()) {
        backward += usize::from(target < sess.replay.position());
        let t = Instant::now();
        maybe_span(tr.as_deref_mut(), "offline.seek", || sess.seek(target));
        seeks.push(ns(t.elapsed()));
        if sess.replay.position() != target {
            return Err(format!(
                "seek to {target} landed at {}",
                sess.replay.position()
            ));
        }
    }
    Ok(OpRecord {
        load,
        steps,
        seeks,
        backward,
        edt_enqueued: sess.edt.stats.enqueued,
        edt_coalesced: sess.edt.stats.coalesced,
        edt_max_queue: sess.edt.stats.max_queue,
    })
}

/// `load_files` rebuilt from public calls, one span per stage, so the
/// stage spans account for `offline.load`.
fn replica_load(
    s: &Setup,
    tr: &mut Tracer,
) -> Result<(VirtualSpace, TraceDotMap, ReplayController), String> {
    let root = tr.begin("offline.load_replica");
    let text = tr
        .span("dot.read", || std::fs::read_to_string(&s.dot_path))
        .map_err(|e| e.to_string())?;
    let graph = tr
        .span("dot.parse", || parse_dot(&text))
        .map_err(|e| e.to_string())?;
    let events = tr
        .span("profiler.trace_parse", || {
            TraceFile::new(&s.trace_path).read()
        })
        .map_err(|e| e.to_string())?;
    let laid = tr.span("layout.layout", || {
        layout(&graph, &LayoutOptions::default())
    });
    let svg = tr.span("layout.svg_write", || write_svg(&laid));
    let scene = tr
        .span("layout.svg_parse", || parse_svg(&svg))
        .map_err(|e| e.to_string())?;
    let (space, node_glyphs) = tr.span("zvtm.space_build", || VirtualSpace::from_scene(&scene));
    let map = tr.span("core.map_build", || {
        let mut map = TraceDotMap::from_scene(&scene);
        map.attach_glyphs(&node_glyphs);
        map
    });
    tr.span("zvtm.camera_fit", || {
        let mut camera = Camera::default();
        camera.fit(space.bounds(), 1280.0, 800.0, 1.05);
    });
    let replay = tr.span("core.replay_new", || ReplayController::new(events));
    tr.end(root);
    Ok((space, map, replay))
}

/// The session's painted view, driven by the replica of `step()`/`seek()`.
struct ReplicaView {
    space: VirtualSpace,
    map: TraceDotMap,
    edt: EventDispatchThread,
    painted: HashMap<usize, ColorState>,
    now_ms: u64,
}

impl ReplicaView {
    /// Whole-prefix coloring, diff against the painted states, EDT enqueue.
    fn sync(&mut self, replay: &ReplayController, tr: &mut Tracer) {
        let states = tr.span("core.current_colors", || replay.current_colors());
        let painted = &mut self.painted;
        let changes = tr.span("core.color_diff", || {
            let mut changes: Vec<(usize, Color)> = states
                .iter()
                .filter(|(pc, st)| painted.get(pc) != Some(st))
                .map(|(&pc, st)| (pc, st.fill()))
                .collect();
            changes.extend(
                painted
                    .keys()
                    .filter(|pc| !states.contains_key(pc))
                    .map(|&pc| (pc, Color::DEFAULT_FILL)),
            );
            painted.retain(|pc, _| states.contains_key(pc));
            painted.extend(states.iter().map(|(&pc, &st)| (pc, st)));
            changes
        });
        let (edt, map, now_ms) = (&mut self.edt, &self.map, self.now_ms);
        tr.span("zvtm.edt", || {
            for (pc, color) in changes {
                if let Some(g) = map.shape_of_pc(pc) {
                    edt.enqueue(g, color, now_ms);
                }
            }
        });
    }
}

/// `step()` and `seek()` rebuilt from public calls: replay cursor move,
/// whole-prefix coloring, diff against the painted states, EDT repaint.
fn replica_replay(s: &Setup, rng: &mut u64, tr: &mut Tracer) -> Result<(), String> {
    let (space, map, mut replay) = replica_load(s, tr)?;
    let root = tr.begin("offline.replay_replica");
    let mut view = ReplicaView {
        space,
        map,
        edt: EventDispatchThread::paper_default(),
        painted: HashMap::new(),
        now_ms: 0,
    };
    while !replay.at_end() {
        tr.span("core.replay_step", || replay.step_forward().is_some());
        view.sync(&replay, tr);
        view.now_ms += STEP_ADVANCE_MS;
        let (edt, space, now_ms) = (&mut view.edt, &mut view.space, view.now_ms);
        tr.span("zvtm.edt", || edt.advance_into(now_ms, space));
    }
    if let Some(pc) =
        (0..s.instructions).find(|&pc| state_of(&view.painted, pc) != state_of(&s.expected, pc))
    {
        return Err(format!(
            "replica: pc {pc} ends {:?}",
            state_of(&view.painted, pc)
        ));
    }
    for target in seek_targets(rng, replay.len()) {
        tr.span("core.replay_seek", || replay.seek(target));
        view.sync(&replay, tr);
    }
    tr.end(root);
    Ok(())
}

pub fn run(args: &Args, dir: &Path) -> Outcome {
    let mut o = Outcome::new(NAME, args);
    o.note(format!(
        "workload: {NAME} sf={SCALE_FACTOR} partitions={PARTITIONS} setup_workers={} seeks={SEEKS} step_advance_ms={STEP_ADVANCE_MS}",
        2.min(nproc())
    ));
    let (setup_s, s) = match median_setup(|| setup(args.seed, dir)) {
        Ok(x) => x,
        Err(e) => return o.setup_failed(e),
    };
    o.note(format!(
        "setup: peak_rss {:.1} MiB after set-up",
        crate::report::peak_rss_mib()
    ));
    o.note(format!(
        "setup: {} instructions, {} events",
        s.instructions, s.events
    ));

    let mut rng = args.seed ^ 0x5EED_0FF1_1E00;
    let mut tr = Tracer::default();
    let mut ops_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut steps_us = Vec::new();
    let mut seeks_us = Vec::new();
    let (mut backward, mut enqueued, mut coalesced, mut max_queue) = (0, Vec::new(), 0, 0);
    match operation(&s, &mut rng, None) {
        Ok(_) => o.ok(),
        Err(e) => o.fail(format!("warm-up: {e}")),
    }
    let deadline = Instant::now() + args.duration();
    while Instant::now() < deadline {
        let traced = args.trace.then(|| {
            tr.next_op();
            &mut tr
        });
        let rec = match operation(&s, &mut rng, traced) {
            Ok(r) => r,
            Err(e) => {
                o.fail(e);
                continue;
            }
        };
        if args.trace {
            if let Err(e) = replica_replay(&s, &mut rng, &mut tr) {
                o.fail(e);
                continue;
            }
        }
        o.ok();
        ops_ms.push(rec.total_ms());
        load_ms.push(rec.load.as_secs_f64() * 1e3);
        steps_us.extend(rec.steps.iter().map(|&x| f64::from(x) / 1e3));
        seeks_us.extend(rec.seeks.iter().map(|&x| f64::from(x) / 1e3));
        backward += rec.backward;
        enqueued.push(rec.edt_enqueued as f64);
        coalesced += rec.edt_coalesced;
        max_queue = max_queue.max(rec.edt_max_queue);
    }

    o.note(format!(
        "op_ms.mean = {:.3} ms, op_ms.p50 = {:.3} ms (n={}); op_ms.p90 = {:.3} ms ({} beyond)",
        mean(&ops_ms),
        percentile(&ops_ms, 0.5),
        ops_ms.len(),
        percentile(&ops_ms, 0.9),
        beyond(&ops_ms, 0.9)
    ));
    o.note(format!(
        "load_ms.p50 = {:.3} ms (n={}); step_us.p50 = {:.3} us, step_us.p99 = {:.3} us (n={}, {} beyond p99); seek_us.p50 = {:.3} us (n={}, {} backward)",
        percentile(&load_ms, 0.5),
        load_ms.len(),
        percentile(&steps_us, 0.5),
        percentile(&steps_us, 0.99),
        steps_us.len(),
        beyond(&steps_us, 0.99),
        percentile(&seeks_us, 0.5),
        seeks_us.len(),
        backward
    ));
    if !args.trace {
        o.e2e(setup_s, &ops_ms);
        return o;
    }

    let us = |name: &str| tr.mean_per_op(name) / 1e3;
    let per_call_us =
        |name: &str| -> Vec<f64> { tr.durations(name).iter().map(|d| d / 1e3).collect() };
    let load_stage_sum: Vec<f64> = tr
        .child_sum_per_op("offline.load_replica")
        .values()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let colors = per_call_us("core.current_colors");
    o.layer("offline.load_ms", mean(&load_ms), Unit::Ms);
    o.layer("offline.load_stage_sum_ms", mean(&load_stage_sum), Unit::Ms);
    o.layer("offline.step_us.p50", percentile(&steps_us, 0.5), Unit::Us);
    o.layer("offline.step_us.p99", percentile(&steps_us, 0.99), Unit::Us);
    o.layer("offline.seek_us.p50", percentile(&seeks_us, 0.5), Unit::Us);
    o.layer("dot.parse_us", us("dot.parse"), Unit::Us);
    o.layer(
        "profiler.trace_parse_ms",
        us("profiler.trace_parse") / 1e3,
        Unit::Ms,
    );
    o.layer("layout.layout_us", us("layout.layout"), Unit::Us);
    o.layer("layout.svg_write_us", us("layout.svg_write"), Unit::Us);
    o.layer("layout.svg_parse_us", us("layout.svg_parse"), Unit::Us);
    o.layer("zvtm.space_build_us", us("zvtm.space_build"), Unit::Us);
    o.layer("zvtm.edt_us", us("zvtm.edt"), Unit::Us);
    o.layer("zvtm.edt_enqueued", mean(&enqueued), Unit::Count);
    let total_enqueued: f64 = enqueued.iter().sum();
    o.layer(
        "zvtm.edt_coalesced_ratio",
        ratio(coalesced, total_enqueued as u64),
        Unit::Ratio,
    );
    o.layer("zvtm.edt_max_queue", max_queue as f64, Unit::Count);
    o.layer("core.map_build_us", us("core.map_build"), Unit::Us);
    o.layer(
        "core.replay_step_us",
        mean(&per_call_us("core.replay_step")),
        Unit::Us,
    );
    o.layer(
        "core.current_colors_us.p50",
        percentile(&colors, 0.5),
        Unit::Us,
    );
    o.layer(
        "core.current_colors_us.p99",
        percentile(&colors, 0.99),
        Unit::Us,
    );
    o.layer(
        "core.replay_seek_us",
        mean(&per_call_us("core.replay_seek")),
        Unit::Us,
    );
    o.write_spans(&tr);
    o
}
