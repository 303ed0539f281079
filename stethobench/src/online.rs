//! The online workloads: back-to-back `OnlineSession::run` over real
//! loopback UDP, plus — in the traced run — a copy of the monitor's path
//! built from public calls, with a span around every call.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use stetho_core::{
    ColorState, OnlineConfig, OnlineSession, PairElision, ProgressModel, TraceDotMap,
};
use stetho_dot::{parse_dot, plan_to_dot, LabelStyle};
use stetho_engine::{Catalog, ExecOptions, Interpreter, ProfilerConfig, VecSink};
use stetho_layout::{layout, parse_svg, write_svg, LayoutOptions};
use stetho_obsv::Registry;
use stetho_profiler::reassembly::DEFAULT_REORDER_WINDOW;
use stetho_profiler::tracefile::TraceWriter;
use stetho_profiler::udp::{EOT_ECHOES, HEARTBEAT_EVERY};
use stetho_profiler::wire::{encode_frame, Frame, FrameBody};
use stetho_profiler::{format_event, SampleBuffer, StreamDecoder, StreamItem, TraceEvent};
use stetho_sql::{compile, compile_with, CompileOptions};
use stetho_tpch::{generate_catalog, queries, TpchConfig};
use stetho_zvtm::{Color, EventDispatchThread, VirtualSpace};

use crate::report::{Outcome, Unit};
use crate::spans::Tracer;
use crate::stats::{beyond, mean, percentile, ratio, session_split};
use crate::{median_setup, nproc, Args};

/// One online workload: a query, its plan shape and its catalog size.
pub struct Online {
    pub name: &'static str,
    pub sql: &'static str,
    pub scale_factor: f64,
    pub partitions: usize,
    pub workers: usize,
}

pub const FIG1: Online = Online {
    name: "online-fig1",
    sql: queries::FIGURE1,
    scale_factor: 0.002,
    partitions: 1,
    workers: 0,
};

pub const Q1_MITOSIS: Online = Online {
    name: "online-q1-mitosis",
    sql: queries::Q1,
    scale_factor: 0.05,
    partitions: 8,
    workers: 2,
};

pub struct Setup {
    pub catalog: Arc<Catalog>,
    /// Row count of a serial execution of the same query.
    pub expected_rows: usize,
}

impl Online {
    /// Engine workers, capped at the host's CPU count.
    pub fn workers(&self) -> usize {
        self.workers.min(nproc())
    }

    pub fn setup(&self, seed: u64) -> Result<Setup, String> {
        let catalog = Arc::new(generate_catalog(&TpchConfig {
            scale_factor: self.scale_factor,
            seed,
        }));
        let plan = compile(&catalog, self.sql).map_err(|e| e.to_string())?.plan;
        let out = Interpreter::new(Arc::clone(&catalog))
            .execute(&plan, &ExecOptions::default())
            .map_err(|e| e.to_string())?;
        let expected_rows = out.result.map(|r| r.rows()).unwrap_or(0);
        Ok(Setup {
            catalog,
            expected_rows,
        })
    }

    pub fn config(&self, dir: &Path) -> OnlineConfig {
        OnlineConfig {
            partitions: self.partitions,
            workers: self.workers(),
            dot_path: dir.join("online.dot"),
            trace_path: dir.join("online.trace"),
            ..OnlineConfig::default()
        }
    }
}

/// What one checked session contributes to the run's figures.
pub struct SessionRecord {
    pub ms: f64,
    pub received: u64,
    pub lost: u64,
    pub dot_degraded: bool,
    pub nodes_lost: usize,
    pub instructions: usize,
    pub edt_enqueued: u64,
    pub edt_coalesced: u64,
    pub edt_max_queue: usize,
}

/// Run one real session and check its outputs.
fn session(w: &Online, setup: &Setup, cfg: &OnlineConfig) -> Result<SessionRecord, String> {
    let t0 = Instant::now();
    let out =
        OnlineSession::run(Arc::clone(&setup.catalog), w.sql, cfg).map_err(|e| e.to_string())?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if out.result_rows != setup.expected_rows {
        return Err(format!(
            "result_rows {} != serial {}",
            out.result_rows, setup.expected_rows
        ));
    }
    if out.progress.fraction != 1.0 {
        return Err(format!("progress.fraction {}", out.progress.fraction));
    }
    for pc in 0..out.plan.len() {
        if let Some(g) = out.map.shape_of_pc(pc) {
            if out.space.glyph(g).color == Color::RED {
                return Err(format!("pc {pc} RED on the final frame"));
            }
        }
    }
    Ok(SessionRecord {
        ms,
        received: out.transport.received,
        lost: out.transport.lost,
        dot_degraded: out.dot_degraded,
        nodes_lost: out.progress.lost,
        instructions: out.plan.len(),
        edt_enqueued: out.edt_stats.enqueued,
        edt_coalesced: out.edt_stats.coalesced,
        edt_max_queue: out.edt_stats.max_queue,
    })
}

/// What the replica of the monitor's path ends with, for comparison with
/// the real session.
pub struct ReplicaOutcome {
    pub events: usize,
    pub final_states: HashMap<usize, ColorState>,
    pub edt_enqueued: u64,
}

/// Frame the dot text and events the way the server's emitter does.
fn encode(plan_name: &str, dot_text: &str, events: &[TraceEvent]) -> Vec<String> {
    let mut seq = 0;
    let mut out = Vec::with_capacity(events.len() + dot_text.len() / 32 + 8);
    let mut push = |body: FrameBody| {
        out.push(encode_frame(&Frame { seq, body }));
        seq += 1;
    };
    push(FrameBody::DotBegin {
        name: plan_name.to_string(),
    });
    for line in dot_text.lines() {
        push(FrameBody::DotLine {
            line: line.to_string(),
        });
    }
    push(FrameBody::DotEnd);
    for (i, e) in events.iter().enumerate() {
        push(FrameBody::Event {
            line: format_event(e),
        });
        if (i as u64 + 1).is_multiple_of(HEARTBEAT_EVERY) {
            push(FrameBody::Heartbeat);
        }
    }
    for _ in 0..=EOT_ECHOES {
        push(FrameBody::EndOfTrace);
    }
    out
}

/// The monitor's path, stage by stage: compile, verify, dot emit,
/// execute, wire encode/decode, then per item what the session's monitor
/// does — dot adoption into a scene, and per event trace write, progress,
/// sampling, pair-elision round and EDT repaint. Every call is a span
/// under one `online.replica` span.
pub fn replica(
    catalog: &Arc<Catalog>,
    sql: &str,
    cfg: &OnlineConfig,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<ReplicaOutcome, String> {
    let root = tr.begin("online.replica");
    let started = Instant::now();
    let opts = CompileOptions {
        plan_name: "user.online".into(),
        partitions: cfg.partitions.max(1),
        skip_optimizers: false,
    };
    let plan = tr
        .span("sql.compile", || compile_with(catalog, sql, &opts))
        .map_err(|e| e.to_string())?
        .plan;
    tr.span("mal.verify", || plan.verify());
    let local_dot = tr.span("dot.emit", || plan_to_dot(&plan, LabelStyle::FullStatement));

    let sink = VecSink::new();
    let exec = if cfg.workers > 1 {
        ExecOptions::parallel(cfg.workers, ProfilerConfig::to_sink(sink.clone()))
    } else {
        ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone()))
    };
    let interp = Interpreter::new(Arc::clone(catalog));
    tr.span("engine.execute", || interp.execute(&plan, &exec))
        .map_err(|e| e.to_string())?;
    let executed = sink.take();

    let datagrams = tr.span("profiler.encode", || {
        encode(&plan.name, &local_dot, &executed)
    });
    let source: SocketAddr = ([127, 0, 0, 1], 1).into();
    let items = tr.span("profiler.decode", || {
        let mut dec = StreamDecoder::new(DEFAULT_REORDER_WINDOW);
        let mut items = Vec::with_capacity(datagrams.len());
        for d in &datagrams {
            dec.decode(source, d, &mut items);
        }
        dec.flush_all(&mut items);
        items
    });

    let trace_path = dir.join("replica.trace");
    let mut writer = tr
        .span("profiler.tracewrite", || TraceWriter::create(&trace_path))
        .map_err(|e| e.to_string())?;
    let mut progress = tr.span("core.progress", || ProgressModel::new(&plan));
    let mut sample = SampleBuffer::new(cfg.sample_capacity);
    let mut edt = EventDispatchThread::new(cfg.pacing_ms);
    let mut last_states: HashMap<usize, ColorState> = HashMap::new();
    let mut view: Option<(VirtualSpace, TraceDotMap)> = None;
    let mut dot_buffer = String::new();
    let mut events = Vec::new();
    for item in items {
        match item {
            StreamItem::DotBegin { .. } => dot_buffer.clear(),
            StreamItem::DotLine { line, .. } => {
                dot_buffer.push_str(&line);
                dot_buffer.push('\n');
            }
            StreamItem::DotEnd { .. } => {
                let received = std::mem::take(&mut dot_buffer);
                view = Some(adopt_dot(&received, &local_dot, plan.len(), dir, tr)?);
            }
            StreamItem::Event { event, .. } => {
                tr.span("profiler.tracewrite", || writer.write_event(&event))
                    .map_err(|e| e.to_string())?;
                tr.span("core.progress", || progress.on_event(&event));
                let snapshot = tr.span("profiler.sample", || {
                    sample.push(event.clone());
                    sample.snapshot()
                });
                events.push(event);
                let changes = tr.span("core.color_round", || {
                    PairElision.diff(&snapshot, &last_states)
                });
                let now_ms = started.elapsed().as_millis() as u64;
                if let Some((space, map)) = view.as_mut() {
                    tr.span("zvtm.edt", || {
                        for c in changes {
                            if let Some(g) = map.shape_of_pc(c.pc) {
                                edt.enqueue(g, c.state.fill(), now_ms);
                            }
                            if c.state == ColorState::Uncolored {
                                last_states.remove(&c.pc);
                            } else {
                                last_states.insert(c.pc, c.state);
                            }
                        }
                        edt.advance_into(now_ms, space);
                    });
                }
            }
            StreamItem::EndOfTrace { .. }
            | StreamItem::Garbled { .. }
            | StreamItem::Lost { .. } => {}
        }
    }
    tr.span("profiler.tracewrite", || writer.flush())
        .map_err(|e| e.to_string())?;
    let (mut space, _) = view.ok_or("replica: dot stream never completed")?;
    tr.span("zvtm.edt", || edt.advance_into(u64::MAX, &mut space));
    let final_states = tr.span("core.final_analyse", || PairElision.analyse(&events));
    tr.end(root);
    Ok(ReplicaOutcome {
        events: events.len(),
        final_states,
        edt_enqueued: edt.stats.enqueued,
    })
}

/// The session's dot adoption: usability check, dot write, then
/// dot → layout → SVG → scene → glyph space and pc map.
fn adopt_dot(
    received: &str,
    local_dot: &str,
    plan_len: usize,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<(VirtualSpace, TraceDotMap), String> {
    let usable = tr
        .span("dot.parse", || parse_dot(received))
        .is_ok_and(|g| g.nodes().len() == plan_len);
    let text = if usable { received } else { local_dot };
    tr.span("core.dot_write", || {
        std::fs::write(dir.join("replica.dot"), text)
    })
    .map_err(|e| e.to_string())?;
    let graph = tr
        .span("dot.parse", || parse_dot(text))
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
    Ok((space, map))
}

/// Accumulates checked sessions into the run's figures.
#[derive(Default)]
struct Tally {
    ms: Vec<f64>,
    received: u64,
    lost: u64,
    dot_fallbacks: u64,
    nodes_lost: u64,
    instructions: Vec<f64>,
    edt_enqueued: Vec<f64>,
    edt_coalesced: u64,
    edt_max_queue: usize,
}

impl Tally {
    fn add(&mut self, r: &SessionRecord) {
        self.ms.push(r.ms);
        self.received += r.received;
        self.lost += r.lost;
        self.dot_fallbacks += u64::from(r.dot_degraded);
        self.nodes_lost += r.nodes_lost as u64;
        self.instructions.push(r.instructions as f64);
        self.edt_enqueued.push(r.edt_enqueued as f64);
        self.edt_coalesced += r.edt_coalesced;
        self.edt_max_queue = self.edt_max_queue.max(r.edt_max_queue);
    }

    fn lost_ratio(&self) -> f64 {
        ratio(self.lost, self.received + self.lost)
    }
}

pub fn run(w: &Online, args: &Args, dir: &Path) -> Outcome {
    let mut o = Outcome::new(w.name, args);
    let cfg = w.config(dir);
    o.note(format!(
        "workload: {} sf={} partitions={} workers={} pacing_ms={} transport=loopback-udp",
        w.name, w.scale_factor, cfg.partitions, cfg.workers, cfg.pacing_ms
    ));
    let (setup_s, setup) = match median_setup(|| w.setup(args.seed)) {
        Ok(x) => x,
        Err(e) => return o.setup_failed(e),
    };
    o.note(format!(
        "setup: peak_rss {:.1} MiB after set-up",
        crate::report::peak_rss_mib()
    ));
    o.note(format!(
        "setup: expected result rows {}",
        setup.expected_rows
    ));

    let mut tally = Tally::default();
    let mut tr = Tracer::default();
    let (mut stolen, mut executed) = (0, 0);
    let mut replica_enqueued = Vec::new();
    match session(w, &setup, &cfg) {
        Ok(_) => o.ok(),
        Err(e) => o.fail(format!("warm-up session: {e}")),
    }
    let deadline = Instant::now() + args.duration();
    while Instant::now() < deadline {
        if !args.trace {
            match session(w, &setup, &cfg) {
                Ok(r) => {
                    o.ok();
                    tally.add(&r);
                }
                Err(e) => o.fail(e),
            }
            continue;
        }
        tr.next_op();
        let registry = Arc::new(Registry::new());
        let traced_cfg = OnlineConfig {
            metrics: Some(Arc::clone(&registry)),
            ..cfg.clone()
        };
        let open = tr.begin("online.session");
        let real = session(w, &setup, &traced_cfg);
        tr.end(open);
        let rep = replica(&setup.catalog, w.sql, &cfg, dir, &mut tr);
        let rep = rep.and_then(|rep| {
            let converged = rep.final_states.values().all(|s| *s != ColorState::Red);
            if converged && rep.events > 0 && rep.events % 2 == 0 {
                Ok(rep)
            } else {
                Err(format!(
                    "replica: {} events, converged {converged}",
                    rep.events
                ))
            }
        });
        match (real, rep) {
            (Ok(r), Ok(rep)) => {
                o.ok();
                replica_enqueued.push(rep.edt_enqueued as f64);
                tally.add(&r);
                let snap = registry.snapshot();
                stolen += snap.counter_total("stetho_scheduler_stolen_total");
                executed += snap.counter_total("stetho_scheduler_executed_total");
            }
            (Err(e), _) | (_, Err(e)) => o.fail(e),
        }
    }

    let n = tally.ms.len();
    o.note(format!(
        "session_ms.mean = {:.3} ms, session_ms.p50 = {:.3} ms (n={n}); session_ms.p90 = {:.3} ms ({} beyond)",
        mean(&tally.ms),
        percentile(&tally.ms, 0.5),
        percentile(&tally.ms, 0.9),
        beyond(&tally.ms, 0.9)
    ));
    o.note(format!(
        "frames_lost_ratio = {:.6} (lost {} of {} frames); dot fallbacks {} of {n} sessions; nodes lost {}",
        tally.lost_ratio(),
        tally.lost,
        tally.received + tally.lost,
        tally.dot_fallbacks,
        tally.nodes_lost
    ));

    if !args.trace {
        o.e2e(setup_s, &tally.ms);
        return o;
    }

    // Per-session stage sums, paired with the real session of the same op.
    let sums = tr.child_sum_per_op("online.replica");
    let (mut session_ms, mut stage_sum_ms) = (Vec::new(), Vec::new());
    for s in tr.spans().iter().filter(|s| s.name == "online.session") {
        if let Some(sum) = sums.get(&s.op) {
            session_ms.push(s.dur_ns() as f64 / 1e6);
            stage_sum_ms.push(*sum as f64 / 1e6);
        }
    }
    o.note(format!(
        "replica: {:.1} EDT enqueues per session (real sessions {:.1})",
        mean(&replica_enqueued),
        mean(&tally.edt_enqueued)
    ));
    let (sess, stages, wait) = session_split(&session_ms, &stage_sum_ms);
    let us = |name: &str| tr.mean_per_op(name) / 1e3;
    let colour_rounds: Vec<f64> = tr
        .durations("core.color_round")
        .iter()
        .map(|d| d / 1e3)
        .collect();
    o.layer("online.session_ms", sess, Unit::Ms);
    o.layer("online.stage_sum_ms", stages, Unit::Ms);
    o.layer("online.wait_ms", wait, Unit::Ms);
    o.layer("sql.compile_us", us("sql.compile"), Unit::Us);
    o.layer("mal.verify_us", us("mal.verify"), Unit::Us);
    o.layer("dot.emit_us", us("dot.emit"), Unit::Us);
    o.layer("dot.parse_us", us("dot.parse"), Unit::Us);
    o.layer("engine.execute_ms", us("engine.execute") / 1e3, Unit::Ms);
    o.layer(
        "engine.instructions",
        mean(&tally.instructions),
        Unit::Count,
    );
    o.layer("engine.steal_ratio", ratio(stolen, executed), Unit::Ratio);
    o.layer(
        "profiler.frames",
        tally.received as f64 / n.max(1) as f64,
        Unit::Count,
    );
    o.layer("profiler.encode_us", us("profiler.encode"), Unit::Us);
    o.layer("profiler.decode_us", us("profiler.decode"), Unit::Us);
    o.layer("profiler.frames_lost", tally.lost as f64, Unit::Count);
    o.layer(
        "profiler.frames_lost_ratio",
        tally.lost_ratio(),
        Unit::Ratio,
    );
    o.layer(
        "profiler.tracewrite_us",
        us("profiler.tracewrite"),
        Unit::Us,
    );
    o.layer("profiler.sample_us", us("profiler.sample"), Unit::Us);
    o.layer("layout.layout_us", us("layout.layout"), Unit::Us);
    o.layer("layout.svg_write_us", us("layout.svg_write"), Unit::Us);
    o.layer("layout.svg_parse_us", us("layout.svg_parse"), Unit::Us);
    o.layer("zvtm.space_build_us", us("zvtm.space_build"), Unit::Us);
    o.layer("zvtm.edt_us", us("zvtm.edt"), Unit::Us);
    o.layer("zvtm.edt_enqueued", mean(&tally.edt_enqueued), Unit::Count);
    let enqueued: f64 = tally.edt_enqueued.iter().sum();
    o.layer(
        "zvtm.edt_coalesced_ratio",
        ratio(tally.edt_coalesced, enqueued as u64),
        Unit::Ratio,
    );
    o.layer(
        "zvtm.edt_max_queue",
        tally.edt_max_queue as f64,
        Unit::Count,
    );
    o.layer("core.map_build_us", us("core.map_build"), Unit::Us);
    o.layer(
        "core.color_round_us.p50",
        percentile(&colour_rounds, 0.5),
        Unit::Us,
    );
    o.layer("core.progress_us", us("core.progress"), Unit::Us);
    o.layer(
        "core.dot_fallbacks",
        tally.dot_fallbacks as f64,
        Unit::Count,
    );
    o.layer("core.nodes_lost", tally.nodes_lost as f64, Unit::Count);
    o.write_spans(&tr);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_profiler::ChaosConfig;

    /// On a clean in-memory link the replica does the session's work:
    /// same event count, same final pair-elision states, same number of
    /// EDT repaint requests.
    fn replica_matches_session(w: &Online) {
        let setup = w.setup(7).unwrap();
        let dir = Path::new(crate::OUT_DIR).join(format!("test-{}-{}", std::process::id(), w.name));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = OnlineConfig {
            workers: 0,
            chaos: Some(ChaosConfig::clean(3)),
            ..w.config(&dir)
        };
        let real = OnlineSession::run(Arc::clone(&setup.catalog), w.sql, &cfg).unwrap();
        let mut tr = Tracer::default();
        tr.next_op();
        let rep = replica(&setup.catalog, w.sql, &cfg, &dir, &mut tr).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(rep.events, real.events.len());
        assert_eq!(rep.events, real.plan.len() * 2);
        assert_eq!(rep.final_states, real.final_states);
        assert_eq!(rep.edt_enqueued, real.edt_stats.enqueued);
        assert!(rep.edt_enqueued > 0);
        // Every stage of the path was timed under the replica span.
        for stage in [
            "sql.compile",
            "mal.verify",
            "dot.emit",
            "engine.execute",
            "profiler.encode",
            "profiler.decode",
            "dot.parse",
            "layout.layout",
            "zvtm.space_build",
            "core.map_build",
            "core.color_round",
            "zvtm.edt",
        ] {
            assert!(tr.mean_per_op(stage) > 0.0, "no span for {stage}");
        }
    }

    #[test]
    fn replica_matches_session_on_figure1() {
        replica_matches_session(&FIG1);
    }

    #[test]
    fn replica_matches_session_on_q1_mitosis() {
        // Serial execution keeps the event order, and with it the EDT
        // enqueue count, identical between the two runs; the 314-event
        // trace overflows the 256-event sample window.
        let w = Online {
            scale_factor: 0.002,
            ..Q1_MITOSIS
        };
        replica_matches_session(&w);
    }
}
