//! Online mode (§4.2) — the full multi-threaded workflow over real UDP.
//!
//! "As a first step, the textual Stethoscope is launched in a dedicated
//! thread. ... The query whose execution plan needs to be analyzed is
//! launched next in a separate thread. ... The MonetDB server generates
//! the dot file content and sends it over on the UDP stream to the
//! textual Stethoscope, before query execution begins. A separate thread
//! monitors the received UDP stream for dot file and execution trace
//! file content. It filters the dot file content, generates a new dot
//! file ... As the trace file grows in size, its content is sampled in a
//! buffer. ... An algorithm for run-time analysis, to filter lengthy MAL
//! instructions is applied on the buffer content."
//!
//! The transport is assumed hostile (frames can be dropped, reordered,
//! duplicated, or truncated — see [`stetho_profiler::wire`]), and the
//! session degrades gracefully instead of wedging:
//!
//! * a reported [`StreamItem::Lost`] gap (or a stream that ends without
//!   end-of-trace) synthesizes `done` events for instructions stuck in
//!   the started state, so coloring and progress converge;
//! * instructions whose events vanished entirely are marked
//!   [`InstrState::Lost`] and count toward completion;
//! * a damaged or missing dot stream falls back to the locally compiled
//!   dot text (the session compiled the plan itself);
//! * garbled lines are counted, not fatal.
//!
//! The resulting [`OnlineOutcome`] carries a [`TransportStats`] snapshot
//! next to the verifier report so tools can show transport health.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stetho_dot::plan_to_dot;
use stetho_engine::Catalog;
use stetho_layout::SceneGraph;
use stetho_mal::{Plan, VerifyReport};
use stetho_profiler::chaos::{ChaosConfig, ChaosLink, ChaosReport};
use stetho_profiler::reassembly::TransportStats;
use stetho_profiler::tracefile::TraceWriter;
use stetho_profiler::udp::{StreamItem, StreamRecvError};
use stetho_profiler::{FilterOptions, ProfilerEmitter, TextualStethoscope, TraceEvent};
use stetho_sql::{compile_with, CompileOptions};
use stetho_zvtm::edt::EdtStats;
use stetho_zvtm::{EventDispatchThread, VirtualSpace};

use crate::color::{ColorState, ElisionWindow, PairElision, ThresholdColoring};
use crate::mapping::TraceDotMap;
use crate::metrics::SessionMetrics;
use crate::progress::{InstrState, ProgressModel, ProgressSnapshot};
use crate::replay::repair_lost_dones;
use crate::session::{PlanView, Server, SessionError, StreamCloser, DEFAULT_TIMEOUT};

static SESSION_SEQ: AtomicU64 = AtomicU64::new(0);

/// Online session configuration.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Mitosis partitions for the compiled plan (1 = serial plan).
    pub partitions: usize,
    /// Engine worker threads (0 = sequential interpreter).
    pub workers: usize,
    /// EDT pacing in ms (paper default 150).
    pub pacing_ms: u64,
    /// Sample buffer capacity (§4.2).
    pub sample_capacity: usize,
    /// Optional user threshold (µs) enabling the second §4.2.1 algorithm.
    pub threshold_usec: Option<u64>,
    /// The server's profiler filter: rejected events are never sent.
    pub filter: FilterOptions,
    /// Where the monitor writes the received dot file.
    pub dot_path: PathBuf,
    /// Where the monitor redirects the received trace.
    pub trace_path: PathBuf,
    /// Route the stream through a deterministic in-memory [`ChaosLink`]
    /// with this fault schedule instead of real UDP (testing).
    pub chaos: Option<ChaosConfig>,
    /// Self-observability registry. When set, the session publishes
    /// analyse latency, pacing adherence, EDT backlog, sampling loss
    /// and progress gauges into it, bridges the receiver's transport
    /// counters, and hands it to the engine's dataflow scheduler.
    pub metrics: Option<Arc<stetho_obsv::Registry>>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        let id = SESSION_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir();
        OnlineConfig {
            partitions: 1,
            workers: 0,
            pacing_ms: 150,
            sample_capacity: 256,
            threshold_usec: None,
            filter: FilterOptions::all(),
            dot_path: dir.join(format!("stetho_online_{}_{id}.dot", std::process::id())),
            trace_path: dir.join(format!("stetho_online_{}_{id}.trace", std::process::id())),
            chaos: None,
            metrics: None,
        }
    }
}

/// Everything an online run produces for inspection.
pub struct OnlineOutcome {
    /// The executed plan.
    pub plan: Plan,
    /// Static-verifier report for the compiled plan (diagnostics are
    /// surfaced to the session; a clean report means no errors).
    pub verify: VerifyReport,
    /// Dot text the scene was built from (as received, or the local
    /// fallback when the received copy was damaged — see
    /// [`OnlineOutcome::dot_degraded`]).
    pub dot_text: String,
    /// Scene built when the dot stream completed.
    pub scene: SceneGraph,
    /// Final glyph canvas (colors as the EDT left them).
    pub space: VirtualSpace,
    /// pc ↔ node ↔ glyph mapping.
    pub map: TraceDotMap,
    /// All received (filtered) trace events in arrival order, plus any
    /// synthesized `done`s appended by gap recovery.
    pub events: Vec<TraceEvent>,
    /// Final pair-elision states over the whole trace.
    pub final_states: HashMap<usize, ColorState>,
    /// Threshold-algorithm states, when a threshold was configured.
    pub threshold_states: HashMap<usize, ColorState>,
    /// EDT statistics (dispatched, coalesced, backlog peak).
    pub edt_stats: EdtStats,
    /// Events lost to sample-buffer eviction.
    pub samples_dropped: u64,
    /// Result-set row count of the query.
    pub result_rows: usize,
    /// Final progress snapshot (done + lost should cover the plan).
    pub progress: ProgressSnapshot,
    /// Wall-clock duration of the whole session.
    pub elapsed: Duration,
    /// Receiver-side transport health counters.
    pub transport: TransportStats,
    /// Ground truth of what the chaos link did to the traffic (only in
    /// chaos mode), for exact reconciliation against `transport`.
    pub chaos_report: Option<ChaosReport>,
    /// Sequence-number gaps reported by the reassembly stage.
    pub lost_gaps: Vec<(u64, u64)>,
    /// Garbled lines/frames observed (counted, not fatal).
    pub garbled_lines: u64,
    /// `done` events synthesized so the animation converged.
    pub synthesized_dones: usize,
    /// True when the received dot stream was unusable and the locally
    /// compiled dot text was used instead.
    pub dot_degraded: bool,
}

/// The per-item monitor state (the paper's "separate thread [that]
/// monitors the received UDP stream").
struct Monitor<'a> {
    cfg: &'a OnlineConfig,
    plan: &'a Plan,
    local_dot: &'a str,
    started: Instant,
    dot_buffer: String,
    used_dot: Option<String>,
    view: Option<PlanView>,
    trace_writer: TraceWriter,
    events: Vec<TraceEvent>,
    /// The sample buffer of §4.2, kept as pair-elision state.
    window: ElisionWindow,
    edt: EventDispatchThread,
    threshold: Option<ThresholdColoring>,
    progress: ProgressModel,
    saw_eot: bool,
    lost_gaps: Vec<(u64, u64)>,
    garbled_lines: u64,
    dot_degraded: bool,
    metrics: Option<SessionMetrics>,
}

impl Monitor<'_> {
    fn handle(&mut self, item: StreamItem) -> Result<(), SessionError> {
        match item {
            StreamItem::DotBegin { .. } => self.dot_buffer.clear(),
            StreamItem::DotLine { line, .. } => {
                self.dot_buffer.push_str(&line);
                self.dot_buffer.push('\n');
            }
            StreamItem::DotEnd { .. } => {
                let received = std::mem::take(&mut self.dot_buffer);
                self.adopt_dot(received)?;
            }
            StreamItem::Event { event, .. } => self.ingest_event(event, false)?,
            StreamItem::EndOfTrace { .. } => self.saw_eot = true,
            StreamItem::Garbled { .. } => self.garbled_lines += 1,
            StreamItem::Lost {
                from_seq, to_seq, ..
            } => self.lost_gaps.push((from_seq, to_seq)),
        }
        Ok(())
    }

    /// Build the scene from the received dot text, falling back to the
    /// locally compiled dot when the received copy was damaged in
    /// transit (missing lines, lost begin/end framing).
    fn adopt_dot(&mut self, received: String) -> Result<(), SessionError> {
        let usable = stetho_dot::parse_dot(&received)
            .ok()
            .filter(|graph| graph.nodes().len() == self.plan.len());
        let (text, graph) = match usable {
            Some(graph) => (received, graph),
            None => {
                self.dot_degraded = true;
                let graph = stetho_dot::parse_dot(self.local_dot)
                    .map_err(|e| SessionError::new(format!("dot: {e}")))?;
                (self.local_dot.to_string(), graph)
            }
        };
        // "It filters the dot file content, generates a new dot file,
        // and stores the content in it."
        std::fs::write(&self.cfg.dot_path, &text)?;
        self.view = Some(PlanView::build(&graph)?);
        self.used_dot = Some(text);
        Ok(())
    }

    fn ingest_event(&mut self, event: TraceEvent, synthetic: bool) -> Result<(), SessionError> {
        if !synthetic {
            self.trace_writer.write_event(&event)?;
        }
        self.progress.on_event(&event);
        self.window.push(event.pc, event.status);
        if let Some(t) = self.threshold.as_mut() {
            t.on_event(&event);
            t.on_tick(event.clk);
        }
        self.events.push(event);
        // Run-time analysis over the sample buffer (§4.2.1). Until the
        // dot is adopted the window only collects dirty pcs; the first
        // round paints them all.
        let round_started = Instant::now();
        if let Some(view) = self.view.as_mut() {
            let now_ms = self.started.elapsed().as_millis() as u64;
            view.paint_window(&mut self.window, &mut self.edt, now_ms);
            self.edt.advance_into(now_ms, &mut view.space);
        }
        if let Some(m) = &self.metrics {
            m.record_round(
                round_started.elapsed().as_micros() as u64,
                self.cfg.pacing_ms,
            );
            m.edt_queue_depth.set(self.edt.backlog() as f64);
            m.samples_dropped.set(self.window.evicted());
            m.set_progress(&self.progress.snapshot());
        }
        Ok(())
    }

    /// Converge after the stream ended: when anything was (or may have
    /// been) lost, close dangling starts with synthesized `done`s and
    /// write untraced instructions off to the gaps, so the picture
    /// settles instead of staying RED forever.
    fn converge(&mut self) -> Result<usize, SessionError> {
        if self.saw_eot && self.lost_gaps.is_empty() {
            return Ok(0);
        }
        let synthesized = repair_lost_dones(&self.events);
        let n = synthesized.len();
        for e in synthesized {
            self.ingest_event(e, true)?;
        }
        for pc in 0..self.plan.len() {
            if self.progress.state_of(pc) == InstrState::Pending {
                self.progress.mark_lost(pc);
            }
        }
        Ok(n)
    }
}

/// The online-mode driver.
pub struct OnlineSession;

impl OnlineSession {
    /// Run the complete §4.2 workflow for `sql` against `catalog`:
    /// textual-Stethoscope thread, query thread, stream monitoring, dot
    /// capture, trace redirection, sampling, and run-time coloring.
    pub fn run(
        catalog: Arc<Catalog>,
        sql: &str,
        cfg: &OnlineConfig,
    ) -> Result<OnlineOutcome, SessionError> {
        let started = Instant::now();
        // Compile up front: the server needs the plan (and its dot) at
        // query launch.
        let compiled = compile_with(
            &catalog,
            sql,
            &CompileOptions {
                plan_name: "user.online".into(),
                partitions: cfg.partitions.max(1),
                skip_optimizers: false,
            },
        )
        .map_err(|e| SessionError::new(format!("compile: {e}")))?;
        Self::watch(catalog, compiled.plan, cfg, started)
    }

    /// The workflow after compilation: stream `plan`'s dot and trace
    /// from a query thread and monitor them, with `started` as the
    /// session's start.
    pub(crate) fn watch(
        catalog: Arc<Catalog>,
        plan: Plan,
        cfg: &OnlineConfig,
        started: Instant,
    ) -> Result<OnlineOutcome, SessionError> {
        // Surface the static-verifier diagnostics for the session. The
        // pipeline already guarantees cleanliness in debug builds; here
        // the report rides along so tools can show the lint findings.
        let verify = plan.verify();
        let dot_text = plan_to_dot(&plan, stetho_dot::LabelStyle::FullStatement);

        // Textual Stethoscope thread (the listener runs inside), over
        // real UDP or a seeded in-memory chaos link.
        let chaos_link = cfg.chaos.map(ChaosLink::new);
        let mut steth = match &chaos_link {
            Some(link) => TextualStethoscope::over(link),
            None => TextualStethoscope::bind()?,
        };
        if let Some(reg) = &cfg.metrics {
            crate::metrics::bridge_transport(reg, steth.counters());
        }
        let rx = steth.start();
        let emitter = match &chaos_link {
            Some(link) => ProfilerEmitter::over(link),
            None => ProfilerEmitter::connect(steth.local_addr()?)?,
        };

        // Query thread: send dot first, run, then mark end of trace.
        let query_thread = Server {
            catalog,
            plan: plan.clone(),
            dot: Some(dot_text.clone()),
            filter: cfg.filter.clone(),
            workers: cfg.workers,
            metrics: cfg.metrics.clone(),
            closer: Arc::new(StreamCloser(steth.stop_handle())),
        }
        .spawn("query", emitter)?;

        let mut mon = Monitor {
            cfg,
            plan: &plan,
            local_dot: &dot_text,
            started,
            dot_buffer: String::new(),
            used_dot: None,
            view: None,
            trace_writer: TraceWriter::create(&cfg.trace_path)?,
            events: Vec::new(),
            window: ElisionWindow::new(cfg.sample_capacity, plan.len()),
            edt: EventDispatchThread::new(cfg.pacing_ms),
            threshold: cfg
                .threshold_usec
                .map(|t| ThresholdColoring::new(t, plan.len())),
            progress: ProgressModel::new(&plan),
            saw_eot: false,
            lost_gaps: Vec::new(),
            garbled_lines: 0,
            dot_degraded: false,
            metrics: cfg.metrics.as_deref().map(SessionMetrics::new),
        };
        let deadline = Instant::now() + DEFAULT_TIMEOUT;

        // Monitor until the stream closes. It closes once the server has
        // exited and everything it sent is decoded: a chaos link when the
        // emitter drops, UDP when the closer's stop marker is read. So a
        // lost `eot` costs no timer, and the items after `eot` (its
        // echoes, the gap reports of the final flush) are all here.
        loop {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(item) => mon.handle(item)?,
                Err(StreamRecvError::Closed) => break,
                Err(StreamRecvError::Timeout) => {
                    steth.stop();
                    return Err(SessionError::new(format!(
                        "online session timed out after {DEFAULT_TIMEOUT:?}"
                    )));
                }
            }
        }
        let result_rows = query_thread.join()?;
        steth.stop();

        mon.trace_writer.flush()?;
        // Dot stream never completed usably? Fall back to the local
        // compile so the session still renders.
        if mon.view.is_none() {
            mon.adopt_dot(String::new())?;
        }
        let synthesized_dones = mon.converge()?;

        let transport = steth.transport_stats();
        let chaos_report = chaos_link.as_ref().map(|l| l.report());
        let Monitor {
            used_dot,
            view,
            events,
            mut edt,
            threshold,
            progress,
            lost_gaps,
            garbled_lines,
            dot_degraded,
            window,
            metrics,
            ..
        } = mon;
        let PlanView {
            scene,
            mut space,
            map,
            ..
        } = view.expect("dot adopted above");
        // Drain the EDT so the final frame shows every landed color.
        edt.advance_into(u64::MAX, &mut space);
        // Settle the gauges on the session's final state so a scrape
        // after the run reads the converged picture.
        if let Some(m) = &metrics {
            m.edt_queue_depth.set(edt.backlog() as f64);
            m.set_progress(&progress.snapshot());
        }

        let final_states = PairElision.analyse(&events);
        let threshold_states = threshold
            .map(|t| {
                events
                    .iter()
                    .map(|e| (e.pc, t.state(e.pc)))
                    .collect::<HashMap<_, _>>()
            })
            .unwrap_or_default();

        Ok(OnlineOutcome {
            plan,
            verify,
            dot_text: used_dot.unwrap_or(dot_text),
            scene,
            space,
            map,
            events,
            final_states,
            threshold_states,
            edt_stats: edt.stats,
            samples_dropped: window.evicted(),
            result_rows,
            progress: progress.snapshot(),
            elapsed: started.elapsed(),
            transport,
            chaos_report,
            lost_gaps,
            garbled_lines,
            synthesized_dones,
            dot_degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_engine::{Bat, TableDef};
    use stetho_mal::MalType;

    fn catalog_sized(n: i64) -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.add_table(
            TableDef::new(
                "lineitem",
                vec![
                    (
                        "l_partkey".into(),
                        MalType::Int,
                        Bat::ints((0..n).map(|i| i % 10).collect()),
                    ),
                    (
                        "l_tax".into(),
                        MalType::Dbl,
                        Bat::dbls((0..n).map(|i| i as f64 * 0.001).collect()),
                    ),
                ],
            )
            .unwrap(),
        );
        Arc::new(c)
    }

    fn catalog() -> Arc<Catalog> {
        catalog_sized(500)
    }

    #[test]
    fn online_session_end_to_end() {
        let cfg = OnlineConfig {
            pacing_ms: 0, // drain immediately in tests
            ..Default::default()
        };
        let out = OnlineSession::run(
            catalog(),
            "select l_tax from lineitem where l_partkey = 1",
            &cfg,
        )
        .unwrap();
        assert_eq!(out.result_rows, 50);
        assert_eq!(out.events.len(), out.plan.len() * 2);
        assert_eq!(out.progress.done, out.plan.len(), "progress reads 100%");
        assert_eq!(out.progress.fraction, 1.0);
        assert!(!out.dot_text.is_empty());
        assert!(out.verify.is_clean(), "compiled plan verifies clean");
        assert_eq!(out.scene.nodes.len(), out.plan.len());
        assert!(out.edt_stats.dispatched > 0);
        assert!(!out.dot_degraded, "loopback UDP delivers the dot intact");
        assert_eq!(out.synthesized_dones, 0);
        assert_eq!(out.transport.lost, 0);
        assert!(out.transport.received > 0, "framed transport counts frames");
        // Trace and dot files were written by the monitor.
        assert!(cfg.trace_path.exists());
        assert!(cfg.dot_path.exists());
        std::fs::remove_file(&cfg.trace_path).ok();
        std::fs::remove_file(&cfg.dot_path).ok();
    }

    #[test]
    fn online_parallel_with_mitosis() {
        let cfg = OnlineConfig {
            partitions: 4,
            workers: 4,
            pacing_ms: 0,
            ..Default::default()
        };
        let catalog = catalog_sized(200_000);
        let compiled = compile_with(
            &catalog,
            "select l_tax from lineitem where l_partkey = 3",
            &CompileOptions::with_partitions(cfg.partitions),
        )
        .unwrap();
        // Four independent sleeps beside the query: a worker that sleeps
        // leaves its CPU to the others, so the trace certainly shows more
        // than one worker, however busy the host is.
        let mut plan = compiled.plan;
        for _ in 0..4 {
            plan.instructions.push(stetho_mal::Instruction {
                pc: plan.len(),
                module: "alarm".into(),
                function: "sleep".into(),
                results: Vec::new(),
                args: vec![stetho_mal::Arg::Lit(stetho_mal::Value::Int(25))],
            });
        }
        let out = OnlineSession::watch(catalog, plan, &cfg, Instant::now()).unwrap();
        assert_eq!(out.result_rows, 20_000);
        // The mitosis plan is wide; all its instructions traced.
        assert!(out.plan.len() > 20);
        assert_eq!(out.events.len(), out.plan.len() * 2);
        let threads: std::collections::HashSet<usize> =
            out.events.iter().map(|e| e.thread).collect();
        assert!(threads.len() >= 2, "parallel execution visible in trace");
        std::fs::remove_file(&cfg.trace_path).ok();
        std::fs::remove_file(&cfg.dot_path).ok();
    }

    #[test]
    fn server_filter_keeps_rejected_events_off_the_wire() {
        // Over UDP and over a clean chaos link, the server's profiler
        // sends only `algebra.*` events: they alone reach the outcome
        // and the trace file, and fewer frames cross the wire.
        let key = |e: &TraceEvent| (e.event, e.pc, e.status);
        for chaos in [None, Some(ChaosConfig::clean(12))] {
            let run = |filter: FilterOptions| {
                let cfg = OnlineConfig {
                    pacing_ms: 0,
                    filter,
                    chaos,
                    ..Default::default()
                };
                let out = OnlineSession::run(
                    catalog(),
                    "select l_tax from lineitem where l_partkey = 1",
                    &cfg,
                )
                .unwrap();
                let traced = stetho_profiler::TraceFile::new(&cfg.trace_path)
                    .read()
                    .unwrap();
                std::fs::remove_file(&cfg.trace_path).ok();
                std::fs::remove_file(&cfg.dot_path).ok();
                (out, traced)
            };
            let (all, _) = run(FilterOptions::all());
            let (algebra, traced) = run(FilterOptions::all().with_module("algebra"));
            let want: Vec<_> = all
                .events
                .iter()
                .filter(|e| e.module() == "algebra")
                .map(key)
                .collect();
            assert!(!want.is_empty(), "{chaos:?}");
            assert_eq!(algebra.events.iter().map(key).collect::<Vec<_>>(), want);
            assert_eq!(traced.iter().map(key).collect::<Vec<_>>(), want);
            assert!(
                algebra.transport.received < all.transport.received,
                "{chaos:?}: {} frames filtered against {} unfiltered",
                algebra.transport.received,
                all.transport.received
            );
        }
    }

    #[test]
    fn threshold_algorithm_runs_when_configured() {
        let cfg = OnlineConfig {
            threshold_usec: Some(0), // everything is "costly"
            pacing_ms: 0,
            ..Default::default()
        };
        let out =
            OnlineSession::run(catalog(), "select sum(l_tax) as s from lineitem", &cfg).unwrap();
        assert!(!out.threshold_states.is_empty());
        std::fs::remove_file(&cfg.trace_path).ok();
        std::fs::remove_file(&cfg.dot_path).ok();
    }

    #[test]
    fn no_glyph_stays_red_once_its_done_was_observed() {
        // Regression for the stale-RED bug: with a tiny sample window a
        // node colored RED in one round elides (or slides out of the
        // window) in a later round, and the old `changes()` path never
        // emitted the revert — the glyph stayed RED on the final frame
        // even though its `done` was in the trace.
        let cfg = OnlineConfig {
            pacing_ms: 0,
            sample_capacity: 8,
            ..Default::default()
        };
        let out = OnlineSession::run(
            catalog_sized(100_000),
            "select l_tax from lineitem where l_partkey = 2",
            &cfg,
        )
        .unwrap();
        // Every instruction completed on the wire.
        assert_eq!(out.events.len(), out.plan.len() * 2);
        for pc in 0..out.plan.len() {
            if let Some(g) = out.map.shape_of_pc(pc) {
                assert_ne!(
                    out.space.glyph(g).color,
                    stetho_zvtm::Color::RED,
                    "pc {pc} completed but its glyph is still RED"
                );
            }
        }
        std::fs::remove_file(&cfg.trace_path).ok();
        std::fs::remove_file(&cfg.dot_path).ok();
    }

    #[test]
    fn compile_errors_surface() {
        let cfg = OnlineConfig::default();
        let r = OnlineSession::run(catalog(), "select nothing from nowhere", &cfg);
        assert!(r.is_err());
    }

    #[test]
    fn runtime_failure_ends_the_session_promptly() {
        // l_partkey holds zeros, so the division fails and the server
        // sends no `eot`. Its exit still closes the stream, so the
        // session reports the query's error instead of waiting out its
        // deadline.
        let cfg = OnlineConfig {
            pacing_ms: 0,
            ..Default::default()
        };
        let started = Instant::now();
        let err = OnlineSession::run(
            catalog(),
            "select l_tax / l_partkey as r from lineitem",
            &cfg,
        )
        .err()
        .expect("division by zero fails the query");
        assert!(!err.msg.contains("timed out"), "{err}");
        assert!(
            started.elapsed() < DEFAULT_TIMEOUT / 2,
            "{:?}",
            started.elapsed()
        );
        std::fs::remove_file(&cfg.trace_path).ok();
        std::fs::remove_file(&cfg.dot_path).ok();
    }

    #[test]
    fn chaos_free_link_matches_udp_behavior() {
        let cfg = OnlineConfig {
            pacing_ms: 0,
            chaos: Some(ChaosConfig::clean(11)),
            ..Default::default()
        };
        let out = OnlineSession::run(
            catalog(),
            "select l_tax from lineitem where l_partkey = 1",
            &cfg,
        )
        .unwrap();
        assert_eq!(out.result_rows, 50);
        assert_eq!(out.events.len(), out.plan.len() * 2);
        assert_eq!(out.progress.fraction, 1.0);
        assert!(!out.dot_degraded);
        assert_eq!(out.transport.lost, 0);
        assert_eq!(out.transport.duplicated, 0);
        assert_eq!(out.synthesized_dones, 0);
        std::fs::remove_file(&cfg.trace_path).ok();
        std::fs::remove_file(&cfg.dot_path).ok();
    }

    #[test]
    fn metrics_cover_the_whole_stack_under_chaos() {
        let registry = Arc::new(stetho_obsv::Registry::new());
        let cfg = OnlineConfig {
            pacing_ms: 0,
            partitions: 4,
            workers: 4,
            sample_capacity: 32,
            chaos: Some(ChaosConfig::hostile(42)),
            metrics: Some(Arc::clone(&registry)),
            ..Default::default()
        };
        let out = OnlineSession::run(
            catalog_sized(50_000),
            "select l_tax from lineitem where l_partkey = 1",
            &cfg,
        )
        .unwrap();
        let snap = registry.snapshot();
        // Engine scheduler: every instruction of the parallel run counted.
        assert_eq!(
            snap.counter_total("stetho_scheduler_executed_total"),
            out.plan.len() as u64
        );
        // Transport bridge mirrors the receiver's own counters exactly.
        assert_eq!(
            snap.counter_total("stetho_transport_lost_total"),
            out.transport.lost
        );
        assert_eq!(
            snap.counter_total("stetho_transport_received_total"),
            out.transport.received
        );
        // Sample-buffer loss rides along.
        assert_eq!(
            snap.counter_total("stetho_samples_dropped_total"),
            out.samples_dropped
        );
        // Session rounds ran and were timed.
        let rounds = snap.counter_total("stetho_edt_rounds_total");
        assert!(rounds > 0);
        let analyse = snap.family("stetho_session_analyse_usec").unwrap();
        match &analyse.samples[0].value {
            stetho_obsv::SampleValue::Histogram { count, .. } => {
                assert_eq!(*count, rounds, "every round observed once")
            }
            other => panic!("unexpected {other:?}"),
        }
        // Progress gauges settled on the converged picture.
        let fraction = snap.gauge_value("stetho_progress_fraction").unwrap();
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction out of range: {fraction}"
        );
        assert_eq!(fraction, 1.0, "hostile session still converges");
        assert_eq!(
            snap.gauge_value("stetho_progress_total"),
            Some(out.plan.len() as f64)
        );
        assert_eq!(snap.gauge_value("stetho_edt_queue_depth"), Some(0.0));
        // And the whole thing renders as a scrapeable exposition.
        let text = registry.render_text();
        for family in [
            "stetho_scheduler_executed_total",
            "stetho_transport_lost_total",
            "stetho_samples_dropped_total",
            "stetho_session_analyse_usec_bucket",
            "stetho_progress_fraction",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        std::fs::remove_file(&cfg.trace_path).ok();
        std::fs::remove_file(&cfg.dot_path).ok();
    }

    #[test]
    fn hostile_link_session_converges() {
        let cfg = OnlineConfig {
            pacing_ms: 0,
            chaos: Some(ChaosConfig::hostile(23)),
            ..Default::default()
        };
        let out = OnlineSession::run(
            catalog(),
            "select l_tax from lineitem where l_partkey = 1",
            &cfg,
        )
        .unwrap();
        assert_eq!(out.result_rows, 50, "the query itself is unaffected");
        // The animation converged: nothing is left RED, and progress
        // accounts for every instruction as done or lost.
        assert!(out.final_states.values().all(|c| *c != ColorState::Red));
        assert_eq!(out.progress.fraction, 1.0, "{:?}", out.progress);
        // The seeded schedule at 20/5/10/30 certainly corrupts a
        // 100+ frame stream somewhere.
        let t = out.transport;
        assert!(t.lost + t.duplicated + t.reordered + t.garbled > 0, "{t:?}");
        std::fs::remove_file(&cfg.trace_path).ok();
        std::fs::remove_file(&cfg.dot_path).ok();
    }
}
