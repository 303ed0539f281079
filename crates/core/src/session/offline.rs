//! Offline mode (§4.1).
//!
//! "Offline mode needs access to a preexisting dot file and trace file.
//! Once the off-line mode is selected, and the initial dot file parsing
//! to graph structure creation stage is over, interactive analysis
//! begins."
//!
//! Loading runs the paper's full shared pipeline: the dot text is parsed,
//! laid out, written to SVG, and the SVG parsed back into the in-memory
//! scene graph the viewer navigates (§4: dot → svg → graph structure).

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use stetho_dot::{parse_dot, Graph};
use stetho_profiler::tracefile::read_events;
use stetho_profiler::{FilterOptions, TraceEvent};
use stetho_zvtm::overview::{birdseye, duration_colors, trace_strip};
use stetho_zvtm::render::{render, render_svg_frame, Framebuffer, RenderOptions};
use stetho_zvtm::{Camera, EventDispatchThread};

use crate::color::ColorState;
use crate::inspect::{tooltip, ToolTip};
use crate::mapping::PcIndex;
use crate::metrics::SessionMetrics;
use crate::replay::ReplayController;
use crate::session::{PlanView, SessionError};

/// An interactive offline analysis session.
pub struct OfflineSession {
    /// The parsed dot graph.
    pub graph: Graph,
    /// Scene, glyph canvas and pc map of the laid-out plan.
    pub view: PlanView,
    /// The replay engine.
    pub replay: ReplayController,
    /// The viewer camera.
    pub camera: Camera,
    /// The paced render queue.
    pub edt: EventDispatchThread,
    /// Virtual session clock (ms) driving the EDT.
    pub now_ms: u64,
    instruments: Option<SessionMetrics>,
}

impl OfflineSession {
    /// Build a session from dot text and trace text.
    pub fn load_text(dot_text: &str, trace_text: &str) -> Result<Self, SessionError> {
        Self::load_filtered(dot_text, trace_text, &FilterOptions::all())
    }

    /// Build with a load-time event filter (§3 feature 4).
    pub fn load_filtered(
        dot_text: &str,
        trace_text: &str,
        filter: &FilterOptions,
    ) -> Result<Self, SessionError> {
        Self::load(dot_text, trace_text.as_bytes(), filter)
    }

    /// Build from preexisting dot and trace files.
    pub fn load_files(
        dot_path: impl AsRef<Path>,
        trace_path: impl AsRef<Path>,
    ) -> Result<Self, SessionError> {
        let dot_text = std::fs::read_to_string(dot_path)?;
        let trace = BufReader::new(File::open(trace_path)?);
        Self::load(&dot_text, trace, &FilterOptions::all())
    }

    fn load(
        dot_text: &str,
        trace: impl BufRead,
        filter: &FilterOptions,
    ) -> Result<Self, SessionError> {
        let graph = parse_dot(dot_text).map_err(|e| SessionError::new(format!("dot: {e}")))?;
        let events =
            read_events(trace, filter).map_err(|e| SessionError::new(format!("trace {e}")))?;
        Self::from_parts(graph, events)
    }

    /// Build from an already-parsed graph and event list.
    pub fn from_parts(graph: Graph, events: Vec<TraceEvent>) -> Result<Self, SessionError> {
        let view = PlanView::build(&graph)?;
        let mut camera = Camera::default();
        if !view.space.is_empty() {
            camera.fit(view.space.bounds(), 1280.0, 800.0, 1.05);
        }
        Ok(OfflineSession {
            graph,
            replay: ReplayController::over(events, view.map.index().clone()),
            view,
            camera,
            edt: EventDispatchThread::paper_default(),
            now_ms: 0,
            instruments: None,
        })
    }

    /// Publish self-observability into `registry`: each replay round
    /// records its analyse latency against the EDT's pacing budget, and
    /// the EDT backlog is kept as a gauge.
    pub fn with_metrics(mut self, registry: Arc<stetho_obsv::Registry>) -> Self {
        self.instruments = Some(SessionMetrics::new(&registry));
        self
    }

    /// Step one event forward and propagate colors through the EDT.
    pub fn step(&mut self) -> bool {
        let advanced = self.replay.step_forward().is_some();
        self.sync_colors();
        advanced
    }

    /// Step one event backward.
    pub fn step_back(&mut self) {
        self.replay.step_backward();
        self.sync_colors();
    }

    /// Seek to an absolute event index.
    pub fn seek(&mut self, idx: usize) {
        self.replay.seek(idx);
        self.sync_colors();
    }

    /// Run the replay to the end.
    pub fn run_to_end(&mut self) {
        self.replay.seek(self.replay.len());
        self.sync_colors();
    }

    /// Advance the session clock, letting paced renders land on glyphs.
    pub fn advance_ms(&mut self, dt: u64) {
        self.now_ms += dt;
        self.edt.advance_into(self.now_ms, &mut self.view.space);
        if let Some(m) = &self.instruments {
            m.edt_queue_depth.set(self.edt.backlog() as f64);
        }
    }

    /// Repaint from pair-elision over the applied prefix.
    fn sync_colors(&mut self) {
        let round_started = Instant::now();
        let prefix = &self.replay.events()[..self.replay.position()];
        self.view.paint(prefix, &mut self.edt, self.now_ms);
        if let Some(m) = &self.instruments {
            m.record_round(
                round_started.elapsed().as_micros() as u64,
                self.edt.pacing_ms,
            );
            m.edt_queue_depth.set(self.edt.backlog() as f64);
        }
    }

    /// Current color state of a node.
    pub fn node_state(&self, pc: usize) -> ColorState {
        self.view.state(pc)
    }

    /// Tool-tip for a node (§3 feature 3).
    pub fn tooltip(&self, pc: usize) -> Option<ToolTip> {
        tooltip(&self.view.map, &self.replay, pc)
    }

    /// Verify the §3.3 contract between the loaded dot file and trace:
    /// every trace event's pc must map to a node whose label equals the
    /// event's stmt. Returns the pcs that violate it — non-empty means
    /// the dot and trace files belong to different plans.
    pub fn verify_contract(&self) -> Vec<usize> {
        let events = self.replay.events().iter();
        let bad = events.filter(|e| !self.view.map.stmt_matches(e.pc, &e.stmt));
        PcIndex::new(bad.map(|e| e.pc)).into_pcs()
    }

    /// Hit-test a click in world coordinates and return the node's pc.
    pub fn click(&self, wx: f64, wy: f64) -> Option<usize> {
        let idx = self.view.scene.hit_test(wx, wy)?;
        stetho_dot::plan_conv::node_name_to_pc(&self.view.scene.nodes[idx].name)
    }

    /// Animate-less jump of the camera onto a node (navigation).
    pub fn focus_node(&mut self, pc: usize) -> bool {
        let Some(idx) = self.view.map.node_of_pc(pc) else {
            return false;
        };
        let n = &self.view.scene.nodes[idx];
        self.camera.cx = n.x;
        self.camera.cy = n.y;
        self.camera.altitude = 0.0;
        true
    }

    /// Render the current display window as SVG (Figure 4's frame).
    pub fn render_frame_svg(&self) -> String {
        render_svg_frame(&self.view.space)
    }

    /// Rasterise the current viewport.
    pub fn render_frame(&self, width: usize, height: usize) -> Framebuffer {
        render(
            &self.view.space,
            &self.camera,
            width,
            height,
            &RenderOptions::default(),
        )
    }

    /// Birds-eye thumbnail of the whole plan (§5).
    pub fn birdseye(&self, width: usize, height: usize) -> Framebuffer {
        birdseye(&self.view.space, width, height)
    }

    /// Birds-eye strip of the whole trace, colored by duration (§5
    /// "sequence of instruction execution clustering").
    pub fn trace_overview(&self, width: usize, height: usize) -> Framebuffer {
        let durations: Vec<u64> = self
            .replay
            .events()
            .iter()
            .filter(|e| e.status == stetho_profiler::EventStatus::Done)
            .map(|e| e.usec)
            .collect();
        trace_strip(&duration_colors(&durations), width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::PairElision;
    use stetho_profiler::format_event;

    fn dot_text() -> String {
        r#"digraph p {
            n0 [label="X_0 := sql.mvc();"];
            n1 [label="X_1 := sql.tid(X_0);"];
            n2 [label="X_2 := algebra.select(X_1);"];
            n3 [label="X_3 := algebra.projection(X_2);"];
            n0 -> n1; n1 -> n2; n2 -> n3;
        }"#
        .to_string()
    }

    fn trace_text() -> String {
        let mut lines = Vec::new();
        let stmts = [
            "X_0 := sql.mvc();",
            "X_1 := sql.tid(X_0);",
            "X_2 := algebra.select(X_1);",
            "X_3 := algebra.projection(X_2);",
        ];
        let mut seq = 0;
        for (pc, stmt) in stmts.iter().enumerate() {
            let base = pc as u64 * 100;
            lines.push(format_event(&TraceEvent::start(
                seq, pc, 0, base, 100, *stmt,
            )));
            seq += 1;
            lines.push(format_event(&TraceEvent::done(
                seq,
                pc,
                0,
                base + 50,
                50,
                120,
                *stmt,
            )));
            seq += 1;
        }
        lines.join("\n")
    }

    #[test]
    fn load_runs_full_pipeline() {
        let s = OfflineSession::load_text(&dot_text(), &trace_text()).unwrap();
        assert_eq!(s.view.scene.nodes.len(), 4);
        assert_eq!(s.view.map.len(), 4);
        assert_eq!(s.replay.len(), 8);
        // Space has shape+text per node plus 3 edges.
        assert_eq!(s.view.space.len(), 4 * 2 + 3);
    }

    #[test]
    fn stepping_queues_colors_and_edt_paces_them() {
        let mut s = OfflineSession::load_text(&dot_text(), &trace_text()).unwrap();
        // Apply 3 events: start0, done0, start1 → pc0 elided/green-ish,
        // pc1 pending (last event), nothing yet rendered on glyphs.
        s.step();
        s.step();
        s.step();
        assert!(s.edt.backlog() > 0 || s.edt.stats.dispatched > 0);
        let glyph0 = s.view.map.shape_of_pc(0).unwrap();
        // Colors land only as the clock advances.
        s.advance_ms(1);
        let _ = s.view.space.glyph(glyph0).color;
        s.advance_ms(10_000);
        assert_eq!(s.edt.backlog(), 0, "clock advance drains the queue");
    }

    #[test]
    fn full_replay_marks_all_progress() {
        let mut s = OfflineSession::load_text(&dot_text(), &trace_text()).unwrap();
        s.run_to_end();
        assert!(s.replay.at_end());
        for pc in 0..4 {
            assert!(!s.replay.node(pc).running());
            assert_eq!(s.replay.node(pc).dones, 1);
        }
    }

    /// Advance the clock until every queued repaint has landed.
    fn drain(s: &mut OfflineSession) {
        while s.edt.backlog() > 0 {
            s.advance_ms(10_000);
        }
    }

    #[test]
    fn rewind_repaints_to_the_prefix_colors() {
        // Interleaved starts leave every node GREEN at the end, so each
        // rewind has to revert some nodes to RED or to the default fill.
        let stmts = [
            "X_0 := sql.mvc();",
            "X_1 := sql.tid(X_0);",
            "X_2 := algebra.select(X_1);",
            "X_3 := algebra.projection(X_2);",
        ];
        let order = [(0, true), (1, true), (0, false), (2, true)]
            .into_iter()
            .chain([(1, false), (2, false), (3, true), (3, false)]);
        let events: Vec<TraceEvent> = order
            .enumerate()
            .map(|(seq, (pc, start))| {
                let clk = seq as u64 * 10;
                if start {
                    TraceEvent::start(seq as u64, pc, 0, clk, 100, stmts[pc])
                } else {
                    TraceEvent::done(seq as u64, pc, 0, clk, 10, 100, stmts[pc])
                }
            })
            .collect();
        let text: Vec<String> = events.iter().map(format_event).collect();
        let mut s = OfflineSession::load_text(&dot_text(), &text.join("\n")).unwrap();
        s.run_to_end();
        drain(&mut s);
        for pc in 0..4 {
            assert_eq!(s.node_state(pc), ColorState::Green, "pc {pc} at the end");
        }
        let len = events.len();
        for k in [0, len / 2, len - 1] {
            s.seek(k);
            drain(&mut s);
            let expected = PairElision.analyse(&events[..k]);
            for pc in 0..4 {
                let state = expected.get(&pc).copied().unwrap_or(ColorState::Uncolored);
                assert_eq!(s.node_state(pc), state, "pc {pc} after seek({k})");
                let glyph = s.view.map.shape_of_pc(pc).unwrap();
                assert_eq!(
                    s.view.space.glyph(glyph).color,
                    state.fill(),
                    "pc {pc} fill after seek({k})"
                );
            }
        }
    }

    #[test]
    fn tooltips_and_clicks() {
        let mut s = OfflineSession::load_text(&dot_text(), &trace_text()).unwrap();
        s.seek(3);
        let tip = s.tooltip(1).unwrap();
        assert!(tip.stmt.contains("sql.tid"));
        // Click on node n2's coordinates.
        let n2 = &s.view.scene.nodes[2];
        assert_eq!(s.click(n2.x, n2.y), Some(2));
        assert_eq!(s.click(-100.0, -100.0), None);
    }

    #[test]
    fn focus_and_render() {
        let mut s = OfflineSession::load_text(&dot_text(), &trace_text()).unwrap();
        assert!(s.focus_node(2));
        assert!(!s.focus_node(99));
        let svg = s.render_frame_svg();
        assert!(svg.contains("algebra.select"));
        let fb = s.render_frame(200, 150);
        assert_eq!(fb.width, 200);
        let bird = s.birdseye(64, 48);
        assert_eq!(bird.width, 64);
        let strip = s.trace_overview(32, 4);
        assert_eq!(strip.width, 32);
    }

    #[test]
    fn filter_drops_events_at_load() {
        let filter = FilterOptions::all().with_module("algebra");
        let s = OfflineSession::load_filtered(&dot_text(), &trace_text(), &filter).unwrap();
        assert_eq!(
            s.replay.len(),
            4,
            "only the two algebra instructions remain"
        );
    }

    #[test]
    fn load_files_round_trip() {
        let dir = std::env::temp_dir();
        let dot_path = dir.join(format!("stetho_off_{}.dot", std::process::id()));
        let trace_path = dir.join(format!("stetho_off_{}.trace", std::process::id()));
        std::fs::write(&dot_path, dot_text()).unwrap();
        std::fs::write(&trace_path, trace_text()).unwrap();
        let s = OfflineSession::load_files(&dot_path, &trace_path).unwrap();
        assert_eq!(s.replay.len(), 8);
        std::fs::remove_file(dot_path).ok();
        std::fs::remove_file(trace_path).ok();
    }

    #[test]
    fn metrics_track_replay_rounds() {
        let registry = Arc::new(stetho_obsv::Registry::new());
        let mut s = OfflineSession::load_text(&dot_text(), &trace_text())
            .unwrap()
            .with_metrics(Arc::clone(&registry));
        s.run_to_end();
        s.advance_ms(10_000);
        let snap = registry.snapshot();
        assert!(snap.counter_total("stetho_edt_rounds_total") > 0);
        assert_eq!(
            snap.gauge_value("stetho_edt_queue_depth"),
            Some(0.0),
            "clock advance drained the queue"
        );
        assert!(snap.family("stetho_session_analyse_usec").is_some());
    }

    #[test]
    fn bad_inputs_error() {
        assert!(OfflineSession::load_text("not dot", "").is_err());
        assert!(OfflineSession::load_text(&dot_text(), "garbage line").is_err());
    }

    #[test]
    fn stmt_contract_holds_between_trace_and_dot() {
        let s = OfflineSession::load_text(&dot_text(), &trace_text()).unwrap();
        for e in s.replay.events() {
            assert!(
                s.view.map.stmt_matches(e.pc, &e.stmt),
                "trace stmt must equal dot label for pc {}",
                e.pc
            );
        }
    }
}
