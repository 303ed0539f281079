//! Building blocks shared by the online, offline and multi-server modes:
//! the plan view every mode paints on, and the "mserver" query thread.

use std::sync::Arc;
use std::thread::JoinHandle;

use stetho_dot::Graph;
use stetho_engine::{Catalog, ExecOptions, Interpreter, ProfilerConfig, UdpSink};
use stetho_layout::{layout, parse_svg, write_svg, LayoutOptions, SceneGraph};
use stetho_mal::Plan;
use stetho_profiler::{FilterOptions, ProfilerEmitter, StopHandle, TraceEvent};
use stetho_zvtm::{EventDispatchThread, VirtualSpace};

use crate::color::{diff_into, ColorChange, ColorState, ElisionWindow, PairElision};
use crate::mapping::TraceDotMap;
use crate::session::SessionError;

/// A laid-out plan and the colors painted on it: the dot → layout → SVG
/// → scene → glyph space + pc map pipeline, and the one policy for what a
/// node looks like after a coloring round.
pub struct PlanView {
    /// The laid-out scene (product of the dot → svg → graph pipeline).
    pub scene: SceneGraph,
    /// The glyph canvas.
    pub space: VirtualSpace,
    /// pc ↔ node ↔ glyph resolution.
    pub map: TraceDotMap,
    /// The state last enqueued on the EDT, per slot of `map`'s pcs.
    painted: Vec<ColorState>,
    /// One round's changes; kept to reuse its allocation.
    changes: Vec<ColorChange>,
}

impl PlanView {
    /// Run the shared pipeline on a parsed dot graph.
    pub(crate) fn build(graph: &Graph) -> Result<Self, SessionError> {
        let laid = layout(graph, &LayoutOptions::default());
        let scene =
            parse_svg(&write_svg(&laid)).map_err(|e| SessionError::new(format!("svg: {e}")))?;
        let (space, node_glyphs) = VirtualSpace::from_scene(&scene);
        let mut map = TraceDotMap::from_scene(&scene);
        map.attach_glyphs(&node_glyphs);
        Ok(PlanView {
            painted: vec![ColorState::Uncolored; map.len()],
            scene,
            space,
            map,
            changes: Vec::new(),
        })
    }

    /// Color `window` with pair-elision and enqueue on `edt` a fill for
    /// every node whose state differs from what is painted — including
    /// reverts to the default fill for nodes that elided or left the
    /// window. Only the map's pcs are painted.
    pub(crate) fn paint(
        &mut self,
        window: &[TraceEvent],
        edt: &mut EventDispatchThread,
        now_ms: u64,
    ) {
        let (index, painted) = (self.map.index(), &self.painted);
        let was = index.pcs().iter().copied().zip(painted.iter().copied());
        diff_into(
            &PairElision.analyse(window),
            |pc| index.slot(pc).map_or(ColorState::Uncolored, |s| painted[s]),
            was,
            &mut self.changes,
        );
        self.apply(edt, now_ms);
    }

    /// [`PlanView::paint`] for a window kept incrementally: only the pcs
    /// `window` marked dirty since the last round are compared against
    /// what is painted, which yields the same changes in the same order.
    pub(crate) fn paint_window(
        &mut self,
        window: &mut ElisionWindow,
        edt: &mut EventDispatchThread,
        now_ms: u64,
    ) {
        self.changes.clear();
        let (index, painted) = (self.map.index(), &self.painted);
        window.changes(
            |pc| index.slot(pc).map_or(ColorState::Uncolored, |s| painted[s]),
            &mut self.changes,
        );
        self.apply(edt, now_ms);
    }

    /// Enqueue this round's changes and record them as painted.
    fn apply(&mut self, edt: &mut EventDispatchThread, now_ms: u64) {
        for c in &self.changes {
            let Some(slot) = self.map.index().slot(c.pc) else {
                continue;
            };
            if let Some(g) = self.map.shape_of_pc(c.pc) {
                edt.enqueue(g, c.state.fill(), now_ms);
            }
            self.painted[slot] = c.state;
        }
    }

    /// The state last painted on a node.
    pub(crate) fn state(&self, pc: usize) -> ColorState {
        let slot = self.map.index().slot(pc);
        slot.map_or(ColorState::Uncolored, |s| self.painted[s])
    }
}

/// Closes a UDP stream once every server holding a clone has exited.
///
/// Each server sends its last frame before its clone drops, so when the
/// last clone stops the listener, everything the servers sent is queued
/// ahead of the stop marker. The monitor then reads the stream until it
/// closes, whether or not `eot` survived the trip. A chaos link needs
/// none (`StreamCloser(None)`): it closes when its endpoints drop.
pub(crate) struct StreamCloser(pub Option<StopHandle>);

impl Drop for StreamCloser {
    fn drop(&mut self) {
        if let Some(stop) = &self.0 {
            stop.stop();
        }
    }
}

/// One query to run on an engine instance: optionally send the dot text,
/// execute with the profiler streaming over a [`UdpSink`], then send
/// end-of-trace.
pub(crate) struct Server {
    pub catalog: Arc<Catalog>,
    pub plan: Plan,
    /// Dot text sent before execution begins, if any.
    pub dot: Option<String>,
    /// The profiler's filter (§3): events it rejects are never sent.
    pub filter: FilterOptions,
    /// Engine worker threads (0 or 1 = sequential interpreter).
    pub workers: usize,
    pub metrics: Option<Arc<stetho_obsv::Registry>>,
    /// Dropped when the server thread exits, after its last frame.
    pub closer: Arc<StreamCloser>,
}

/// A running [`Server`] thread.
pub(crate) struct ServerHandle {
    name: String,
    thread: JoinHandle<Result<usize, SessionError>>,
}

impl Server {
    /// Run the query in a thread named `mserver-<name>`, streaming over
    /// `emitter`. The emitter and the closer drop with the thread, which
    /// closes the stream: an in-memory link through the emitter, UDP
    /// through the closer.
    pub(crate) fn spawn(
        self,
        name: &str,
        emitter: ProfilerEmitter,
    ) -> Result<ServerHandle, SessionError> {
        let thread = std::thread::Builder::new()
            .name(format!("mserver-{name}"))
            .spawn(move || -> Result<usize, SessionError> {
                // Declared first, so it drops last: after every send.
                let _closer = self.closer;
                if let Some(dot) = &self.dot {
                    emitter.send_dot(&self.plan.name, dot);
                }
                let sink = UdpSink::new(emitter);
                let mut profiler = ProfilerConfig::to_sink(sink.clone());
                profiler.filter = self.filter;
                let mut opts = if self.workers > 1 {
                    ExecOptions::parallel(self.workers, profiler)
                } else {
                    ExecOptions::profiled(profiler)
                };
                opts.metrics = self.metrics;
                let out = Interpreter::new(self.catalog)
                    .execute(&self.plan, &opts)
                    .map_err(|e| SessionError::new(e.to_string()))?;
                sink.emitter().send_end_of_trace();
                Ok(out.result.map(|r| r.rows()).unwrap_or(0))
            })?;
        Ok(ServerHandle {
            name: name.to_string(),
            thread,
        })
    }
}

impl ServerHandle {
    /// Wait for the query; yields its result row count.
    pub(crate) fn join(self) -> Result<usize, SessionError> {
        self.thread
            .join()
            .map_err(|_| SessionError::new(format!("{}: query thread panicked", self.name)))?
    }
}
