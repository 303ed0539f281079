//! Profiler sinks — where the engine's trace events go.
//!
//! The paper's profiler either streams events over UDP to the textual
//! Stethoscope or dumps them in a file (§3). We add an in-memory sink for
//! tests/analysis and a tee for doing several at once. Server-side
//! filtering ("the profiler accepts filter options ... enables it to
//! profile only a subset of event types") is applied by
//! [`ProfilerConfig`] before events reach the sink.

use std::sync::Arc;

use parking_lot::Mutex;
use stetho_profiler::tracefile::TraceWriter;
use stetho_profiler::{EventStatus, FilterOptions, ProfilerEmitter, TraceEvent};

/// Destination for profiler events. Implementations must tolerate
/// concurrent emission from scheduler workers.
///
/// A sink may hold a `done` event back, but only until the emitting
/// thread's next event or its next [`ProfilerSink::send_deferred`]: the
/// engine emits or calls one of them before that thread runs another
/// kernel, parks or leaves the run, so no held-back event waits across
/// a kernel.
pub trait ProfilerSink: Send + Sync {
    /// Deliver one event.
    fn event(&self, e: &TraceEvent);
    /// Send the events held back so far (no-op by default).
    fn send_deferred(&self) {}
    /// Flush buffered output, held-back events included (no-op by
    /// default).
    fn flush(&self) {}
}

/// Discards everything (profiling disabled).
#[derive(Debug, Default)]
pub struct NullSink;

impl ProfilerSink for NullSink {
    fn event(&self, _e: &TraceEvent) {}
}

/// Collects events in memory, ordered by arrival.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// Fresh empty sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Take the collected events out.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Copy the collected events, leaving them in place.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl ProfilerSink for VecSink {
    fn event(&self, e: &TraceEvent) {
        self.events.lock().push(e.clone());
    }
}

/// Appends events to a trace file.
pub struct FileSink {
    writer: Mutex<TraceWriter>,
}

impl FileSink {
    /// Create/truncate the trace file.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Arc<Self>> {
        Ok(Arc::new(FileSink {
            writer: Mutex::new(TraceWriter::create(path)?),
        }))
    }
}

impl ProfilerSink for FileSink {
    fn event(&self, e: &TraceEvent) {
        // Trace I/O failures must not abort query execution; they surface
        // as missing tail records, as with the real profiler's UDP loss.
        let _ = self.writer.lock().write_event(e);
    }

    fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

/// Streams events over UDP to a textual Stethoscope.
pub struct UdpSink {
    emitter: ProfilerEmitter,
}

impl UdpSink {
    /// Wrap a connected emitter.
    pub fn new(emitter: ProfilerEmitter) -> Arc<Self> {
        Arc::new(UdpSink { emitter })
    }

    /// Access the underlying emitter (to send dot files / end-of-trace).
    pub fn emitter(&self) -> &ProfilerEmitter {
        &self.emitter
    }
}

impl ProfilerSink for UdpSink {
    fn event(&self, e: &TraceEvent) {
        // A `done` rides in the datagram of the thread's next `start`, a
        // scheduling step later; a `start` leaves at once, so a node
        // turns RED without delay. Datagram loss is inherent to the
        // medium; ignore send errors.
        match e.status {
            EventStatus::Done => self.emitter.emit_deferred(e),
            EventStatus::Start => self.emitter.emit(e),
        }
    }

    fn send_deferred(&self) {
        self.emitter.send_queued();
    }

    fn flush(&self) {
        // A heartbeat consumes a sequence number, so the receiver can
        // distinguish "quiet emitter" from "losing datagrams" at sync
        // points (end of execution, scheduler barriers).
        self.emitter.send_heartbeat();
    }
}

/// Fans events out to several sinks.
pub struct TeeSink {
    sinks: Vec<Arc<dyn ProfilerSink>>,
}

impl TeeSink {
    /// Combine sinks.
    pub fn new(sinks: Vec<Arc<dyn ProfilerSink>>) -> Arc<Self> {
        Arc::new(TeeSink { sinks })
    }
}

impl ProfilerSink for TeeSink {
    fn event(&self, e: &TraceEvent) {
        for s in &self.sinks {
            s.event(e);
        }
    }

    fn send_deferred(&self) {
        for s in &self.sinks {
            s.send_deferred();
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Profiler configuration carried in [`crate::interp::ExecOptions`].
#[derive(Clone)]
pub struct ProfilerConfig {
    /// Destination.
    pub sink: Arc<dyn ProfilerSink>,
    /// Server-side filter applied before emission.
    pub filter: FilterOptions,
}

impl ProfilerConfig {
    /// Profiling disabled.
    pub fn off() -> Self {
        ProfilerConfig {
            sink: Arc::new(NullSink),
            filter: FilterOptions::all(),
        }
    }

    /// Everything to one sink, unfiltered.
    pub fn to_sink(sink: Arc<dyn ProfilerSink>) -> Self {
        ProfilerConfig {
            sink,
            filter: FilterOptions::all(),
        }
    }

    /// Emit one event through the filter. A `start` the filter rejects
    /// still begins a kernel, so the sink sends what it held back, as
    /// the [`ProfilerSink`] contract asks.
    pub fn emit(&self, e: &TraceEvent) {
        if self.filter.accepts(e) {
            self.sink.event(e);
        } else if e.status == EventStatus::Start {
            self.sink.send_deferred();
        }
    }
}

impl std::fmt::Debug for ProfilerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilerConfig")
            .field("filter", &self.filter)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64, stmt: &str) -> TraceEvent {
        TraceEvent {
            event: i,
            status: EventStatus::Start,
            pc: 0,
            thread: 0,
            clk: 0,
            usec: 0,
            rss: 0,
            stmt: stmt.into(),
        }
    }

    #[test]
    fn vec_sink_collects_and_takes() {
        let s = VecSink::new();
        s.event(&ev(0, "a.b();"));
        s.event(&ev(1, "a.b();"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.snapshot().len(), 2);
        let taken = s.take();
        assert_eq!(taken.len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn tee_fans_out() {
        let a = VecSink::new();
        let b = VecSink::new();
        let tee = TeeSink::new(vec![a.clone() as Arc<dyn ProfilerSink>, b.clone()]);
        tee.event(&ev(0, "x.y();"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn config_filter_applies() {
        let s = VecSink::new();
        let cfg = ProfilerConfig {
            sink: s.clone(),
            filter: FilterOptions::all().with_module("algebra"),
        };
        cfg.emit(&ev(0, "X := sql.bind(a);"));
        cfg.emit(&ev(1, "X := algebra.select(a);"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn file_sink_writes() {
        let mut p = std::env::temp_dir();
        p.push(format!("stetho_filesink_{}.trace", std::process::id()));
        let s = FileSink::create(&p).unwrap();
        s.event(&ev(0, "a.b();"));
        s.flush();
        let content = std::fs::read_to_string(&p).unwrap();
        assert!(content.contains("a.b()"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn null_sink_ignores() {
        NullSink.event(&ev(0, "a.b();"));
        ProfilerConfig::off().emit(&ev(0, "a.b();"));
    }

    use crate::catalog::Catalog;
    use crate::interp::{ExecOptions, Interpreter};
    use stetho_mal::parse_plan;
    use stetho_profiler::chaos::{ChaosConfig, ChaosLink, ChaosReceiver};
    use stetho_profiler::wire::{decode_datagram, DecodedDatagram, Frame, FrameBody};

    /// The trace events of one datagram, in wire order, or `None` for a
    /// frame that is not an event.
    fn datagram_events(bytes: &[u8]) -> Vec<Option<TraceEvent>> {
        std::str::from_utf8(bytes)
            .unwrap()
            .split('\n')
            .map(|line| match decode_datagram(line) {
                DecodedDatagram::Frame(Frame {
                    body: FrameBody::Event { line },
                    ..
                }) => Some(stetho_profiler::parse_event(&line).unwrap()),
                DecodedDatagram::Frame(_) => None,
                other => panic!("bad frame {other:?}"),
            })
            .collect()
    }

    /// Every datagram on `rx` until the link closes.
    fn drain(rx: &ChaosReceiver) -> Vec<Vec<Option<TraceEvent>>> {
        std::iter::from_fn(|| rx.recv())
            .map(|(_, bytes)| datagram_events(&bytes))
            .collect()
    }

    fn udp_sink(link: &ChaosLink) -> Arc<UdpSink> {
        UdpSink::new(ProfilerEmitter::over(link))
    }

    #[test]
    fn sequential_done_shares_a_datagram_with_the_next_start() {
        let plan = parse_plan(
            "X_0:int := sql.mvc();\n\
             X_1:int := calc.+(X_0, 1:int);\n\
             X_2:int := calc.+(X_1, 1:int);\n\
             X_3:int := calc.*(X_2, 2:int);\n\
             io.print(X_3);\n",
        )
        .unwrap();
        let link = ChaosLink::new(ChaosConfig::clean(3));
        let rx = link.receiver();
        let sink = udp_sink(&link);
        let opts = ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone()));
        Interpreter::new(Arc::new(Catalog::new()))
            .execute(&plan, &opts)
            .unwrap();
        drop((sink, opts, link));
        let datagrams = drain(&rx);
        // One datagram per scheduling step: `start 0`, then `done k` with
        // `start k+1`, then the last `done` with the closing heartbeat.
        assert_eq!(datagrams.len(), plan.len() + 1, "{datagrams:#?}");
        for (pc, d) in datagrams.iter().enumerate().take(plan.len()).skip(1) {
            let (done, start) = (d[0].as_ref().unwrap(), d[1].as_ref().unwrap());
            assert_eq!(d.len(), 2, "{d:#?}");
            assert_eq!((done.status, done.pc), (EventStatus::Done, pc - 1));
            assert_eq!((start.status, start.pc), (EventStatus::Start, pc));
        }
        let last = datagrams.last().unwrap();
        assert_eq!(last[0].as_ref().unwrap().pc, plan.len() - 1);
        assert!(last[1].is_none(), "heartbeat closes the run");
    }

    #[test]
    fn a_done_does_not_wait_across_the_next_kernel() {
        // An instant `sql.mvc` beside a sleep: its `done` must be on the
        // link while the sleep runs, ahead of the sleep's own `done`, not
        // when the run ends. Serially the sleep's `start` carries it. On
        // two workers the sleep is the oldest source, so one worker
        // sleeps while the other runs `sql.mvc` and then parks, sending
        // what it held back.
        let serial = parse_plan("X_0:int := sql.mvc();\nalarm.sleep(400:int);\n").unwrap();
        let dataflow = parse_plan("alarm.sleep(400:int);\nX_0:int := sql.mvc();\n").unwrap();
        for (plan, workers, fast, sleep) in [(&serial, 0, 0, 1), (&dataflow, 2, 1, 0)] {
            let link = ChaosLink::new(ChaosConfig::clean(4));
            let rx = link.receiver();
            let profiler = ProfilerConfig::to_sink(udp_sink(&link));
            let opts = if workers > 0 {
                ExecOptions::parallel(workers, profiler)
            } else {
                ExecOptions::profiled(profiler)
            };
            Interpreter::new(Arc::new(Catalog::new()))
                .execute(plan, &opts)
                .unwrap();
            drop((opts, link));
            let datagrams = drain(&rx);
            let done_in = |pc: usize| {
                datagrams.iter().position(|d| {
                    d.iter()
                        .flatten()
                        .any(|e| e.pc == pc && e.status == EventStatus::Done)
                })
            };
            let (fast_done, sleep_done) = (done_in(fast).unwrap(), done_in(sleep).unwrap());
            assert!(
                fast_done < sleep_done,
                "workers={workers}: pc {fast}'s done waited for the sleep: {datagrams:#?}"
            );
        }
    }

    #[test]
    fn a_start_the_filter_drops_still_sends_the_held_back_done() {
        // Only `done`s pass, so no `start` reaches the sink to carry
        // them; the filtered `start` of pc 1 must still send pc 0's
        // `done` before pc 1 runs, not at the end of the run.
        let plan = parse_plan("X_0:int := sql.mvc();\nalarm.sleep(1:int);\n").unwrap();
        let link = ChaosLink::new(ChaosConfig::clean(6));
        let rx = link.receiver();
        let profiler = ProfilerConfig {
            sink: udp_sink(&link),
            filter: FilterOptions::all().with_status(EventStatus::Done),
        };
        let opts = ExecOptions::profiled(profiler);
        Interpreter::new(Arc::new(Catalog::new()))
            .execute(&plan, &opts)
            .unwrap();
        drop((opts, link));
        let datagrams = drain(&rx);
        let pcs: Vec<Vec<usize>> = datagrams
            .iter()
            .map(|d| d.iter().flatten().map(|e| e.pc).collect())
            .collect();
        assert_eq!(pcs, vec![vec![0], vec![1]], "{datagrams:#?}");
    }

    #[test]
    fn a_failed_run_delivers_every_event_it_emitted() {
        // Division by zero fails an instruction before its `done`; the
        // arity check fails `X_3` after its `done` was emitted.
        let division = parse_plan(
            "X_0:int := sql.mvc();\n\
             X_1:int := calc.+(X_0, 1:int);\n\
             X_2:int := calc.+(X_0, 2:int);\n\
             X_3:int := calc./(X_1, 0:int);\n\
             io.print(X_3);\n\
             io.print(X_2);\n",
        )
        .unwrap();
        let arity = parse_plan(
            "X_0:int := sql.mvc();\n\
             X_1:int := calc.+(X_0, 1:int);\n\
             X_3:int := alarm.sleep(1:int);\n\
             io.print(X_1, X_3);\n",
        )
        .unwrap();
        for (plan, workers) in [(&division, 0), (&division, 2), (&arity, 0), (&arity, 2)] {
            let link = ChaosLink::new(ChaosConfig::clean(5));
            let rx = link.receiver();
            let truth = VecSink::new();
            let tee = TeeSink::new(vec![
                truth.clone() as Arc<dyn ProfilerSink>,
                udp_sink(&link),
            ]);
            let profiler = ProfilerConfig::to_sink(tee);
            let opts = if workers > 0 {
                ExecOptions::parallel(workers, profiler)
            } else {
                ExecOptions::profiled(profiler)
            };
            let r = Interpreter::new(Arc::new(Catalog::new())).execute(plan, &opts);
            assert!(matches!(
                r,
                Err(crate::EngineError::DivisionByZero | crate::EngineError::Arity { .. })
            ));
            drop((opts, link));
            let mut sent: Vec<TraceEvent> = drain(&rx).into_iter().flatten().flatten().collect();
            let mut emitted = truth.take();
            assert!(emitted.iter().any(|e| e.status == EventStatus::Done));
            sent.sort_by_key(|e| e.event);
            emitted.sort_by_key(|e| e.event);
            assert_eq!(sent, emitted, "workers={workers}");
        }
    }
}
