//! Trace replay — the §5 offline demo controls.
//!
//! "A user can play with the following features ... Step by step walk
//! through ... Fast-forward, rewind, and pause functionality of the
//! trace replay. Finding costly instructions by coloring during trace
//! replay between two instruction states."
//!
//! The controller owns the event list and a cursor; node runtime state
//! (running/finished, duration, thread, rss) is maintained incrementally
//! going forward and reconstructed from periodic snapshots going
//! backward, so rewind is cheap even on long traces.

use std::collections::HashMap;

use stetho_profiler::{EventStatus, TraceEvent};

use crate::color::{ColorState, PairElision};
use crate::mapping::PcIndex;

/// Observed runtime state of one plan node during replay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeRuntime {
    /// `start` events seen.
    pub starts: u32,
    /// `done` events seen.
    pub dones: u32,
    /// clk of the most recent start.
    pub started_at: Option<u64>,
    /// Total execution time over done events (usec).
    pub total_usec: u64,
    /// Thread of the latest event.
    pub thread: usize,
    /// rss at the latest event (KiB).
    pub rss: u64,
}

impl NodeRuntime {
    /// Is the instruction currently executing?
    pub fn running(&self) -> bool {
        self.starts > self.dones
    }
}

/// Playback mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlayState {
    /// Not advancing.
    Paused,
    /// Advancing at `rate`× trace time.
    Playing {
        /// Multiplier over trace clk time (2.0 = fast-forward 2×).
        rate: f64,
    },
}

/// Replay engine over a loaded trace.
#[derive(Debug, Clone)]
pub struct ReplayController {
    events: Vec<TraceEvent>,
    cursor: usize,
    /// Virtual trace-clock position (usec, same scale as `clk`).
    clock: f64,
    play: PlayState,
    /// The pcs with a runtime; events of other pcs move only the cursor.
    pcs: PcIndex,
    /// One runtime per slot of `pcs`.
    nodes: Vec<NodeRuntime>,
    /// Copies of `nodes` every `snapshot_every` events for rewind: at
    /// most one per position, sorted by position, the first at 0.
    snapshots: Vec<(usize, Vec<NodeRuntime>)>,
    snapshot_every: usize,
}

/// Repair a trace that lost events to an unreliable transport: every pc
/// left with more `start`s than `done`s gets a synthesized `done` (zero
/// duration, clock just past the trace end), so pair-elision coloring
/// and replay converge to a terminal frame instead of leaving nodes RED
/// forever. Returns the synthesized events, in pc order, to append after
/// `events`. They reuse the pc's last-seen statement text and thread.
pub fn repair_lost_dones(events: &[TraceEvent]) -> Vec<TraceEvent> {
    // pc -> (starts minus dones, index of its last event)
    let mut open: HashMap<usize, (i64, usize)> = HashMap::new();
    let mut max_clk = 0u64;
    let mut max_id = 0u64;
    for (i, e) in events.iter().enumerate() {
        max_clk = max_clk.max(e.clk);
        max_id = max_id.max(e.event);
        let entry = open.entry(e.pc).or_insert((0, i));
        entry.1 = i;
        match e.status {
            EventStatus::Start => entry.0 += 1,
            EventStatus::Done => entry.0 -= 1,
        }
    }
    let mut dangling: Vec<(usize, usize)> = open
        .into_iter()
        .filter(|(_, (balance, _))| *balance > 0)
        .map(|(pc, (_, last))| (pc, last))
        .collect();
    dangling.sort_unstable();
    dangling
        .into_iter()
        .enumerate()
        .map(|(i, (pc, last))| {
            let last = &events[last];
            TraceEvent::done(
                max_id + 1 + i as u64,
                pc,
                last.thread,
                max_clk + 1,
                0,
                last.rss,
                last.stmt.clone(),
            )
        })
        .collect()
}

impl ReplayController {
    /// Load a trace for replay, keeping a runtime for each of its pcs.
    pub fn new(events: Vec<TraceEvent>) -> Self {
        let pcs = PcIndex::new(events.iter().map(|e| e.pc));
        Self::over(events, pcs)
    }

    /// Load a trace for replay, keeping a runtime for each of `pcs`.
    pub(crate) fn over(events: Vec<TraceEvent>, pcs: PcIndex) -> Self {
        let nodes = vec![NodeRuntime::default(); pcs.pcs().len()];
        ReplayController {
            clock: events.first().map(|e| e.clk as f64).unwrap_or(0.0),
            events,
            cursor: 0,
            play: PlayState::Paused,
            pcs,
            snapshots: vec![(0, nodes.clone())],
            nodes,
            snapshot_every: 256,
        }
    }

    /// All events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events applied so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Total event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finished replaying?
    pub fn at_end(&self) -> bool {
        self.cursor >= self.events.len()
    }

    /// Current playback mode.
    pub fn play_state(&self) -> PlayState {
        self.play
    }

    /// Observed state of one node.
    pub fn node(&self, pc: usize) -> NodeRuntime {
        let slot = self.pcs.slot(pc);
        slot.map_or_else(NodeRuntime::default, |s| self.nodes[s])
    }

    /// Every node state with its pc, in pc order (for coloring whole
    /// frames).
    pub fn nodes(&self) -> impl Iterator<Item = (usize, &NodeRuntime)> {
        self.pcs.pcs().iter().copied().zip(&self.nodes)
    }

    /// Apply the next event; returns it. (§5 "step by step walk
    /// through".)
    pub fn step_forward(&mut self) -> Option<&TraceEvent> {
        if self.cursor >= self.events.len() {
            return None;
        }
        let idx = self.cursor;
        self.advance();
        self.clock = self.events[idx].clk as f64;
        Some(&self.events[idx])
    }

    /// Apply the event under the cursor and move past it, snapshotting at
    /// every `snapshot_every`-th position not snapshotted yet. Replays
    /// after a rewind cross positions that already have one.
    fn advance(&mut self) {
        let e = &self.events[self.cursor];
        if let Some(slot) = self.pcs.slot(e.pc) {
            apply(&mut self.nodes[slot], e);
        }
        self.cursor += 1;
        let last = self.snapshots.last().map_or(0, |(at, _)| *at);
        if self.cursor.is_multiple_of(self.snapshot_every) && self.cursor > last {
            self.snapshots.push((self.cursor, self.nodes.clone()));
        }
    }

    /// Undo the previous event; returns the new cursor. Rewind restores
    /// the nearest snapshot and replays forward.
    pub fn step_backward(&mut self) -> usize {
        if self.cursor > 0 {
            self.seek(self.cursor - 1);
        }
        self.cursor
    }

    /// Jump to an absolute event index (0 = before the first event).
    pub fn seek(&mut self, target: usize) {
        let target = target.min(self.events.len());
        if target >= self.cursor {
            while self.cursor < target {
                self.step_forward();
            }
            return;
        }
        // Backward: restore the nearest snapshot at or before target. The
        // snapshot at 0 always exists, so the partition point is >= 1.
        let i = self.snapshots.partition_point(|(at, _)| *at <= target) - 1;
        let (at, snap) = &self.snapshots[i];
        self.cursor = *at;
        self.nodes.copy_from_slice(snap);
        while self.cursor < target {
            self.step_forward();
        }
        self.clock = if self.cursor == 0 {
            self.events.first().map(|e| e.clk as f64).unwrap_or(0.0)
        } else {
            self.events[self.cursor - 1].clk as f64
        };
    }

    /// Restart from the beginning (full rewind).
    pub fn rewind(&mut self) {
        self.seek(0);
    }

    /// Start playing at `rate`× (1.0 = real trace time, >1 fast-forward).
    pub fn play(&mut self, rate: f64) {
        self.play = PlayState::Playing {
            rate: rate.max(0.0),
        };
    }

    /// Pause playback.
    pub fn pause(&mut self) {
        self.play = PlayState::Paused;
    }

    /// Advance playback by `dt_usec` of wall time; applies every event
    /// whose clk falls within the advanced trace-clock window. Returns
    /// the applied events' indices.
    pub fn tick(&mut self, dt_usec: f64) -> Vec<usize> {
        let rate = match self.play {
            PlayState::Playing { rate } => rate,
            PlayState::Paused => return Vec::new(),
        };
        self.clock += dt_usec * rate;
        let mut applied = Vec::new();
        while self.cursor < self.events.len() && (self.events[self.cursor].clk as f64) <= self.clock
        {
            applied.push(self.cursor);
            self.advance();
        }
        if self.at_end() {
            self.play = PlayState::Paused;
        }
        applied
    }

    /// §5 "finding costly instructions by coloring during trace replay
    /// between two instruction states": run pair-elision over the event
    /// window `[from, to)`.
    pub fn colors_between(&self, from: usize, to: usize) -> HashMap<usize, ColorState> {
        let to = to.min(self.events.len());
        let from = from.min(to);
        PairElision.analyse(&self.events[from..to])
    }

    /// Colors as of the current cursor over the whole applied prefix.
    pub fn current_colors(&self) -> HashMap<usize, ColorState> {
        self.colors_between(0, self.cursor)
    }
}

fn apply(n: &mut NodeRuntime, e: &TraceEvent) {
    n.thread = e.thread;
    n.rss = e.rss;
    match e.status {
        EventStatus::Start => {
            n.starts += 1;
            n.started_at = Some(e.clk);
        }
        EventStatus::Done => {
            n.dones += 1;
            n.total_usec += e.usec;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// pcs 0..n as start/done pairs with 10usec spacing.
    fn trace(n: usize) -> Vec<TraceEvent> {
        let mut v = Vec::new();
        for pc in 0..n {
            let base = pc as u64 * 20;
            v.push(TraceEvent::start(
                (pc * 2) as u64,
                pc,
                pc % 3,
                base,
                100,
                format!("X_{pc} := f.g();"),
            ));
            v.push(TraceEvent::done(
                (pc * 2 + 1) as u64,
                pc,
                pc % 3,
                base + 10,
                10,
                100,
                format!("X_{pc} := f.g();"),
            ));
        }
        v
    }

    #[test]
    fn step_forward_applies_state() {
        let mut rc = ReplayController::new(trace(3));
        assert_eq!(rc.position(), 0);
        rc.step_forward();
        assert!(rc.node(0).running());
        rc.step_forward();
        assert!(!rc.node(0).running());
        assert_eq!(rc.node(0).total_usec, 10);
        assert_eq!(rc.position(), 2);
    }

    #[test]
    fn step_backward_is_inverse() {
        let mut rc = ReplayController::new(trace(5));
        // Events: [start0, done0, start1, done1, start2, done2, ...].
        for _ in 0..5 {
            rc.step_forward();
        }
        assert!(rc.node(2).running(), "start2 applied, done2 not yet");
        rc.step_backward();
        assert_eq!(rc.position(), 4);
        assert_eq!(rc.node(2).starts, 0, "pc=2 start undone");
        assert!(!rc.node(1).running(), "pc=1 still fully done");
        rc.step_backward();
        assert_eq!(rc.position(), 3);
        assert!(rc.node(1).running(), "pc=1 done undone → running again");
    }

    #[test]
    fn seek_forward_and_backward_consistent() {
        let mut rc = ReplayController::new(trace(600)); // > snapshot_every
        rc.seek(900);
        let s900 = rc.node(449);
        rc.seek(1200);
        rc.seek(900);
        assert_eq!(rc.node(449), s900, "seek back reproduces state");
        assert_eq!(rc.position(), 900);
    }

    #[test]
    fn snapshots_stay_one_per_position_across_seeks() {
        // 2602 events, the size of the offline step-through trace.
        let events = trace(1301);
        let len = events.len();
        let mut rc = ReplayController::new(events.clone());
        while rc.step_forward().is_some() {}
        let mut seed = 0x5eed_u64;
        for _ in 0..64 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let target = (seed >> 33) as usize % (len + 1);
            rc.seek(target);
            let mut fresh = ReplayController::new(events.clone());
            fresh.seek(target);
            assert_eq!(rc.position(), target);
            assert_eq!(
                rc.nodes().collect::<Vec<_>>(),
                fresh.nodes().collect::<Vec<_>>(),
                "seek to {target}"
            );
        }
        // Playing forward again crosses every snapshot position once more.
        rc.rewind();
        rc.play(1e9);
        rc.tick(1.0);
        assert!(rc.at_end());
        assert_eq!(rc.snapshots.len(), len / 256 + 1);
        let at: Vec<usize> = rc.snapshots.iter().map(|(at, _)| *at).collect();
        assert_eq!(at, (0..=len / 256).map(|k| k * 256).collect::<Vec<_>>());
    }

    #[test]
    fn rewind_resets_everything() {
        let mut rc = ReplayController::new(trace(10));
        rc.seek(20);
        rc.rewind();
        assert_eq!(rc.position(), 0);
        assert!(rc.nodes().all(|(_, n)| n.starts == 0));
    }

    #[test]
    fn ffwd_and_pause() {
        let mut rc = ReplayController::new(trace(10));
        rc.play(2.0); // 2× trace speed
                      // events span clk 0..190; at 2× rate, 50usec of wall time covers
                      // 100usec of trace.
        let applied = rc.tick(50.0);
        assert!(!applied.is_empty());
        assert!(rc.position() >= 10, "position {}", rc.position());
        assert!(!rc.at_end());
        rc.pause();
        assert!(rc.tick(10_000.0).is_empty(), "paused ticks apply nothing");
        rc.play(1000.0);
        rc.tick(1000.0);
        assert!(rc.at_end());
        assert_eq!(rc.play_state(), PlayState::Paused, "auto-pause at end");
    }

    #[test]
    fn colors_between_windows() {
        // Build a trace where pc=1 overlaps others.
        let v = vec![
            TraceEvent::start(0, 1, 0, 0, 0, "a.b();"),
            TraceEvent::start(1, 2, 1, 5, 0, "a.b();"),
            TraceEvent::done(2, 2, 1, 10, 5, 0, "a.b();"),
            TraceEvent::done(3, 1, 0, 100, 100, 0, "a.b();"),
            TraceEvent::start(4, 3, 0, 101, 0, "a.b();"),
        ];
        let rc = ReplayController::new(v);
        let colors = rc.colors_between(0, 5);
        assert_eq!(colors[&1], ColorState::Green);
        assert_eq!(colors[&3], ColorState::Uncolored, "trailing start pending");
        // Window excluding the done for pc=1: it is still red.
        let colors = rc.colors_between(0, 3);
        assert_eq!(colors[&1], ColorState::Red);
    }

    #[test]
    fn empty_trace_is_safe() {
        let mut rc = ReplayController::new(vec![]);
        assert!(rc.is_empty());
        assert!(rc.at_end());
        assert!(rc.step_forward().is_none());
        rc.rewind();
        rc.play(1.0);
        assert!(rc.tick(100.0).is_empty());
    }

    #[test]
    fn repair_closes_dangling_starts() {
        // pc=0 completed; pc=1 lost its done; pc=2 lost nothing but
        // never ran (no events at all — repair can't invent it).
        let mut v = vec![
            TraceEvent::start(0, 0, 0, 0, 0, "a.b();"),
            TraceEvent::done(1, 0, 0, 10, 10, 0, "a.b();"),
            TraceEvent::start(2, 1, 1, 12, 0, "c.d();"),
        ];
        let synthesized = repair_lost_dones(&v);
        assert_eq!(synthesized.len(), 1);
        v.extend(synthesized);
        assert_eq!(v.len(), 4);
        let synth = v.last().unwrap();
        assert_eq!(synth.pc, 1);
        assert_eq!(synth.status, EventStatus::Done);
        assert_eq!(synth.thread, 1, "reuses the start's thread");
        assert!(synth.clk > 12, "lands after the trace end");
        // The repaired trace colors to a terminal frame: no RED left.
        let colors = PairElision.analyse(&v);
        assert!(colors.values().all(|c| *c != ColorState::Red), "{colors:?}");
    }

    #[test]
    fn repair_is_idempotent_on_complete_traces() {
        let v = trace(5);
        assert!(repair_lost_dones(&v).is_empty());
    }

    #[test]
    fn node_accumulates_multiple_executions() {
        // Same pc executing twice (mitosis clones share labels, but the
        // same pc can also re-run across replay loops).
        let mut v = trace(1);
        let mut again = trace(1);
        for e in &mut again {
            e.event += 2;
            e.clk += 100;
        }
        v.extend(again);
        let mut rc = ReplayController::new(v);
        rc.seek(4);
        let n = rc.node(0);
        assert_eq!(n.starts, 2);
        assert_eq!(n.dones, 2);
        assert_eq!(n.total_usec, 20);
    }
}
