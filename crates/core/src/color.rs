//! The run-time coloring algorithms of §4.2.1 (plus the §6 gradient
//! extension).
//!
//! "A node is colored RED or GREEN based on the instruction status of
//! `start` or `done` respectively. ... A consecutive `start` and `done`
//! event status for the same instruction, with presence of more
//! instructions afterwards, indicates that the instruction under
//! analysis executed in least time. Hence, it is not a costly
//! instruction. All such instructions are not colored. An instruction
//! which does not appear in a sequence of pairs of `start` and `done`
//! event is colored."
//!
//! The paper's worked example (fields `{status, pc}`):
//! `{start,1},{done,1},{start,2},{done,2},{start,3},{start,4}` — the
//! first four statements stay uncolored (two immediate pairs), the fifth
//! (`pc=3`) is colored RED. The sixth is the last event in the buffer,
//! so its fate is not yet decidable ("presence of more instructions
//! afterwards") — it stays pending until more of the stream arrives.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};
use stetho_profiler::{EventStatus, TraceEvent};
use stetho_zvtm::Color;

/// Visual state of one plan node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ColorState {
    /// Not colored (default fill).
    Uncolored,
    /// Executing — `start` seen, still running (or long-running).
    Red,
    /// Finished after having been highlighted.
    Green,
    /// Gradient fill for the §6 extension (duration-scaled).
    Gradient {
        /// Interpolation position 0..=1 between cheap and costly.
        t: f64,
    },
}

impl ColorState {
    /// The concrete fill for rendering.
    pub fn fill(&self) -> Color {
        match self {
            ColorState::Uncolored => Color::DEFAULT_FILL,
            ColorState::Red => Color::RED,
            ColorState::Green => Color::GREEN,
            ColorState::Gradient { t } => Color::lerp(Color::DEFAULT_FILL, Color::RED, *t),
        }
    }
}

/// One coloring decision: node `pc` changes to `state`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColorChange {
    /// The plan node.
    pub pc: usize,
    /// Its new visual state.
    pub state: ColorState,
}

/// The §4.2.1 pair-elision algorithm over a (sampled) event buffer.
///
/// Stateless with respect to the stream: it analyses a whole buffer,
/// exactly like the original which analyses "the buffer content". The
/// offline replay runs it over the applied prefix; the online monitor
/// keeps the same classes one event at a time with [`ElisionWindow`],
/// and this batch form is its oracle.
#[derive(Debug, Clone, Default)]
pub struct PairElision;

impl PairElision {
    /// Analyse a buffer snapshot; returns the color per pc mentioned in
    /// the buffer. The final event is *pending* (not classifiable yet)
    /// unless it completes a pair whose start is present.
    pub fn analyse(&self, buffer: &[TraceEvent]) -> HashMap<usize, ColorState> {
        let mut out: HashMap<usize, ColorState> = HashMap::new();
        let mut i = 0;
        while i < buffer.len() {
            let e = &buffer[i];
            match e.status {
                EventStatus::Start => {
                    // Immediate pair with more instructions after it?
                    let paired = i + 1 < buffer.len()
                        && buffer[i + 1].status == EventStatus::Done
                        && buffer[i + 1].pc == e.pc;
                    if paired {
                        let more_after = i + 2 < buffer.len();
                        if more_after {
                            // Fast instruction: elided, not colored.
                            out.insert(e.pc, ColorState::Uncolored);
                            i += 2;
                            continue;
                        }
                        // The pair ends the buffer: classifiable as done.
                        out.insert(e.pc, ColorState::Green);
                        i += 2;
                        continue;
                    }
                    let is_last = i + 1 == buffer.len();
                    if is_last {
                        // Undecidable yet; leave existing state alone.
                        out.entry(e.pc).or_insert(ColorState::Uncolored);
                    } else {
                        // Unpaired start with later activity: costly,
                        // color RED.
                        out.insert(e.pc, ColorState::Red);
                    }
                    i += 1;
                }
                EventStatus::Done => {
                    // A done arriving for an instruction colored RED
                    // earlier turns it GREEN.
                    let was_red = matches!(out.get(&e.pc), Some(ColorState::Red));
                    if was_red {
                        out.insert(e.pc, ColorState::Green);
                    } else {
                        out.entry(e.pc).or_insert(ColorState::Uncolored);
                    }
                    i += 1;
                }
            }
        }
        out
    }

    /// Analyse a buffer snapshot and diff it against the previous
    /// round's states, returning every node whose visual state changed
    /// — including reverts to [`ColorState::Uncolored`].
    ///
    /// A node reverts in two ways: a pc whose new analysis is
    /// `Uncolored` (its start/done pair now sits adjacent in the buffer
    /// and elides), and a pc the analysis no longer mentions at all (its
    /// events slid out of the bounded sample window). Both must repaint to the default fill or the
    /// node shows a stale RED forever. A pc absent from `prev` is
    /// treated as `Uncolored`, so no change is emitted for nodes that
    /// were never painted.
    pub fn diff(
        &self,
        buffer: &[TraceEvent],
        prev: &HashMap<usize, ColorState>,
    ) -> Vec<ColorChange> {
        let mut out = Vec::new();
        let painted = |pc| prev.get(&pc).copied().unwrap_or(ColorState::Uncolored);
        let was = prev.iter().map(|(&pc, &state)| (pc, state));
        diff_into(&self.analyse(buffer), painted, was, &mut out);
        out
    }
}

/// Set `out` to what [`PairElision::diff`] reports for `analysed`
/// against what is painted: `painted(pc)` per pc, and `was` lists the
/// painted pcs (at least those not `Uncolored`).
pub(crate) fn diff_into(
    analysed: &HashMap<usize, ColorState>,
    painted: impl Fn(usize) -> ColorState,
    was: impl Iterator<Item = (usize, ColorState)>,
    out: &mut Vec<ColorChange>,
) {
    out.clear();
    for (&pc, &state) in analysed {
        if state != painted(pc) {
            out.push(ColorChange { pc, state });
        }
    }
    for (pc, state) in was {
        if state != ColorState::Uncolored && !analysed.contains_key(&pc) {
            let state = ColorState::Uncolored;
            out.push(ColorChange { pc, state });
        }
    }
    out.sort_unstable_by_key(|c| c.pc);
}

/// No event: the end of a per-pc chain in [`ElisionWindow`].
const NONE: u64 = u64::MAX;

/// One event of an [`ElisionWindow`]: its pc and status, and the stream
/// index of the next event of the same pc (or [`NONE`]).
#[derive(Debug, Clone, Copy)]
struct WindowSlot {
    pc: usize,
    status: EventStatus,
    next: u64,
}

/// The window's events of one pc, as a chain through the ring.
#[derive(Debug, Clone, Copy)]
struct PcChain {
    /// Stream index of the pc's oldest event in the window, or [`NONE`].
    first: u64,
    /// Stream index of its newest event (meaningful when `first` is set).
    last: u64,
    /// Queued in `dirty` since the last [`ElisionWindow::changes`].
    dirty: bool,
}

/// [`PairElision`] over a sliding window, kept up to date one event at a
/// time instead of re-analysed per round — a single-pass execution
/// monitor in the sense of Jahier's Mercury monitor.
///
/// It holds only `(pc, status)` per event plus a chain linking each pc's
/// events. A pc's class depends only on its own events and on the
/// neighbours of each of them, so a push can change the class of at most
/// three pcs: the new event's, the previous event's (a start that was
/// last becomes decidable; a done that closed a trailing pair, whose
/// start has the same pc, stops trailing and the pair elides), and the
/// evicted event's (its done loses its start). `push` marks those
/// dirty; [`ElisionWindow::changes`] re-folds only the dirty pcs, each
/// over its own events. For streams with a bounded number of events per
/// pc both are amortised O(1), and neither allocates once the ring has
/// grown to the window's size.
///
/// The chains are a table over the plan's pcs `0..pcs`. An event with a
/// pc outside it still takes its place in the window, so its neighbours
/// classify as in the batch analysis, but it has no chain and no class:
/// it is never reported and [`ElisionWindow::state`] reads `Uncolored`.
///
/// `changes` reports exactly what `PairElision.diff(window, painted)`
/// reports for the plan's pcs, reverts and evictions included, when
/// `painted` holds what the previous `changes` reported (or nothing and
/// no `changes` ran yet). The machine is `Clone`, so a replay can
/// snapshot and restore it, and an unbounded capacity turns it into the
/// analysis of a prefix.
#[derive(Debug, Clone)]
pub struct ElisionWindow {
    capacity: usize,
    /// Stream index of `ring[0]`.
    head: u64,
    ring: VecDeque<WindowSlot>,
    chains: Vec<PcChain>,
    dirty: Vec<usize>,
    evicted: u64,
}

impl ElisionWindow {
    /// A window over the last `capacity` events of a plan with `pcs`
    /// instructions. Capacity 0 is clamped to 1, as in
    /// [`stetho_profiler::SampleBuffer`].
    pub fn new(capacity: usize, pcs: usize) -> Self {
        let chain = PcChain {
            first: NONE,
            last: NONE,
            dirty: false,
        };
        ElisionWindow {
            capacity: capacity.max(1),
            head: 0,
            ring: VecDeque::new(),
            chains: vec![chain; pcs],
            dirty: Vec::new(),
            evicted: 0,
        }
    }

    /// Events currently in the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when the window holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted from the window so far (the sampling loss).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Append one event, evicting the oldest when the window is full.
    pub fn push(&mut self, pc: usize, status: EventStatus) {
        if self.ring.len() == self.capacity {
            let old = self.ring.pop_front().expect("a full window is not empty");
            self.head += 1;
            self.evicted += 1;
            if let Some(chain) = self.chains.get_mut(old.pc) {
                chain.first = old.next;
            }
            self.mark(old.pc);
        }
        if let Some(prev) = self.ring.back() {
            self.mark(prev.pc);
        }
        let at = self.head + self.ring.len() as u64;
        self.ring.push_back(WindowSlot {
            pc,
            status,
            next: NONE,
        });
        let Some(chain) = self.chains.get_mut(pc) else {
            return;
        };
        let last = (chain.first != NONE).then_some(chain.last);
        if chain.first == NONE {
            chain.first = at;
        }
        chain.last = at;
        if let Some(last) = last {
            let i = (last - self.head) as usize;
            self.ring[i].next = at;
        }
        self.mark(pc);
    }

    /// Append to `out`, in pc order, every dirty pc whose class differs
    /// from `painted(pc)`, and clear the dirty set.
    pub fn changes(&mut self, painted: impl Fn(usize) -> ColorState, out: &mut Vec<ColorChange>) {
        self.dirty.sort_unstable();
        for &pc in &self.dirty {
            let state = self.state(pc);
            if state != painted(pc) {
                out.push(ColorChange { pc, state });
            }
            self.chains[pc].dirty = false;
        }
        self.dirty.clear();
    }

    /// The pair-elision class of `pc` over the current window, as
    /// [`PairElision::analyse`] gives it (`Uncolored` when absent).
    pub fn state(&self, pc: usize) -> ColorState {
        let end = self.head + self.ring.len() as u64;
        let mut state = None;
        let mut at = self.chains.get(pc).map_or(NONE, |c| c.first);
        while at != NONE {
            let slot = self.slot(at);
            match slot.status {
                EventStatus::Start => {
                    let pair = (at + 1 < end)
                        .then(|| self.slot(at + 1))
                        .filter(|d| d.pc == pc && d.status == EventStatus::Done);
                    if let Some(done) = pair {
                        state = Some(if at + 2 < end {
                            ColorState::Uncolored
                        } else {
                            ColorState::Green
                        });
                        at = done.next;
                        continue;
                    }
                    if at + 1 == end {
                        state.get_or_insert(ColorState::Uncolored);
                    } else {
                        state = Some(ColorState::Red);
                    }
                }
                EventStatus::Done => {
                    if state == Some(ColorState::Red) {
                        state = Some(ColorState::Green);
                    } else {
                        state.get_or_insert(ColorState::Uncolored);
                    }
                }
            }
            at = slot.next;
        }
        state.unwrap_or(ColorState::Uncolored)
    }

    fn slot(&self, at: u64) -> WindowSlot {
        self.ring[(at - self.head) as usize]
    }

    fn mark(&mut self, pc: usize) {
        if let Some(chain) = self.chains.get_mut(pc).filter(|c| !c.dirty) {
            chain.dirty = true;
            self.dirty.push(pc);
        }
    }
}

/// The second §4.2.1 algorithm: "another algorithm which allows the user
/// to specify an instruction execution threshold time". Tracks running
/// instructions across calls (streaming, not buffer-bound), over a table
/// of the plan's pcs; events of other pcs are ignored.
#[derive(Debug, Clone)]
pub struct ThresholdColoring {
    /// Threshold in microseconds.
    pub threshold_usec: u64,
    /// (pc, start clk) of each running instruction, so a tick costs what
    /// runs, not the plan.
    running: Vec<(usize, u64)>,
    states: Vec<ColorState>,
}

impl ThresholdColoring {
    /// New with a user threshold, for a plan with `pcs` instructions.
    pub fn new(threshold_usec: u64, pcs: usize) -> Self {
        ThresholdColoring {
            threshold_usec,
            running: Vec::new(),
            states: vec![ColorState::Uncolored; pcs],
        }
    }

    /// Feed one event; returns a state change if one occurred.
    pub fn on_event(&mut self, e: &TraceEvent) -> Option<ColorChange> {
        let prev = self.states.get_mut(e.pc)?;
        self.running.retain(|&(pc, _)| pc != e.pc);
        if e.status == EventStatus::Start {
            self.running.push((e.pc, e.clk));
            return None;
        }
        let state = if e.usec >= self.threshold_usec {
            // Costly: highlight RED (it stays highlighted so the
            // analyst can find it later).
            ColorState::Red
        } else {
            ColorState::Uncolored
        };
        (std::mem::replace(prev, state) != state).then_some(ColorChange { pc: e.pc, state })
    }

    /// Poll at current stream time: instructions running longer than the
    /// threshold turn RED before their `done` arrives.
    pub fn on_tick(&mut self, now_clk: u64) -> Vec<ColorChange> {
        let mut changes = Vec::new();
        for &(pc, started) in &self.running {
            let state = &mut self.states[pc];
            if now_clk.saturating_sub(started) >= self.threshold_usec && *state != ColorState::Red {
                *state = ColorState::Red;
                changes.push(ColorChange { pc, state: *state });
            }
        }
        changes.sort_by_key(|c| c.pc);
        changes
    }

    /// Current state of a node.
    pub fn state(&self, pc: usize) -> ColorState {
        self.states
            .get(pc)
            .copied()
            .unwrap_or(ColorState::Uncolored)
    }
}

/// The §6 future-work extension: "gradient coloring of graph nodes to
/// display a range of execution times". Durations map onto a
/// default-fill→RED ramp, scaled by the observed maximum. Events of pcs
/// outside the plan are ignored.
#[derive(Debug, Clone)]
pub struct GradientColoring {
    max_usec: u64,
    durations: Vec<Option<u64>>,
}

impl GradientColoring {
    /// Empty gradient state for a plan with `pcs` instructions.
    pub fn new(pcs: usize) -> Self {
        GradientColoring {
            max_usec: 0,
            durations: vec![None; pcs],
        }
    }

    /// Feed one event; `done` events update the node's gradient. A new
    /// maximum rescales every previously colored node, so callers should
    /// re-render from [`Self::state`] rather than caching the change.
    pub fn on_event(&mut self, e: &TraceEvent) -> Option<ColorChange> {
        if e.status != EventStatus::Done {
            return None;
        }
        *self.durations.get_mut(e.pc)? = Some(e.usec);
        self.max_usec = self.max_usec.max(e.usec.max(1));
        Some(ColorChange {
            pc: e.pc,
            state: self.state(e.pc),
        })
    }

    /// Current gradient of a node, rescaled to the latest maximum.
    pub fn state(&self, pc: usize) -> ColorState {
        match self.durations.get(pc).copied().flatten() {
            Some(usec) => ColorState::Gradient {
                t: usec as f64 / self.max_usec.max(1) as f64,
            },
            None => ColorState::Uncolored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(status: EventStatus, pc: usize) -> TraceEvent {
        TraceEvent {
            event: 0,
            status,
            pc,
            thread: 0,
            clk: 0,
            usec: 0,
            rss: 0,
            stmt: format!("X_{pc} := algebra.select(X_0);"),
        }
    }

    fn start(pc: usize) -> TraceEvent {
        ev(EventStatus::Start, pc)
    }

    fn done(pc: usize) -> TraceEvent {
        ev(EventStatus::Done, pc)
    }

    /// The paper's own worked example, verbatim.
    #[test]
    fn paper_worked_example() {
        let buffer = vec![start(1), done(1), start(2), done(2), start(3), start(4)];
        let states = PairElision.analyse(&buffer);
        assert_eq!(states[&1], ColorState::Uncolored, "pc=1 paired, elided");
        assert_eq!(states[&2], ColorState::Uncolored, "pc=2 paired, elided");
        assert_eq!(states[&3], ColorState::Red, "pc=3 unpaired start → RED");
        assert_eq!(
            states[&4],
            ColorState::Uncolored,
            "pc=4 is the buffer's last event — not classifiable yet"
        );
    }

    #[test]
    fn done_after_red_turns_green() {
        let buffer = vec![start(3), start(4), done(3), start(5)];
        let states = PairElision.analyse(&buffer);
        assert_eq!(states[&3], ColorState::Green, "red instruction finished");
        assert_eq!(states[&4], ColorState::Red);
    }

    #[test]
    fn trailing_pair_is_green_not_elided() {
        // A pair at the very end has no "more instructions afterwards";
        // the instruction demonstrably completed, so it shows GREEN.
        let buffer = vec![start(1), done(1)];
        let states = PairElision.analyse(&buffer);
        assert_eq!(states[&1], ColorState::Green);
    }

    #[test]
    fn empty_and_single_event_buffers() {
        assert!(PairElision.analyse(&[]).is_empty());
        let states = PairElision.analyse(&[start(0)]);
        assert_eq!(states[&0], ColorState::Uncolored, "lone start pending");
    }

    #[test]
    fn diff_reverts_stale_red_when_pair_elides() {
        // Regression: round 1 sees an unpaired start → pc=3 RED. Round 2
        // the done arrived and more events follow, so the pair elides to
        // Uncolored, and the node must not stay RED on screen.
        let round1 = vec![start(3), start(4)];
        let mut prev: HashMap<usize, ColorState> = HashMap::new();
        for c in PairElision.diff(&round1, &prev) {
            prev.insert(c.pc, c.state);
        }
        assert_eq!(prev.get(&3), Some(&ColorState::Red));
        let round2 = vec![start(3), done(3), start(4), done(4), start(5)];
        let changes = PairElision.diff(&round2, &prev);
        let for3 = changes.iter().find(|c| c.pc == 3).expect("revert for pc=3");
        assert_eq!(
            for3.state,
            ColorState::Uncolored,
            "elided pair must repaint to the default fill"
        );
    }

    #[test]
    fn diff_reverts_red_node_that_slid_out_of_window() {
        // Regression: the sample buffer is bounded; once pc=3's events
        // fall off the front, the analysis no longer mentions it and the
        // stale RED had nothing to overwrite it.
        let prev: HashMap<usize, ColorState> = [(3, ColorState::Red)].into_iter().collect();
        let window = vec![start(7), start(8), done(7), start(9)];
        let changes = PairElision.diff(&window, &prev);
        let for3 = changes.iter().find(|c| c.pc == 3).expect("revert for pc=3");
        assert_eq!(for3.state, ColorState::Uncolored);
        // Unmentioned *uncolored* nodes generate no churn.
        let quiet: HashMap<usize, ColorState> = [(2, ColorState::Uncolored)].into_iter().collect();
        assert!(PairElision.diff(&window, &quiet).iter().all(|c| c.pc != 2));
    }

    #[test]
    fn diff_emits_nothing_when_states_are_stable() {
        let buffer = vec![start(3), start(4)];
        let mut prev: HashMap<usize, ColorState> = HashMap::new();
        for c in PairElision.diff(&buffer, &prev) {
            prev.insert(c.pc, c.state);
        }
        assert!(
            PairElision.diff(&buffer, &prev).is_empty(),
            "same buffer, same prev → no repaints"
        );
    }

    #[test]
    fn interleaved_parallel_trace_colors_overlapping() {
        // Two instructions overlapping (parallel execution): both are
        // unpaired starts → both RED while running.
        let buffer = vec![start(1), start(2), done(1), done(2), start(3)];
        let states = PairElision.analyse(&buffer);
        assert_eq!(states[&1], ColorState::Green);
        assert_eq!(states[&2], ColorState::Green);
    }

    #[test]
    fn out_of_plan_pcs_hold_a_place_but_have_no_class() {
        // Plan pcs 0..4. pc 9's start sits between pc 1's start and
        // done, so pc 1 does not elide, as in the batch analysis; pc 9
        // itself gets no class and no change.
        let buffer = [start(1), start(9), done(1), start(2)];
        let mut w = ElisionWindow::new(8, 4);
        for e in &buffer {
            w.push(e.pc, e.status);
        }
        assert_eq!(w.state(1), ColorState::Green);
        assert_eq!(w.state(9), ColorState::Uncolored);
        let mut changes = Vec::new();
        w.changes(|_| ColorState::Uncolored, &mut changes);
        let batch = PairElision.diff(&buffer, &HashMap::new());
        assert_eq!(batch.len(), 2, "{batch:?}");
        assert_eq!(changes, batch[..1]);
    }

    #[test]
    fn color_state_fill_mapping() {
        assert_eq!(ColorState::Red.fill(), Color::RED);
        assert_eq!(ColorState::Green.fill(), Color::GREEN);
        assert_eq!(ColorState::Uncolored.fill(), Color::DEFAULT_FILL);
        let g0 = ColorState::Gradient { t: 0.0 }.fill();
        assert_eq!(g0, Color::DEFAULT_FILL);
        let g1 = ColorState::Gradient { t: 1.0 }.fill();
        assert_eq!(g1, Color::RED);
    }

    #[test]
    fn threshold_marks_slow_done_events() {
        let mut t = ThresholdColoring::new(100, 8);
        let mut e = done(4);
        e.usec = 250;
        let c = t.on_event(&e).unwrap();
        assert_eq!(c.state, ColorState::Red);
        let mut fast = done(5);
        fast.usec = 10;
        assert!(
            t.on_event(&fast).is_none(),
            "uncolored → uncolored is no change"
        );
        assert_eq!(t.state(5), ColorState::Uncolored);
    }

    #[test]
    fn threshold_tick_flags_long_running_before_done() {
        let mut t = ThresholdColoring::new(1000, 8);
        let mut s = start(7);
        s.clk = 0;
        t.on_event(&s);
        assert!(t.on_tick(500).is_empty(), "not over threshold yet");
        let changes = t.on_tick(1500);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].pc, 7);
        assert_eq!(changes[0].state, ColorState::Red);
        // Second tick: already red, no repeat.
        assert!(t.on_tick(2000).is_empty());
    }

    #[test]
    fn gradient_scales_with_max() {
        let mut g = GradientColoring::new(4);
        let mut e1 = done(1);
        e1.usec = 10;
        let c1 = g.on_event(&e1).unwrap();
        assert_eq!(
            c1.state,
            ColorState::Gradient { t: 1.0 },
            "first is the max"
        );
        let mut e2 = done(2);
        e2.usec = 100;
        g.on_event(&e2).unwrap();
        match g.state(1) {
            ColorState::Gradient { t } => assert_eq!(t, 0.1, "rescaled to the new max"),
            other => panic!("unexpected {other:?}"),
        }
        match g.state(2) {
            ColorState::Gradient { t } => assert_eq!(t, 1.0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(g.on_event(&start(3)).is_none());
    }
}
