//! Query progress tracking — §5 online demo: "Monitor the progress of
//! query plan execution, and highlight long running instructions".
//!
//! [`ProgressModel`] folds the trace stream into a live completion
//! picture: counts of pending/running/done instructions, the fraction
//! complete, and a critical-path-based remaining-work estimate using the
//! plan's dataflow depths.

use serde::Serialize;
use stetho_mal::{DataflowGraph, Plan};
use stetho_profiler::{EventStatus, TraceEvent};

/// Execution state of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InstrState {
    /// No event yet.
    Pending,
    /// `start` seen.
    Running,
    /// `done` seen.
    Done,
    /// Its events fell inside a reported transport gap; it will never
    /// complete on screen but is accounted for, so progress converges.
    Lost,
}

/// Live progress over one plan execution: one state per plan pc.
#[derive(Debug, Clone)]
pub struct ProgressModel {
    depths: Vec<usize>,
    max_depth: usize,
    state: Vec<InstrState>,
    done: usize,
    running: usize,
    lost: usize,
    last_clk: u64,
    total_usec_done: u64,
}

/// Snapshot of the progress for display.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgressSnapshot {
    /// Total instructions in the plan.
    pub total: usize,
    /// Completed instructions.
    pub done: usize,
    /// Currently executing instructions.
    pub running: usize,
    /// Instructions written off to transport gaps.
    pub lost: usize,
    /// Fraction complete (0..=1).
    pub fraction: f64,
    /// Deepest dataflow level fully completed (plan "wavefront").
    pub completed_depth: usize,
    /// Number of dataflow levels in the plan.
    pub depth_levels: usize,
    /// Trace clock at the latest event (µs).
    pub clk: u64,
    /// Naive remaining-time estimate (µs): observed mean instruction
    /// cost × remaining instructions. None until something completed.
    pub eta_usec: Option<u64>,
}

impl ProgressModel {
    /// Track progress of `plan`.
    pub fn new(plan: &Plan) -> Self {
        let depths = DataflowGraph::from_plan(plan).depths();
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        ProgressModel {
            depths,
            max_depth,
            state: vec![InstrState::Pending; plan.len()],
            done: 0,
            running: 0,
            lost: 0,
            last_clk: 0,
            total_usec_done: 0,
        }
    }

    /// Feed one trace event. Events for pcs outside the plan (foreign or
    /// garbled traces) are ignored, mirroring [`Self::mark_lost`]. A
    /// `start` arriving after the pc's `done` — a transport reorder — is
    /// also ignored: `Done` is sticky, so the instruction is never
    /// double-counted and the fraction stays within `[0, 1]`.
    pub fn on_event(&mut self, e: &TraceEvent) {
        let Some(state) = self.state.get_mut(e.pc) else {
            return;
        };
        self.last_clk = self.last_clk.max(e.clk);
        let next = match e.status {
            EventStatus::Start if *state == InstrState::Done => return,
            EventStatus::Start => InstrState::Running,
            EventStatus::Done => InstrState::Done,
        };
        let prev = std::mem::replace(state, next);
        if prev == next {
            return;
        }
        match prev {
            InstrState::Running => self.running -= 1,
            InstrState::Lost => self.lost -= 1,
            InstrState::Pending | InstrState::Done => {}
        }
        if next == InstrState::Running {
            self.running += 1;
        } else {
            self.done += 1;
            self.total_usec_done += e.usec;
        }
    }

    /// Write an instruction off to a reported transport gap: it counts
    /// toward completion so the session can converge, but keeps its own
    /// state. A later (reordered) event for the pc revives it.
    pub fn mark_lost(&mut self, pc: usize) {
        let Some(state) = self.state.get_mut(pc) else {
            return;
        };
        match *state {
            InstrState::Done | InstrState::Lost => return,
            InstrState::Running => self.running -= 1,
            InstrState::Pending => {}
        }
        *state = InstrState::Lost;
        self.lost += 1;
    }

    /// State of one instruction.
    pub fn state_of(&self, pc: usize) -> InstrState {
        self.state.get(pc).copied().unwrap_or(InstrState::Pending)
    }

    /// Current snapshot.
    pub fn snapshot(&self) -> ProgressSnapshot {
        // Wavefront: the levels below the shallowest instruction not yet
        // settled (done, or written off to a transport gap).
        let completed_depth = self
            .state
            .iter()
            .zip(&self.depths)
            .filter(|(state, _)| !matches!(state, InstrState::Done | InstrState::Lost))
            .map(|(_, &depth)| depth)
            .min()
            .unwrap_or(self.max_depth + 1);
        let total = self.state.len();
        let settled = self.done + self.lost;
        let remaining = total.saturating_sub(settled);
        let eta_usec = if self.done > 0 && remaining > 0 {
            Some(self.total_usec_done / self.done as u64 * remaining as u64)
        } else if remaining == 0 {
            Some(0)
        } else {
            None
        };
        ProgressSnapshot {
            total,
            done: self.done,
            running: self.running,
            lost: self.lost,
            fraction: if total == 0 {
                1.0
            } else {
                settled as f64 / total as f64
            },
            completed_depth,
            depth_levels: self.max_depth + 1,
            clk: self.last_clk,
            eta_usec,
        }
    }

    /// Render a one-line progress bar.
    pub fn bar(&self, width: usize) -> String {
        let snap = self.snapshot();
        let filled = ((snap.fraction * width as f64).round() as usize).min(width);
        format!(
            "[{}{}] {}/{} ({} running)",
            "#".repeat(filled),
            "-".repeat(width - filled),
            snap.done,
            snap.total,
            snap.running
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_mal::parse_plan;

    fn plan() -> Plan {
        parse_plan(
            "X_0:int := sql.mvc();\n\
             X_1:int := calc.+(X_0, 1:int);\n\
             X_2:int := calc.+(X_1, 1:int);\n\
             X_3:int := calc.+(X_0, 2:int);\n",
        )
        .unwrap()
    }

    fn start(pc: usize, clk: u64) -> TraceEvent {
        TraceEvent::start(0, pc, 0, clk, 0, "f.g();")
    }

    fn done(pc: usize, clk: u64, usec: u64) -> TraceEvent {
        TraceEvent::done(0, pc, 0, clk, usec, 0, "f.g();")
    }

    #[test]
    fn tracks_states_and_fraction() {
        let p = plan();
        let mut m = ProgressModel::new(&p);
        assert_eq!(m.snapshot().fraction, 0.0);
        m.on_event(&start(0, 1));
        assert_eq!(m.state_of(0), InstrState::Running);
        assert_eq!(m.snapshot().running, 1);
        m.on_event(&done(0, 10, 9));
        assert_eq!(m.state_of(0), InstrState::Done);
        let s = m.snapshot();
        assert_eq!(s.done, 1);
        assert_eq!(s.running, 0);
        assert_eq!(s.fraction, 0.25);
        assert_eq!(s.clk, 10);
    }

    #[test]
    fn wavefront_depth_advances() {
        let p = plan();
        // Depths: pc0=0, pc1=1, pc2=2, pc3=1.
        let mut m = ProgressModel::new(&p);
        assert_eq!(m.snapshot().completed_depth, 0);
        m.on_event(&done(0, 1, 1));
        assert_eq!(m.snapshot().completed_depth, 1);
        m.on_event(&done(1, 2, 1));
        // Level 1 has pc1 and pc3; pc3 not done.
        assert_eq!(m.snapshot().completed_depth, 1);
        m.on_event(&done(3, 3, 1));
        assert_eq!(m.snapshot().completed_depth, 2);
        m.on_event(&done(2, 4, 1));
        let s = m.snapshot();
        assert_eq!(s.completed_depth, 3);
        assert_eq!(s.depth_levels, 3);
        assert_eq!(s.eta_usec, Some(0));
    }

    #[test]
    fn eta_scales_with_mean_cost() {
        let p = plan();
        let mut m = ProgressModel::new(&p);
        m.on_event(&done(0, 100, 100));
        m.on_event(&done(1, 200, 300));
        // Mean 200 µs, 2 remaining → 400.
        assert_eq!(m.snapshot().eta_usec, Some(400));
    }

    #[test]
    fn duplicate_events_do_not_double_count() {
        let p = plan();
        let mut m = ProgressModel::new(&p);
        m.on_event(&start(0, 1));
        m.on_event(&start(0, 2));
        assert_eq!(m.snapshot().running, 1);
        m.on_event(&done(0, 3, 1));
        m.on_event(&done(0, 4, 1));
        assert_eq!(m.snapshot().done, 1);
    }

    #[test]
    fn bar_renders() {
        let p = plan();
        let mut m = ProgressModel::new(&p);
        m.on_event(&done(0, 1, 1));
        m.on_event(&done(1, 2, 1));
        let bar = m.bar(8);
        assert!(bar.starts_with("[####----]"), "{bar}");
        assert!(bar.contains("2/4"));
    }

    #[test]
    fn lost_instructions_settle_progress() {
        let p = plan();
        let mut m = ProgressModel::new(&p);
        m.on_event(&done(0, 1, 1));
        m.on_event(&start(1, 2));
        // pc=1's done and all of pc=2's events fell in a gap.
        m.mark_lost(1);
        m.mark_lost(2);
        let s = m.snapshot();
        assert_eq!(s.done, 1);
        assert_eq!(s.lost, 2);
        assert_eq!(s.running, 0, "lost pcs no longer count as running");
        assert_eq!(s.fraction, 0.75);
        assert_eq!(m.state_of(1), InstrState::Lost);
        // A reordered late event revives the instruction.
        m.on_event(&done(1, 3, 1));
        let s = m.snapshot();
        assert_eq!(s.done, 2);
        assert_eq!(s.lost, 1);
        // mark_lost never downgrades a completed instruction.
        m.mark_lost(0);
        assert_eq!(m.state_of(0), InstrState::Done);
        m.mark_lost(3);
        assert_eq!(m.snapshot().fraction, 1.0, "all settled");
    }

    #[test]
    fn reordered_start_after_done_does_not_double_count() {
        // Regression: the transport can deliver `start` after `done`
        // (UDP reorder). The old code re-inserted Running without
        // decrementing `done`, so a second `done` pushed the fraction
        // past 1.0 and left phantom running instructions.
        let p = plan();
        let mut m = ProgressModel::new(&p);
        for pc in 0..4 {
            m.on_event(&done(pc, pc as u64 + 1, 1));
        }
        assert_eq!(m.snapshot().fraction, 1.0);
        // Late, reordered starts (and a duplicated done) arrive.
        m.on_event(&start(2, 10));
        m.on_event(&done(2, 11, 1));
        let s = m.snapshot();
        assert_eq!(s.done, 4, "done is sticky across reordered starts");
        assert_eq!(s.running, 0, "no phantom running instruction");
        assert!(s.fraction <= 1.0, "fraction overflowed: {}", s.fraction);
        assert_eq!(m.state_of(2), InstrState::Done);
    }

    #[test]
    fn out_of_range_pcs_are_ignored() {
        // Regression: `mark_lost` bounds-checked the pc but `on_event`
        // did not, so a garbled trace line could inflate `running`
        // forever and skew the fraction's denominator accounting.
        let p = plan();
        let mut m = ProgressModel::new(&p);
        m.on_event(&start(99, 1));
        m.on_event(&done(99, 2, 1));
        let s = m.snapshot();
        assert_eq!((s.done, s.running, s.lost), (0, 0, 0));
        assert_eq!(s.fraction, 0.0);
        assert_eq!(s.clk, 0, "foreign events do not advance the clock");
        // In-range events still work afterwards.
        m.on_event(&done(0, 3, 1));
        assert_eq!(m.snapshot().done, 1);
    }

    #[test]
    fn empty_plan_complete() {
        let p = parse_plan("").unwrap();
        let m = ProgressModel::new(&p);
        assert_eq!(m.snapshot().fraction, 1.0);
    }
}
