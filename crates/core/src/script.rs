//! Scripted interaction — deterministic "demo driver".
//!
//! The original demo is a human clicking; §5 lists the interactions:
//! step-by-step walk-through, fast-forward/rewind/pause, coloring
//! between states, birds-eye views, and "animation effects such as
//! change of zoom level, color, and transition time between highlights
//! of nodes". [`InteractionScript`] encodes such a demo as data and
//! replays it against an [`OfflineSession`], advancing a virtual clock,
//! so whole demo walkthroughs are testable and benchmarkable.

use stetho_zvtm::anim::{Animator, CameraSlide, Easing};

use crate::session::offline::OfflineSession;

/// One scripted interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Apply the next trace event.
    Step,
    /// Apply the previous trace event.
    StepBack,
    /// Jump to an absolute event index.
    Seek(usize),
    /// Play at a rate for some virtual milliseconds.
    Play {
        /// Trace-time multiplier.
        rate: f64,
        /// Wall milliseconds to advance while playing.
        for_ms: u64,
    },
    /// Pause playback.
    Pause,
    /// Click at world coordinates (hit-tests a node, records its pc).
    Click {
        /// World x.
        x: f64,
        /// World y.
        y: f64,
    },
    /// Animated camera transition onto a node over `ms` milliseconds.
    FocusAnimated {
        /// Target node.
        pc: usize,
        /// Transition time (the §5 "transition time between highlights").
        ms: u64,
    },
    /// Let the session clock run (EDT dispatch + animations).
    Wait(u64),
    /// Record an SVG snapshot of the current frame.
    Snapshot,
}

/// The outcome of running a script.
#[derive(Debug, Default)]
pub struct ScriptLog {
    /// pcs hit by Click actions, in order (None = clicked empty canvas).
    pub clicks: Vec<Option<usize>>,
    /// SVG frames captured by Snapshot actions.
    pub snapshots: Vec<String>,
    /// Total virtual time advanced (ms).
    pub elapsed_ms: u64,
    /// Camera poses after each FocusAnimated, as (cx, cy, altitude).
    pub focus_poses: Vec<(f64, f64, f64)>,
}

/// A replayable interaction script.
#[derive(Debug, Clone, Default)]
pub struct InteractionScript {
    /// The actions, in order.
    pub actions: Vec<Action>,
}

impl InteractionScript {
    /// Empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style append.
    pub fn then(mut self, a: Action) -> Self {
        self.actions.push(a);
        self
    }

    /// Execute against a session with a `tick_ms` animation/EDT tick.
    pub fn run(&self, session: &mut OfflineSession, tick_ms: u64) -> ScriptLog {
        let tick_ms = tick_ms.max(1);
        let mut log = ScriptLog::default();
        let mut animator = Animator::new();
        for action in &self.actions {
            match action {
                Action::Step => {
                    session.step();
                }
                Action::StepBack => session.step_back(),
                Action::Seek(idx) => session.seek(*idx),
                Action::Play { rate, for_ms } => {
                    session.replay.play(*rate);
                    let mut left = *for_ms;
                    while left > 0 {
                        let dt = tick_ms.min(left);
                        session.replay.tick(dt as f64 * 1000.0);
                        session.advance_ms(dt);
                        log.elapsed_ms += dt;
                        left -= dt;
                    }
                    // Colors for everything applied during playback.
                    session.seek(session.replay.position());
                }
                Action::Pause => session.replay.pause(),
                Action::Click { x, y } => log.clicks.push(session.click(*x, *y)),
                Action::FocusAnimated { pc, ms } => {
                    if let Some(idx) = session.view.map.node_of_pc(*pc) {
                        let n = &session.view.scene.nodes[idx];
                        animator.add_slide(CameraSlide::new(
                            &session.camera,
                            (n.x, n.y, 30.0),
                            *ms as f64,
                            Easing::EaseInOut,
                        ));
                        // Drive the slide with the session clock.
                        let mut left = *ms;
                        while left > 0 || animator.busy() {
                            let dt = tick_ms.min(left.max(1));
                            animator.step(dt as f64, &mut session.camera, &mut session.view.space);
                            session.advance_ms(dt);
                            log.elapsed_ms += dt;
                            left = left.saturating_sub(dt);
                            if left == 0 && !animator.busy() {
                                break;
                            }
                        }
                        log.focus_poses.push((
                            session.camera.cx,
                            session.camera.cy,
                            session.camera.altitude,
                        ));
                    }
                }
                Action::Wait(ms) => {
                    let mut left = *ms;
                    while left > 0 {
                        let dt = tick_ms.min(left);
                        session.advance_ms(dt);
                        log.elapsed_ms += dt;
                        left -= dt;
                    }
                }
                Action::Snapshot => log.snapshots.push(session.render_frame_svg()),
            }
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_profiler::{format_event, TraceEvent};

    fn session() -> OfflineSession {
        let dot = r#"digraph p {
            n0 [label="X_0 := sql.mvc();"];
            n1 [label="X_1 := sql.tid(X_0);"];
            n2 [label="X_2 := algebra.select(X_1);"];
            n0 -> n1; n1 -> n2;
        }"#;
        let stmts = [
            "X_0 := sql.mvc();",
            "X_1 := sql.tid(X_0);",
            "X_2 := algebra.select(X_1);",
        ];
        let mut lines = Vec::new();
        let mut seq = 0;
        for (pc, stmt) in stmts.iter().enumerate() {
            let base = pc as u64 * 1000;
            lines.push(format_event(&TraceEvent::start(
                seq, pc, 0, base, 64, *stmt,
            )));
            seq += 1;
            lines.push(format_event(&TraceEvent::done(
                seq,
                pc,
                0,
                base + 500,
                500,
                64,
                *stmt,
            )));
            seq += 1;
        }
        OfflineSession::load_text(dot, &lines.join("\n")).unwrap()
    }

    #[test]
    fn scripted_walkthrough() {
        let mut s = session();
        let node1 = s.view.scene.nodes[1].clone();
        let script = InteractionScript::new()
            .then(Action::Step)
            .then(Action::Step)
            .then(Action::Snapshot)
            .then(Action::Click {
                x: node1.x,
                y: node1.y,
            })
            .then(Action::FocusAnimated { pc: 2, ms: 100 })
            .then(Action::Play {
                rate: 10.0,
                for_ms: 600,
            })
            .then(Action::Wait(10_000))
            .then(Action::Snapshot);
        let log = script.run(&mut s, 16);
        assert_eq!(log.clicks, vec![Some(1)]);
        assert_eq!(log.snapshots.len(), 2);
        assert!(log.elapsed_ms >= 10_000);
        // The animated focus landed the camera on node 2.
        let n2 = &s.view.scene.nodes[2];
        let (cx, cy, alt) = log.focus_poses[0];
        assert!((cx - n2.x).abs() < 1.0, "cx {cx} vs {}", n2.x);
        assert!((cy - n2.y).abs() < 1.0);
        assert!(alt <= 31.0);
        // Playback finished the trace.
        assert!(s.replay.at_end());
    }

    #[test]
    fn empty_script_is_noop() {
        let mut s = session();
        let log = InteractionScript::new().run(&mut s, 16);
        assert_eq!(log.elapsed_ms, 0);
        assert!(log.snapshots.is_empty());
        assert_eq!(s.replay.position(), 0);
    }

    #[test]
    fn step_back_and_seek_in_script() {
        let mut s = session();
        let script = InteractionScript::new()
            .then(Action::Seek(4))
            .then(Action::StepBack)
            .then(Action::StepBack);
        script.run(&mut s, 16);
        assert_eq!(s.replay.position(), 2);
    }

    #[test]
    fn focus_on_unknown_pc_is_skipped() {
        let mut s = session();
        let script = InteractionScript::new().then(Action::FocusAnimated { pc: 99, ms: 50 });
        let log = script.run(&mut s, 16);
        assert!(log.focus_poses.is_empty());
    }
}
