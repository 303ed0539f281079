//! Differential oracle for online coloring: the incremental
//! [`ElisionWindow`] against batch [`PairElision::diff`] over a
//! [`SampleBuffer`] snapshot, which is what the online monitor ran per
//! event before it kept the window incrementally.

use std::collections::HashMap;

use proptest::prelude::*;

use stethoscope::core::color::{ColorChange, ColorState, ElisionWindow, PairElision};
use stethoscope::profiler::{EventStatus, SampleBuffer, TraceEvent};

fn ev(i: usize, pc: usize, done: bool) -> TraceEvent {
    let status = if done {
        EventStatus::Done
    } else {
        EventStatus::Start
    };
    TraceEvent {
        event: i as u64,
        status,
        pc,
        thread: 0,
        clk: i as u64,
        usec: 0,
        rss: 0,
        stmt: String::new(),
    }
}

/// The state painted on `pc` (`Uncolored` when never painted).
fn state_of(painted: &HashMap<usize, ColorState>, pc: usize) -> ColorState {
    painted.get(&pc).copied().unwrap_or(ColorState::Uncolored)
}

/// Record a round's changes as painted, the way `PlanView` does.
fn apply(painted: &mut HashMap<usize, ColorState>, changes: &[ColorChange]) {
    for c in changes {
        if c.state == ColorState::Uncolored {
            painted.remove(&c.pc);
        } else {
            painted.insert(c.pc, c.state);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every push (from the round the view is adopted on), the
    /// machine reports exactly the batch diff of the window against what
    /// is painted: same pcs, same states, same order. Statuses are
    /// arbitrary, so the streams include repeated starts, orphan dones
    /// and pcs interleaved in every way; the small pc range makes the
    /// same pc recur inside one window.
    #[test]
    fn incremental_window_matches_batch_diff_after_every_push(
        capacity in 1usize..=16,
        adopt_after in 0usize..=20,
        stream in proptest::collection::vec((0usize..6, any::<bool>()), 0..80),
    ) {
        let mut batch = SampleBuffer::new(capacity);
        let mut window = ElisionWindow::new(capacity, 6);
        let mut painted_batch = HashMap::new();
        let mut painted_window = HashMap::new();
        for (i, &(pc, done)) in stream.iter().enumerate() {
            let e = ev(i, pc, done);
            batch.push(e.clone());
            window.push(e.pc, e.status);
            if i < adopt_after {
                continue;
            }
            let snapshot = batch.snapshot();
            let expected = PairElision.diff(&snapshot, &painted_batch);
            let mut got = Vec::new();
            window.changes(|pc| state_of(&painted_window, pc), &mut got);
            prop_assert_eq!(&got, &expected, "push {} of {:?}", i, stream);
            apply(&mut painted_batch, &expected);
            apply(&mut painted_window, &got);
            let analysed = PairElision.analyse(&snapshot);
            for pc in 0..6 {
                prop_assert_eq!(
                    window.state(pc),
                    analysed.get(&pc).copied().unwrap_or(ColorState::Uncolored)
                );
            }
        }
        prop_assert_eq!(window.evicted(), batch.dropped());
        prop_assert_eq!(window.len(), batch.len());
    }
}

/// A window that is never painted keeps every pushed pc dirty, so the
/// first round after a late adoption still repaints every class.
#[test]
fn first_round_after_late_adoption_paints_the_whole_window() {
    let mut window = ElisionWindow::new(4, 4);
    for (i, (pc, done)) in [(1, false), (2, false), (1, true), (3, false), (3, true)]
        .into_iter()
        .enumerate()
    {
        let e = ev(i, pc, done);
        window.push(e.pc, e.status);
    }
    let mut got = Vec::new();
    window.changes(|_| ColorState::Uncolored, &mut got);
    // Window: start 2, done 1, start 3, done 3 (start 1 was evicted).
    assert_eq!(
        got,
        vec![
            ColorChange {
                pc: 2,
                state: ColorState::Red
            },
            ColorChange {
                pc: 3,
                state: ColorState::Green
            },
        ]
    );
    let mut again = Vec::new();
    window.changes(|_| ColorState::Uncolored, &mut again);
    assert!(again.is_empty(), "the dirty set was drained: {again:?}");
}
