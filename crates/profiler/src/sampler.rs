//! The online sample buffer.
//!
//! "As the trace file grows in size, its content is sampled in a buffer.
//! ... An algorithm for run-time analysis, to filter lengthy MAL
//! instructions is applied on the buffer content." (§4.2)
//!
//! [`SampleBuffer`] is a bounded ring buffer over trace events: the
//! run-time coloring algorithms (implemented in `stetho-core`) look only
//! at this window, never at the unbounded trace file. When the producer
//! outruns the analyst the oldest events fall out, which is exactly the
//! sampling behaviour the paper describes. The online monitor keeps the
//! same window without copying events, as pair-elision state
//! (`stetho-core`'s `ElisionWindow`); this buffer of whole events is the
//! form the batch algorithm and its oracle tests read.

use std::collections::VecDeque;

use crate::event::TraceEvent;

/// Bounded FIFO window over the most recent trace events.
#[derive(Debug, Clone)]
pub struct SampleBuffer {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    /// Evictions since the last [`SampleBuffer::clear`].
    dropped: u64,
    /// Evictions over the buffer's whole lifetime, across clears.
    lifetime_dropped: u64,
}

impl SampleBuffer {
    /// New buffer holding at most `capacity` events. Capacity 0 is
    /// clamped to 1 so the buffer always shows the latest event.
    pub fn new(capacity: usize) -> Self {
        SampleBuffer {
            buf: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
            lifetime_dropped: 0,
        }
    }

    /// Push an event, evicting the oldest when full.
    pub fn push(&mut self, e: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
            self.lifetime_dropped += 1;
        }
        self.buf.push_back(e);
    }

    /// Current window contents, oldest first.
    pub fn window(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Copy of the window as a vector (the coloring algorithm input).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted since the last [`SampleBuffer::clear`] — the
    /// sampling loss of the current run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events evicted over the buffer's whole lifetime; unlike
    /// [`SampleBuffer::dropped`], this survives clears (feeding the
    /// `stetho_samples_dropped_total` metric).
    pub fn lifetime_dropped(&self) -> u64 {
        self.lifetime_dropped
    }

    /// Buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop everything (replay restart). Resets the per-run eviction
    /// count so a restarted replay doesn't report the previous run's
    /// sampling loss; the lifetime count keeps accumulating.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventStatus;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            event: i,
            status: EventStatus::Start,
            pc: i as usize,
            thread: 0,
            clk: i,
            usec: 0,
            rss: 0,
            stmt: String::new(),
        }
    }

    #[test]
    fn fills_up_to_capacity() {
        let mut b = SampleBuffer::new(3);
        for i in 0..3 {
            b.push(ev(i));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 0);
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut b = SampleBuffer::new(3);
        for i in 0..5 {
            b.push(ev(i));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 2);
        let ids: Vec<u64> = b.window().map(|e| e.event).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamped() {
        let mut b = SampleBuffer::new(0);
        b.push(ev(1));
        b.push(ev(2));
        assert_eq!(b.len(), 1);
        assert_eq!(b.snapshot()[0].event, 2);
    }

    #[test]
    fn snapshot_is_ordered_copy() {
        let mut b = SampleBuffer::new(4);
        for i in 0..4 {
            b.push(ev(i));
        }
        let snap = b.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap.windows(2).all(|w| w[0].event < w[1].event));
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut b = SampleBuffer::new(2);
        b.push(ev(0));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn clear_resets_per_run_drop_count() {
        // Regression: `clear()` emptied the window but left `dropped`
        // at its old value, so a restarted replay reported the previous
        // run's sampling loss as its own.
        let mut b = SampleBuffer::new(2);
        for i in 0..5 {
            b.push(ev(i));
        }
        assert_eq!(b.dropped(), 3);
        b.clear();
        assert_eq!(b.dropped(), 0, "restart begins with zero loss");
        assert_eq!(b.lifetime_dropped(), 3, "lifetime count survives");
        for i in 0..3 {
            b.push(ev(i));
        }
        assert_eq!(b.dropped(), 1);
        assert_eq!(b.lifetime_dropped(), 4);
    }
}
