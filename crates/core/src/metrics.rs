//! Session-level self-observability instruments.
//!
//! The paper's demo is itself a monitoring tool; this module lets the
//! monitor monitor *itself*: per-round analyse latency against the
//! 150 ms pacing budget (§4.1 "the visual updates are paced"), EDT
//! backlog, sampling loss, live progress gauges, and a bridge that
//! mirrors the receive path's [`TransportCounters`] into a
//! [`stetho_obsv::Registry`] at snapshot time.
//!
//! All handles are cloned `Arc`s over atomics, so recording on the
//! monitor's per-event path is lock-free; the only locked work happens
//! at registration and scrape time.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use stetho_obsv::{Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS_USEC};
use stetho_profiler::reassembly::TransportCounters;

use crate::progress::ProgressSnapshot;

/// Instruments one session publishes into a registry.
///
/// Registration is idempotent per metric name, so several sequential
/// sessions (or a session restarted after chaos) can share one
/// long-lived registry and keep accumulating.
#[derive(Debug, Clone)]
pub struct SessionMetrics {
    /// `stetho_session_analyse_usec` — per-round run-time analysis
    /// latency (pair-elision round + EDT enqueue).
    pub analyse_usec: Histogram,
    /// `stetho_edt_rounds_total` — analyse/dispatch rounds run.
    pub edt_rounds: Counter,
    /// `stetho_edt_pacing_violations_total` — rounds whose analysis
    /// overran the configured pacing budget.
    pub pacing_violations: Counter,
    /// `stetho_edt_queue_depth` — color operations waiting on the EDT.
    pub edt_queue_depth: Gauge,
    /// `stetho_samples_dropped_total` — events evicted from the sample
    /// window (mirrors the buffer's lifetime count).
    pub samples_dropped: Counter,
    progress_fraction: Gauge,
    progress_done: Gauge,
    progress_running: Gauge,
    progress_lost: Gauge,
    progress_total: Gauge,
}

impl SessionMetrics {
    /// Register (or re-attach to) the session instruments.
    pub fn new(registry: &Registry) -> Self {
        SessionMetrics {
            analyse_usec: registry.histogram(
                "stetho_session_analyse_usec",
                "Per-round run-time analysis latency in microseconds",
                &LATENCY_BUCKETS_USEC,
            ),
            edt_rounds: registry.counter(
                "stetho_edt_rounds_total",
                "Analyse/dispatch rounds run by the monitor",
            ),
            pacing_violations: registry.counter(
                "stetho_edt_pacing_violations_total",
                "Rounds whose analysis overran the EDT pacing budget",
            ),
            edt_queue_depth: registry.gauge(
                "stetho_edt_queue_depth",
                "Color operations queued on the event dispatch thread",
            ),
            samples_dropped: registry.counter(
                "stetho_samples_dropped_total",
                "Trace events evicted from the bounded sample window",
            ),
            progress_fraction: registry.gauge(
                "stetho_progress_fraction",
                "Fraction of the plan settled (done or lost), 0..=1",
            ),
            progress_done: registry.gauge("stetho_progress_done", "Instructions completed"),
            progress_running: registry.gauge(
                "stetho_progress_running",
                "Instructions currently executing",
            ),
            progress_lost: registry.gauge(
                "stetho_progress_lost",
                "Instructions written off to transport gaps",
            ),
            progress_total: registry.gauge("stetho_progress_total", "Instructions in the plan"),
        }
    }

    /// Record one analyse/dispatch round. `analyse_usec` is the round's
    /// measured latency (the caller owns the clock); a round counts as a
    /// pacing violation when it overran `pacing_budget_ms` (a zero
    /// budget — tests that drain immediately — never violates).
    pub fn record_round(&self, analyse_usec: u64, pacing_budget_ms: u64) {
        self.edt_rounds.inc();
        self.analyse_usec.observe(analyse_usec as f64);
        if pacing_budget_ms > 0 && analyse_usec > pacing_budget_ms * 1000 {
            self.pacing_violations.inc();
        }
    }

    /// Mirror a progress snapshot into the gauges.
    pub fn set_progress(&self, s: &ProgressSnapshot) {
        self.progress_fraction.set(s.fraction);
        self.progress_done.set(s.done as f64);
        self.progress_running.set(s.running as f64);
        self.progress_lost.set(s.lost as f64);
        self.progress_total.set(s.total as f64);
    }
}

/// Mirror the receive path's transport counters into `registry` as
/// `stetho_transport_*_total` families, refreshed by a collector at
/// every snapshot. The bridge holds only the shared atomic block, so it
/// stays valid after the session (and its stethoscope thread) ends.
pub fn bridge_transport(registry: &Registry, counters: Arc<TransportCounters>) {
    let datagrams = registry.counter(
        "stetho_transport_datagrams_total",
        "Datagrams decoded, each carrying one or more frames",
    );
    let received = registry.counter(
        "stetho_transport_received_total",
        "Frames whose header decoded",
    );
    let reordered = registry.counter(
        "stetho_transport_reordered_total",
        "Frames that arrived after a higher sequence number",
    );
    let duplicated = registry.counter(
        "stetho_transport_duplicated_total",
        "Frames whose sequence number was already seen",
    );
    let lost = registry.counter(
        "stetho_transport_lost_total",
        "Frames covered by emitted Lost gaps",
    );
    let dropped_backpressure = registry.counter(
        "stetho_transport_dropped_backpressure_total",
        "Stream items evicted by the bounded ring under backpressure",
    );
    let garbled = registry.counter(
        "stetho_transport_garbled_total",
        "Lines or frames that could not be understood",
    );
    registry.register_collector(move || {
        datagrams.set(counters.datagrams.load(Ordering::Relaxed));
        received.set(counters.received.load(Ordering::Relaxed));
        reordered.set(counters.reordered.load(Ordering::Relaxed));
        duplicated.set(counters.duplicated.load(Ordering::Relaxed));
        lost.set(counters.lost.load(Ordering::Relaxed));
        dropped_backpressure.set(counters.dropped_backpressure.load(Ordering::Relaxed));
        garbled.set(counters.garbled.load(Ordering::Relaxed));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_and_pacing_violations() {
        let r = Registry::new();
        let m = SessionMetrics::new(&r);
        m.record_round(1_000, 150); // within the 150 ms budget
        m.record_round(200_000, 150); // overran
        m.record_round(500_000, 0); // zero budget never violates
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("stetho_edt_rounds_total"), 3);
        assert_eq!(snap.counter_total("stetho_edt_pacing_violations_total"), 1);
        let fam = snap.family("stetho_session_analyse_usec").unwrap();
        assert_eq!(fam.samples.len(), 1);
    }

    #[test]
    fn progress_gauges_mirror_snapshot() {
        let r = Registry::new();
        let m = SessionMetrics::new(&r);
        m.set_progress(&ProgressSnapshot {
            total: 8,
            done: 4,
            running: 2,
            lost: 1,
            fraction: 0.625,
            completed_depth: 1,
            depth_levels: 3,
            clk: 99,
            eta_usec: None,
        });
        let snap = r.snapshot();
        assert_eq!(snap.gauge_value("stetho_progress_fraction"), Some(0.625));
        assert_eq!(snap.gauge_value("stetho_progress_done"), Some(4.0));
        assert_eq!(snap.gauge_value("stetho_progress_total"), Some(8.0));
    }

    #[test]
    fn transport_bridge_tracks_live_counters() {
        let r = Registry::new();
        let counters = Arc::new(TransportCounters::default());
        bridge_transport(&r, Arc::clone(&counters));
        counters.lost.fetch_add(3, Ordering::Relaxed);
        counters.received.fetch_add(10, Ordering::Relaxed);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("stetho_transport_lost_total"), 3);
        assert_eq!(snap.counter_total("stetho_transport_received_total"), 10);
        // Later increments show up on the next snapshot.
        counters.lost.fetch_add(1, Ordering::Relaxed);
        assert_eq!(r.snapshot().counter_total("stetho_transport_lost_total"), 4);
    }

    #[test]
    fn session_metrics_reattach_to_existing_registry() {
        let r = Registry::new();
        let a = SessionMetrics::new(&r);
        a.edt_rounds.inc();
        let b = SessionMetrics::new(&r);
        b.edt_rounds.inc();
        assert_eq!(
            r.snapshot().counter_total("stetho_edt_rounds_total"),
            2,
            "sequential sessions share instruments"
        );
    }
}
