//! Deterministic in-memory "hostile network" for the online transport.
//!
//! [`ChaosLink`] stands in for the UDP socket pair: emitters send
//! datagrams into it through [`ChaosEndpoint`]s, the stethoscope reads
//! them back through the [`ChaosReceiver`], and in between the link
//! injects the full UDP failure menu — drops, truncation, duplication,
//! and bounded reordering — driven by a seeded [`rand`] generator so
//! every run of a given seed replays the identical fault schedule.
//!
//! The link keeps an exact [`ChaosReport`] of what it did, with the
//! bookkeeping arranged so the receiver-side
//! [`TransportStats`](crate::reassembly::TransportStats) can be
//! reconciled against it *exactly*. Faults strike whole datagrams, and a
//! datagram may carry several frames (one per line after a `%frm `
//! header), so every count is kept twice: in datagrams, and in the
//! frames those datagrams carried, which is what the receiver sequences.
//!
//! * faults are mutually exclusive per datagram (one uniform draw picks
//!   drop > truncate > duplicate > reorder > clean), so each count
//!   attributes one datagram, and all of its frames, to one fate;
//! * truncation keeps only the first 1..=4 bytes — always inside the
//!   `%frm ` prefix — so a truncated datagram can never be sequenced and
//!   surfaces as exactly one legacy `Garbled` item (`garbled ==
//!   truncated`) and as missing sequence numbers for all of its frames
//!   (`lost == frames_dropped + frames_truncated −
//!   frames_invisible_tail`);
//! * a delayed datagram counts as `reordered` only if some intact
//!   datagram with a higher per-source index was already delivered,
//!   which is precisely the receiver's `seq < max_seen` rule for each of
//!   its frames.
//!
//! `invisible_tail` covers the blind spot both sides share: datagrams
//! destroyed *after* the last intact delivery of their source leave no
//! later frame to reveal the gap. Emitter-side end-of-trace echoes and
//! heartbeats shrink that tail; the report makes it explicit rather
//! than pretending it is zero.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::wire::FRAME_PREFIX;

/// Fault schedule for a [`ChaosLink`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability a datagram is silently dropped.
    pub drop_rate: f64,
    /// Probability a datagram is truncated to garbage.
    pub truncate_rate: f64,
    /// Probability a datagram is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a datagram is delayed behind later traffic.
    pub reorder_rate: f64,
    /// Maximum number of later datagrams a delayed one can slip behind.
    /// The frames those datagrams carry must stay below the receiver's
    /// reorder window (counted in frames) or delay turns into declared
    /// loss.
    pub reorder_depth: u64,
}

impl ChaosConfig {
    /// A link that corrupts nothing (useful as a plain in-memory pipe).
    pub fn clean(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_depth: 0,
        }
    }

    /// The ISSUE-mandated hostile profile: 20% drop, 30% reorder,
    /// 10% duplicate, 5% truncate.
    pub fn hostile(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_rate: 0.20,
            truncate_rate: 0.05,
            duplicate_rate: 0.10,
            reorder_rate: 0.30,
            reorder_depth: 3,
        }
    }
}

/// What the link did to the traffic, in exact counts: per datagram, and
/// per frame carried by those datagrams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Datagrams offered by emitters.
    pub sent: u64,
    /// Datagrams handed to the receiver (intact + truncated + extra
    /// duplicate copies).
    pub delivered: u64,
    /// Datagrams silently dropped.
    pub dropped: u64,
    /// Datagrams truncated to a garbage prefix (still delivered).
    pub truncated: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Delayed datagrams that were actually delivered out of order
    /// (behind a later intact delivery from the same source).
    pub reordered: u64,
    /// Dropped/truncated datagrams after the last intact delivery of
    /// their source — gaps no later frame can reveal to the receiver.
    pub invisible_tail: u64,
    /// Frames in the datagrams offered.
    pub frames_sent: u64,
    /// Frames in the datagrams handed to the receiver (truncated ones
    /// and duplicate copies included).
    pub frames_delivered: u64,
    /// Frames in dropped datagrams.
    pub frames_dropped: u64,
    /// Frames in truncated datagrams.
    pub frames_truncated: u64,
    /// Frames in the extra copies injected by duplication.
    pub frames_duplicated: u64,
    /// Frames in datagrams delivered out of order.
    pub frames_reordered: u64,
    /// Frames in the datagrams counted by `invisible_tail`.
    pub frames_invisible_tail: u64,
}

/// Frames a datagram carries: one per non-empty line of a datagram that
/// starts with the frame header, none in legacy traffic.
fn frame_count(bytes: &[u8]) -> u64 {
    if !bytes.starts_with(FRAME_PREFIX.as_bytes()) {
        return 0;
    }
    bytes
        .split(|&b| b == b'\n')
        .filter(|line| !line.is_empty())
        .count() as u64
}

#[derive(Debug)]
struct Pending {
    source: SocketAddr,
    idx: u64,
    frames: u64,
    release_after: u64,
    bytes: Vec<u8>,
}

#[derive(Debug, Default)]
struct SourceAcct {
    sends: u64,
    /// Highest per-source index delivered intact so far.
    max_intact: Option<u64>,
    /// Per-source indices destroyed (dropped or truncated), with their
    /// frame counts.
    destroyed: Vec<(u64, u64)>,
}

struct LinkState {
    cfg: ChaosConfig,
    rng: StdRng,
    queue: VecDeque<(SocketAddr, Vec<u8>)>,
    pending: Vec<Pending>,
    sources: HashMap<SocketAddr, SourceAcct>,
    open_endpoints: usize,
    endpoints_ever: usize,
    /// The receiving side was closed: deliver what is queued, then end.
    closed: bool,
    next_port: u16,
    report: ChaosReport,
}

struct Shared {
    state: Mutex<LinkState>,
    cv: Condvar,
}

/// A deterministic, faulty, in-memory datagram link.
#[derive(Clone)]
pub struct ChaosLink {
    shared: Arc<Shared>,
}

impl ChaosLink {
    /// Create a link with the given fault schedule.
    pub fn new(cfg: ChaosConfig) -> Self {
        ChaosLink {
            shared: Arc::new(Shared {
                state: Mutex::new(LinkState {
                    rng: StdRng::seed_from_u64(cfg.seed),
                    cfg,
                    queue: VecDeque::new(),
                    pending: Vec::new(),
                    sources: HashMap::new(),
                    open_endpoints: 0,
                    endpoints_ever: 0,
                    closed: false,
                    next_port: 41000,
                    report: ChaosReport::default(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Open a new sending endpoint with its own synthetic source
    /// address.
    pub fn endpoint(&self) -> ChaosEndpoint {
        let mut st = self.shared.state.lock().expect("chaos link poisoned");
        let port = st.next_port;
        st.next_port += 1;
        st.open_endpoints += 1;
        st.endpoints_ever += 1;
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().expect("synthetic addr");
        st.sources.entry(addr).or_default();
        ChaosEndpoint {
            shared: Arc::clone(&self.shared),
            addr,
        }
    }

    /// The receiving side (any number of handles; they share one queue).
    pub fn receiver(&self) -> ChaosReceiver {
        ChaosReceiver {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshot the fault report. `invisible_tail` is only meaningful
    /// once all endpoints are closed (pending traffic flushed).
    pub fn report(&self) -> ChaosReport {
        let st = self.shared.state.lock().expect("chaos link poisoned");
        let mut r = st.report;
        for s in st.sources.values() {
            for &(idx, frames) in &s.destroyed {
                if s.max_intact.is_none_or(|m| idx > m) {
                    r.invisible_tail += 1;
                    r.frames_invisible_tail += frames;
                }
            }
        }
        r
    }
}

/// Sending side of a [`ChaosLink`]; dropping it flushes any delayed
/// datagrams it produced and, once the last endpoint is gone, closes
/// the link.
pub struct ChaosEndpoint {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl std::fmt::Debug for ChaosEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosEndpoint")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ChaosEndpoint {
    /// The synthetic source address the receiver will see.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Offer one datagram to the link.
    pub fn send(&self, bytes: &[u8]) {
        let mut st = self.shared.state.lock().expect("chaos link poisoned");
        let st = &mut *st;
        let frames = frame_count(bytes);
        st.report.sent += 1;
        st.report.frames_sent += frames;
        let acct = st.sources.entry(self.addr).or_default();
        let idx = acct.sends;
        acct.sends += 1;
        let now = acct.sends;
        let cfg = st.cfg;
        let u: f64 = st.rng.gen_range(0.0..1.0);
        let drop_to = cfg.drop_rate;
        let trunc_to = drop_to + cfg.truncate_rate;
        let dup_to = trunc_to + cfg.duplicate_rate;
        let reord_to = dup_to + cfg.reorder_rate;
        if u < drop_to {
            st.report.dropped += 1;
            st.report.frames_dropped += frames;
            st.sources
                .get_mut(&self.addr)
                .expect("acct")
                .destroyed
                .push((idx, frames));
        } else if u < trunc_to {
            st.report.truncated += 1;
            st.report.frames_truncated += frames;
            st.report.delivered += 1;
            st.report.frames_delivered += frames;
            let keep = st.rng.gen_range(1..=4usize).min(bytes.len().max(1));
            let garbage = bytes[..keep.min(bytes.len())].to_vec();
            st.sources
                .get_mut(&self.addr)
                .expect("acct")
                .destroyed
                .push((idx, frames));
            st.queue.push_back((self.addr, garbage));
        } else if u < dup_to {
            st.report.duplicated += 1;
            st.report.frames_duplicated += frames;
            st.report.delivered += 2;
            st.report.frames_delivered += 2 * frames;
            deliver_intact(st, self.addr, idx, bytes.to_vec());
            st.queue.push_back((self.addr, bytes.to_vec()));
        } else if u < reord_to && cfg.reorder_depth > 0 {
            let slip = st.rng.gen_range(1..=cfg.reorder_depth);
            st.pending.push(Pending {
                source: self.addr,
                idx,
                frames,
                release_after: now + slip,
                bytes: bytes.to_vec(),
            });
        } else {
            st.report.delivered += 1;
            st.report.frames_delivered += frames;
            deliver_intact(st, self.addr, idx, bytes.to_vec());
        }
        release_due(st, self.addr, now);
        self.shared.cv.notify_all();
    }
}

impl Drop for ChaosEndpoint {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("chaos link poisoned");
        let st = &mut *st;
        // Flush this endpoint's delayed datagrams in index order.
        let mut mine: Vec<Pending> = Vec::new();
        let mut rest: Vec<Pending> = Vec::new();
        for p in st.pending.drain(..) {
            if p.source == self.addr {
                mine.push(p);
            } else {
                rest.push(p);
            }
        }
        st.pending = rest;
        mine.sort_by_key(|p| p.idx);
        for p in mine {
            release_one(st, p);
        }
        st.open_endpoints -= 1;
        self.shared.cv.notify_all();
    }
}

fn deliver_intact(st: &mut LinkState, source: SocketAddr, idx: u64, bytes: Vec<u8>) {
    let acct = st.sources.entry(source).or_default();
    acct.max_intact = Some(acct.max_intact.map_or(idx, |m| m.max(idx)));
    st.queue.push_back((source, bytes));
}

fn release_due(st: &mut LinkState, source: SocketAddr, now: u64) {
    let mut due: Vec<Pending> = Vec::new();
    let mut keep: Vec<Pending> = Vec::new();
    for p in st.pending.drain(..) {
        if p.source == source && p.release_after <= now {
            due.push(p);
        } else {
            keep.push(p);
        }
    }
    st.pending = keep;
    due.sort_by_key(|p| p.idx);
    for p in due {
        release_one(st, p);
    }
}

fn release_one(st: &mut LinkState, p: Pending) {
    st.report.delivered += 1;
    st.report.frames_delivered += p.frames;
    let acct = st.sources.entry(p.source).or_default();
    // Out of order iff something later from this source already went
    // through intact — the receiver's `seq < max_seen` rule.
    if acct.max_intact.is_some_and(|m| m > p.idx) {
        st.report.reordered += 1;
        st.report.frames_reordered += p.frames;
    }
    acct.max_intact = Some(acct.max_intact.map_or(p.idx, |m| m.max(p.idx)));
    st.queue.push_back((p.source, p.bytes));
}

/// Receiving side of a [`ChaosLink`]. Handles share one queue.
#[derive(Clone)]
pub struct ChaosReceiver {
    shared: Arc<Shared>,
}

impl ChaosReceiver {
    /// Block for the next datagram. `None` once the link has ended and
    /// everything queued is delivered: every endpoint is gone, or
    /// [`ChaosReceiver::close`] was called.
    pub fn recv(&self) -> Option<(SocketAddr, Vec<u8>)> {
        let st = self.shared.state.lock().expect("chaos link poisoned");
        let mut st = self
            .shared
            .cv
            .wait_while(st, |st| {
                st.queue.is_empty()
                    && !st.closed
                    && !(st.endpoints_ever > 0 && st.open_endpoints == 0 && st.pending.is_empty())
            })
            .expect("chaos link poisoned");
        st.queue.pop_front()
    }

    /// Close the receiving side: datagrams already queued are still
    /// delivered, then [`ChaosReceiver::recv`] returns `None`.
    pub fn close(&self) {
        self.shared
            .state
            .lock()
            .expect("chaos link poisoned")
            .closed = true;
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(rx: &ChaosReceiver) -> Vec<(SocketAddr, Vec<u8>)> {
        std::iter::from_fn(|| rx.recv()).collect()
    }

    #[test]
    fn clean_link_is_a_fifo_pipe() {
        let link = ChaosLink::new(ChaosConfig::clean(1));
        let rx = link.receiver();
        let ep = link.endpoint();
        for i in 0..10 {
            ep.send(format!("msg {i}").as_bytes());
        }
        drop(ep);
        let got = drain(&rx);
        assert_eq!(got.len(), 10);
        for (i, (_, bytes)) in got.iter().enumerate() {
            assert_eq!(bytes, format!("msg {i}").as_bytes());
        }
        let r = link.report();
        assert_eq!(r.sent, 10);
        assert_eq!(r.delivered, 10);
        assert_eq!(
            (r.dropped, r.truncated, r.duplicated, r.reordered),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let link = ChaosLink::new(ChaosConfig::hostile(seed));
            let rx = link.receiver();
            let ep = link.endpoint();
            for i in 0..200 {
                ep.send(format!("%frm {i} hb").as_bytes());
            }
            drop(ep);
            let payloads: Vec<Vec<u8>> = drain(&rx).into_iter().map(|(_, b)| b).collect();
            (payloads, link.report())
        };
        let (p1, r1) = run(42);
        let (p2, r2) = run(42);
        assert_eq!(p1, p2);
        assert_eq!(r1, r2);
        let (p3, _) = run(43);
        assert_ne!(p1, p3, "different seeds should differ");
    }

    #[test]
    fn report_accounts_for_every_datagram() {
        let link = ChaosLink::new(ChaosConfig::hostile(7));
        let rx = link.receiver();
        let ep = link.endpoint();
        let n = 500u64;
        for i in 0..n {
            ep.send(format!("%frm {i} hb").as_bytes());
        }
        drop(ep);
        let got = drain(&rx);
        let r = link.report();
        assert_eq!(r.sent, n);
        assert_eq!(r.delivered as usize, got.len());
        // Every datagram is dropped, delivered once, or delivered twice.
        assert_eq!(r.delivered, n - r.dropped + r.duplicated);
        assert!(r.dropped > 0 && r.truncated > 0 && r.duplicated > 0 && r.reordered > 0);
    }

    #[test]
    fn truncation_always_destroys_the_frame_header() {
        let link = ChaosLink::new(ChaosConfig {
            seed: 3,
            drop_rate: 0.0,
            truncate_rate: 1.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_depth: 0,
        });
        let rx = link.receiver();
        let ep = link.endpoint();
        for i in 0..50 {
            ep.send(format!("%frm {i} ev payload").as_bytes());
        }
        drop(ep);
        for (_, bytes) in drain(&rx) {
            assert!(bytes.len() <= 4, "header must not survive: {bytes:?}");
        }
    }

    #[test]
    fn frames_are_counted_per_packed_datagram() {
        let link = ChaosLink::new(ChaosConfig {
            seed: 2,
            drop_rate: 0.5,
            truncate_rate: 0.0,
            duplicate_rate: 0.5,
            reorder_rate: 0.0,
            reorder_depth: 0,
        });
        let rx = link.receiver();
        let ep = link.endpoint();
        for i in 0..40u64 {
            let frames: Vec<String> = (0..=i % 3)
                .map(|k| format!("%frm {} hb", 3 * i + k))
                .collect();
            ep.send(frames.join("\n").as_bytes());
        }
        ep.send(b"legacy line\nanother");
        drop(ep);
        let got = drain(&rx);
        let r = link.report();
        assert_eq!(r.frames_sent, (0..40u64).map(|i| i % 3 + 1).sum::<u64>());
        assert!(r.dropped > 0 && r.duplicated > 0);
        assert_eq!(
            r.frames_dropped + r.frames_delivered - r.frames_duplicated,
            r.frames_sent
        );
        let delivered: u64 = got.iter().map(|(_, b)| frame_count(b)).sum();
        assert_eq!(delivered, r.frames_delivered);
    }

    #[test]
    fn endpoint_drop_flushes_delayed_datagrams() {
        let link = ChaosLink::new(ChaosConfig {
            seed: 5,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 1.0,
            reorder_depth: 8,
        });
        let rx = link.receiver();
        let ep = link.endpoint();
        for i in 0..20 {
            ep.send(format!("{i}").as_bytes());
        }
        drop(ep);
        let got = drain(&rx);
        assert_eq!(got.len(), 20, "nothing may be stranded in the link");
    }
}
