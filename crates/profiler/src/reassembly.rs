//! Per-source reassembly of the framed online stream.
//!
//! UDP delivers datagrams out of order, twice, or not at all. The
//! [`Reassembler`] restores per-source order with a bounded reorder
//! buffer, suppresses duplicates, and converts unrecoverable gaps into
//! explicit [`ReassemblyOut::Lost`] items instead of wedging the
//! consumer. [`StreamDecoder`] layers the wire decoding and
//! [`StreamItem`] conversion on top, and feeds the shared
//! [`TransportCounters`] that back the [`TransportStats`] snapshot.
//! Nothing here filters events: each server's profiler already sent
//! only what its filter accepts.
//!
//! Loss-recovery state machine (per source):
//!
//! ```text
//!            seq == next                  seq > next
//!   IN-ORDER ───────────► emit, next+=1   ──────────► BUFFERED
//!      ▲                                                 │
//!      │  buffer drains (consecutive run from `next`)    │
//!      ◄─────────────────────────────────────────────────┤
//!      │                                                 │ buffer > window
//!      │        Lost { next .. first-1 } emitted,        ▼
//!      └──────────────── next = first ◄────────────── GAP DECLARED
//! ```
//!
//! `seq < next` (or already buffered) is a duplicate and is dropped;
//! a frame arriving after a higher sequence number counts as reordered.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;

use crate::format::parse_event;
use crate::udp::StreamItem;
use crate::wire::{decode_datagram, DecodedDatagram, FrameBody, FRAME_PREFIX};

/// Default reorder-buffer window: frames held per source before a gap is
/// declared. The emitter packs up to [`crate::udp::MAX_DATAGRAM`] bytes
/// of frames into one datagram (about 20 trace events, or 20–50 dot
/// lines), so a datagram that arrives a few datagrams late is still
/// several dozen frames behind; 256 frames tolerates that, where one
/// frame per datagram needed 64.
pub const DEFAULT_REORDER_WINDOW: usize = 256;

// ---------------------------------------------------------------------
// Transport statistics
// ---------------------------------------------------------------------

/// Shared live counters updated by the receive path. Every counter but
/// `datagrams` counts frames (or lines); a datagram may carry several
/// frames.
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Datagrams decoded, framed or not.
    pub datagrams: AtomicU64,
    /// Frames whose header decoded (includes duplicates and heartbeats).
    pub received: AtomicU64,
    /// Frames that arrived after a higher sequence number.
    pub reordered: AtomicU64,
    /// Frames whose sequence number was already consumed or buffered.
    pub duplicated: AtomicU64,
    /// Frames covered by emitted `Lost` gaps.
    pub lost: AtomicU64,
    /// Stream items evicted by the bounded ring between the socket
    /// thread and the consumer.
    pub dropped_backpressure: AtomicU64,
    /// Lines/frames that could not be understood (legacy garbage,
    /// corrupt frames, unparseable event payloads).
    pub garbled: AtomicU64,
}

impl TransportCounters {
    /// Read a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            datagrams: self.datagrams.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            dropped_backpressure: self.dropped_backpressure.load(Ordering::Relaxed),
            garbled: self.garbled.load(Ordering::Relaxed),
        }
    }

    fn add(&self, which: &AtomicU64, n: u64) {
        which.fetch_add(n, Ordering::Relaxed);
    }
}

/// Point-in-time transport health snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct TransportStats {
    /// Datagrams decoded, framed or not.
    pub datagrams: u64,
    /// Frames whose header decoded.
    pub received: u64,
    /// Frames that arrived after a higher sequence number.
    pub reordered: u64,
    /// Duplicate frames suppressed.
    pub duplicated: u64,
    /// Frames reported lost via `Lost` gaps.
    pub lost: u64,
    /// Items dropped by receive-side backpressure.
    pub dropped_backpressure: u64,
    /// Garbled lines or frames.
    pub garbled: u64,
}

impl fmt::Display for TransportStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "transport: datagrams    {}", self.datagrams)?;
        writeln!(f, "           received     {}", self.received)?;
        writeln!(f, "           reordered    {}", self.reordered)?;
        writeln!(f, "           duplicated   {}", self.duplicated)?;
        writeln!(f, "           lost         {}", self.lost)?;
        writeln!(f, "           backpressure {}", self.dropped_backpressure)?;
        write!(f, "           garbled      {}", self.garbled)
    }
}

// ---------------------------------------------------------------------
// Reassembler
// ---------------------------------------------------------------------

/// Output of [`Reassembler::push`] / [`Reassembler::flush`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReassemblyOut<T> {
    /// One in-order item.
    Item {
        /// Its sequence number.
        seq: u64,
        /// The payload.
        item: T,
    },
    /// A contiguous run of sequence numbers that will never be
    /// delivered; emitted exactly once per maximal gap.
    Lost {
        /// First missing sequence number.
        from_seq: u64,
        /// Last missing sequence number (inclusive).
        to_seq: u64,
    },
}

/// Bounded-window, duplicate-suppressing, gap-reporting resequencer for
/// one source.
#[derive(Debug)]
pub struct Reassembler<T> {
    next: u64,
    max_seen: Option<u64>,
    buf: BTreeMap<u64, T>,
    window: usize,
    /// Frames that arrived after a higher sequence number.
    pub reordered: u64,
    /// Duplicate frames suppressed.
    pub duplicated: u64,
    /// Frames covered by emitted gaps.
    pub lost: u64,
}

impl<T> Reassembler<T> {
    /// Create with the given reorder window (≥ 1 enforced).
    pub fn new(window: usize) -> Self {
        Reassembler {
            next: 0,
            max_seen: None,
            buf: BTreeMap::new(),
            window: window.max(1),
            reordered: 0,
            duplicated: 0,
            lost: 0,
        }
    }

    /// Frames currently held in the reorder buffer.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Next sequence number the consumer is owed.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Feed one frame; in-order output is appended to `out`.
    pub fn push(&mut self, seq: u64, item: T, out: &mut Vec<ReassemblyOut<T>>) {
        if seq < self.next || self.buf.contains_key(&seq) {
            self.duplicated += 1;
            return;
        }
        if self.max_seen.is_some_and(|m| seq < m) {
            self.reordered += 1;
        }
        self.max_seen = Some(self.max_seen.map_or(seq, |m| m.max(seq)));
        if seq == self.next {
            out.push(ReassemblyOut::Item { seq, item });
            self.next += 1;
            self.drain_ready(out);
            return;
        }
        self.buf.insert(seq, item);
        // Window exceeded (by count or by span): give up on the oldest
        // gap rather than stalling the stream behind it.
        while let Some(first) = self.buf.keys().next().copied() {
            let span = self.max_seen.unwrap_or(0).saturating_sub(self.next) as usize;
            if self.buf.len() <= self.window && span < self.window {
                break;
            }
            self.declare_gap_to(first, out);
        }
    }

    /// Drain the buffer at end of stream, reporting every remaining gap.
    /// (Sequence numbers beyond the highest frame ever seen are
    /// unknowable here; emitter-side heartbeats and end-of-trace echoes
    /// bound that blind spot.)
    pub fn flush(&mut self, out: &mut Vec<ReassemblyOut<T>>) {
        while let Some(first) = self.buf.keys().next().copied() {
            self.declare_gap_to(first, out);
        }
    }

    fn declare_gap_to(&mut self, first: u64, out: &mut Vec<ReassemblyOut<T>>) {
        if first > self.next {
            out.push(ReassemblyOut::Lost {
                from_seq: self.next,
                to_seq: first - 1,
            });
            self.lost += first - self.next;
            self.next = first;
        }
        self.drain_ready(out);
    }

    fn drain_ready(&mut self, out: &mut Vec<ReassemblyOut<T>>) {
        while let Some(item) = self.buf.remove(&self.next) {
            out.push(ReassemblyOut::Item {
                seq: self.next,
                item,
            });
            self.next += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Stream decoder
// ---------------------------------------------------------------------

/// Sequenced payload: a decoded frame body or a corrupt-but-sequenced
/// datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Body(FrameBody),
    Garbled(String),
}

struct SourceState {
    reasm: Reassembler<Slot>,
    eot_emitted: bool,
    // Mirrored-to-atomics watermarks for the per-source reassembler.
    reordered_flushed: u64,
    duplicated_flushed: u64,
    lost_flushed: u64,
}

/// Decodes raw datagrams from any number of sources into ordered
/// [`StreamItem`]s: wire decoding → reassembly → event parsing. Pure and
/// synchronous, so tests can drive it without sockets or threads.
pub struct StreamDecoder {
    window: usize,
    sources: HashMap<SocketAddr, SourceState>,
    counters: Arc<TransportCounters>,
}

impl StreamDecoder {
    /// Standalone decoder with counters of its own.
    pub fn new(window: usize) -> Self {
        StreamDecoder::with_counters(window, Arc::default())
    }

    /// Decoder feeding externally shared counters (the form
    /// [`crate::udp::TextualStethoscope`] uses).
    pub fn with_counters(window: usize, counters: Arc<TransportCounters>) -> Self {
        StreamDecoder {
            window: window.max(1),
            sources: HashMap::new(),
            counters,
        }
    }

    /// The live counters this decoder updates.
    pub fn counters(&self) -> Arc<TransportCounters> {
        Arc::clone(&self.counters)
    }

    /// Decode one datagram (raw bytes) from `source`.
    pub fn decode_bytes(&mut self, source: SocketAddr, bytes: &[u8], out: &mut Vec<StreamItem>) {
        let text = String::from_utf8_lossy(bytes);
        self.decode(source, &text, out);
    }

    /// Decode one datagram (text) from `source`. A datagram that starts
    /// with [`FRAME_PREFIX`] carries one or more frames, one per line,
    /// and each line is decoded and sequenced as its own frame; any other
    /// datagram is legacy traffic, classified line by line.
    pub fn decode(&mut self, source: SocketAddr, text: &str, out: &mut Vec<StreamItem>) {
        self.counters.add(&self.counters.datagrams, 1);
        if text.starts_with(FRAME_PREFIX) {
            for line in text.split('\n').filter(|l| !l.is_empty()) {
                self.decode_frame(source, line, out);
            }
        } else {
            self.decode_frame(source, text, out);
        }
    }

    /// Decode one frame, or one legacy datagram.
    fn decode_frame(&mut self, source: SocketAddr, text: &str, out: &mut Vec<StreamItem>) {
        match decode_datagram(text) {
            DecodedDatagram::Legacy if text.is_empty() => {
                // A datagram with no bytes carries no line at all.
                self.counters.add(&self.counters.garbled, 1);
                out.push(StreamItem::Garbled {
                    source,
                    line: String::new(),
                });
            }
            DecodedDatagram::Legacy => {
                for line in text.lines() {
                    if let Some(item) = self.classify_legacy(source, line) {
                        out.push(item);
                    }
                }
            }
            DecodedDatagram::Frame(frame) => {
                self.counters.add(&self.counters.received, 1);
                self.push_slot(source, frame.seq, Slot::Body(frame.body), out);
            }
            DecodedDatagram::GarbledFrame { seq, line } => {
                self.counters.add(&self.counters.received, 1);
                self.push_slot(source, seq, Slot::Garbled(line), out);
            }
        }
    }

    /// End-of-stream: drain every source's reorder buffer, reporting
    /// trailing gaps.
    pub fn flush_all(&mut self, out: &mut Vec<StreamItem>) {
        // Deterministic source order for reproducible logs.
        let mut addrs: Vec<SocketAddr> = self.sources.keys().copied().collect();
        addrs.sort();
        for addr in addrs {
            let mut reasm_out = Vec::new();
            let st = self.sources.get_mut(&addr).expect("known source");
            st.reasm.flush(&mut reasm_out);
            self.sync_counters(addr);
            for r in reasm_out {
                if let Some(item) = self.convert(addr, r) {
                    out.push(item);
                }
            }
        }
    }

    fn state(&mut self, source: SocketAddr) -> &mut SourceState {
        let window = self.window;
        self.sources.entry(source).or_insert_with(|| SourceState {
            reasm: Reassembler::new(window),
            eot_emitted: false,
            reordered_flushed: 0,
            duplicated_flushed: 0,
            lost_flushed: 0,
        })
    }

    fn push_slot(&mut self, source: SocketAddr, seq: u64, slot: Slot, out: &mut Vec<StreamItem>) {
        let mut reasm_out = Vec::new();
        self.state(source).reasm.push(seq, slot, &mut reasm_out);
        self.sync_counters(source);
        for r in reasm_out {
            if let Some(item) = self.convert(source, r) {
                out.push(item);
            }
        }
    }

    /// Mirror the per-source reassembler counters into the shared
    /// atomics, once per delta.
    fn sync_counters(&mut self, source: SocketAddr) {
        let st = self.sources.get_mut(&source).expect("known source");
        let (r, d, l) = (st.reasm.reordered, st.reasm.duplicated, st.reasm.lost);
        self.counters
            .add(&self.counters.reordered, r - st.reordered_flushed);
        self.counters
            .add(&self.counters.duplicated, d - st.duplicated_flushed);
        self.counters.add(&self.counters.lost, l - st.lost_flushed);
        st.reordered_flushed = r;
        st.duplicated_flushed = d;
        st.lost_flushed = l;
    }

    fn convert(&mut self, source: SocketAddr, r: ReassemblyOut<Slot>) -> Option<StreamItem> {
        match r {
            ReassemblyOut::Lost { from_seq, to_seq } => Some(StreamItem::Lost {
                source,
                from_seq,
                to_seq,
            }),
            ReassemblyOut::Item { item, .. } => match item {
                Slot::Garbled(line) => {
                    self.counters.add(&self.counters.garbled, 1);
                    Some(StreamItem::Garbled { source, line })
                }
                Slot::Body(body) => self.body_to_item(source, body),
            },
        }
    }

    fn body_to_item(&mut self, source: SocketAddr, body: FrameBody) -> Option<StreamItem> {
        match body {
            FrameBody::DotBegin { name } => {
                // A new query stream re-arms end-of-trace emission.
                self.state(source).eot_emitted = false;
                Some(StreamItem::DotBegin { source, name })
            }
            FrameBody::DotLine { line } => Some(StreamItem::DotLine { source, line }),
            FrameBody::DotEnd => Some(StreamItem::DotEnd { source }),
            FrameBody::Event { line } => match parse_event(&line) {
                Ok(event) => Some(StreamItem::Event { source, event }),
                Err(_) => {
                    self.counters.add(&self.counters.garbled, 1);
                    Some(StreamItem::Garbled { source, line })
                }
            },
            FrameBody::EndOfTrace => {
                let st = self.state(source);
                if st.eot_emitted {
                    // Redundant end-of-trace echo (loss protection):
                    // deliver only the first.
                    None
                } else {
                    st.eot_emitted = true;
                    Some(StreamItem::EndOfTrace { source })
                }
            }
            FrameBody::Heartbeat => None,
        }
    }

    /// The original unframed classification rules (back-compat path).
    fn classify_legacy(&mut self, source: SocketAddr, line: &str) -> Option<StreamItem> {
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            return None;
        }
        if let Some(name) = trimmed.strip_prefix("%dot-begin") {
            let name = name.trim();
            if name.is_empty() {
                // Regression: a bare `%dot-begin` used to open an
                // unnamed capture; reject it as garbled instead.
                self.counters.add(&self.counters.garbled, 1);
                return Some(StreamItem::Garbled {
                    source,
                    line: trimmed.to_string(),
                });
            }
            return Some(StreamItem::DotBegin {
                source,
                name: name.to_string(),
            });
        }
        if trimmed == "%dot-end" {
            return Some(StreamItem::DotEnd { source });
        }
        if let Some(rest) = trimmed.strip_prefix("%dot") {
            // `%dot ` prefix; an empty dot line arrives as just `%dot`.
            let content = rest.strip_prefix(' ').unwrap_or(rest);
            return Some(StreamItem::DotLine {
                source,
                line: content.to_string(),
            });
        }
        if trimmed == "%eot" {
            return Some(StreamItem::EndOfTrace { source });
        }
        match parse_event(trimmed) {
            Ok(event) => Some(StreamItem::Event { source, event }),
            Err(_) => {
                self.counters.add(&self.counters.garbled, 1);
                Some(StreamItem::Garbled {
                    source,
                    line: trimmed.to_string(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> SocketAddr {
        "127.0.0.1:9000".parse().unwrap()
    }

    fn seqs<T: Clone>(out: &[ReassemblyOut<T>]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                ReassemblyOut::Item { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_passthrough() {
        let mut r = Reassembler::new(8);
        let mut out = Vec::new();
        for s in 0..5u64 {
            r.push(s, s, &mut out);
        }
        assert_eq!(seqs(&out), vec![0, 1, 2, 3, 4]);
        assert_eq!((r.reordered, r.duplicated, r.lost), (0, 0, 0));
    }

    #[test]
    fn reorder_within_window_recovers() {
        let mut r = Reassembler::new(8);
        let mut out = Vec::new();
        for s in [0u64, 2, 1, 3] {
            r.push(s, s, &mut out);
        }
        assert_eq!(seqs(&out), vec![0, 1, 2, 3]);
        assert_eq!(r.reordered, 1, "frame 1 arrived after frame 2");
        assert_eq!(r.lost, 0);
    }

    #[test]
    fn duplicates_suppressed() {
        let mut r = Reassembler::new(8);
        let mut out = Vec::new();
        for s in [0u64, 1, 1, 0, 2] {
            r.push(s, s, &mut out);
        }
        assert_eq!(seqs(&out), vec![0, 1, 2]);
        assert_eq!(r.duplicated, 2);
    }

    #[test]
    fn gap_declared_past_window() {
        let mut r = Reassembler::new(4);
        let mut out = Vec::new();
        r.push(0, 0, &mut out);
        // seq 1 never arrives; 2..=6 overflow the window of 4.
        for s in 2u64..=6 {
            r.push(s, s, &mut out);
        }
        assert!(out.contains(&ReassemblyOut::Lost {
            from_seq: 1,
            to_seq: 1
        }));
        assert_eq!(seqs(&out), vec![0, 2, 3, 4, 5, 6]);
        assert_eq!(r.lost, 1);
    }

    #[test]
    fn flush_reports_trailing_gaps() {
        let mut r = Reassembler::new(16);
        let mut out = Vec::new();
        for s in [0u64, 3, 4, 8] {
            r.push(s, s, &mut out);
        }
        r.flush(&mut out);
        assert_eq!(seqs(&out), vec![0, 3, 4, 8]);
        let gaps: Vec<(u64, u64)> = out
            .iter()
            .filter_map(|o| match o {
                ReassemblyOut::Lost { from_seq, to_seq } => Some((*from_seq, *to_seq)),
                _ => None,
            })
            .collect();
        assert_eq!(gaps, vec![(1, 2), (5, 7)]);
        assert_eq!(r.lost, 5);
    }

    #[test]
    fn decoder_orders_framed_stream_and_counts() {
        let mut dec = StreamDecoder::new(8);
        let mut out = Vec::new();
        // dot-begin(0), event(2) before event(1), duplicate of 2, eot(3).
        dec.decode(src(), "%frm 0 dot-begin user.q", &mut out);
        dec.decode(
            src(),
            "%frm 2 ev [ 1, \"done\", 0, 0, 5, 5, 0, \"a.b();\" ]",
            &mut out,
        );
        dec.decode(
            src(),
            "%frm 1 ev [ 0, \"start\", 0, 0, 0, 0, 0, \"a.b();\" ]",
            &mut out,
        );
        dec.decode(
            src(),
            "%frm 2 ev [ 1, \"done\", 0, 0, 5, 5, 0, \"a.b();\" ]",
            &mut out,
        );
        dec.decode(src(), "%frm 3 eot", &mut out);
        dec.decode(src(), "%frm 4 eot", &mut out); // echo: swallowed
        let kinds: Vec<&str> = out
            .iter()
            .map(|i| match i {
                StreamItem::DotBegin { .. } => "db",
                StreamItem::Event { .. } => "ev",
                StreamItem::EndOfTrace { .. } => "eot",
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kinds, vec!["db", "ev", "ev", "eot"]);
        let stats = dec.counters().snapshot();
        assert_eq!(stats.received, 6);
        assert_eq!(stats.reordered, 1);
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.lost, 0);
    }

    const EV0: &str = "[ 0, \"start\", 0, 0, 0, 0, 0, \"a.b();\" ]";
    const EV1: &str = "[ 1, \"done\", 0, 0, 5, 5, 0, \"a.b();\" ]";

    fn kinds(out: &[StreamItem]) -> Vec<&'static str> {
        out.iter()
            .map(|i| match i {
                StreamItem::DotBegin { .. } => "db",
                StreamItem::DotLine { .. } => "dl",
                StreamItem::DotEnd { .. } => "de",
                StreamItem::Event { .. } => "ev",
                StreamItem::EndOfTrace { .. } => "eot",
                StreamItem::Garbled { .. } => "garbled",
                StreamItem::Lost { .. } => "lost",
            })
            .collect()
    }

    #[test]
    fn decoder_splits_a_packed_datagram_into_frames() {
        let mut dec = StreamDecoder::new(8);
        let mut out = Vec::new();
        let packed = format!(
            "%frm 0 dot-begin user.q\n%frm 1 dot digraph g {{\n%frm 2 dot\n%frm 3 dot-end\n\
             %frm 4 ev {EV0}\n%frm 5 ev {EV1}\n%frm 6 hb"
        );
        dec.decode(src(), &packed, &mut out);
        dec.decode(src(), "%frm 7 eot\n%frm 8 eot\n%frm 9 eot", &mut out);
        assert_eq!(kinds(&out), vec!["db", "dl", "dl", "de", "ev", "ev", "eot"]);
        assert!(matches!(&out[2], StreamItem::DotLine { line, .. } if line.is_empty()));
        let stats = dec.counters().snapshot();
        assert_eq!((stats.datagrams, stats.received), (2, 10));
        assert_eq!((stats.lost, stats.garbled), (0, 0));
    }

    #[test]
    fn decoder_garbled_middle_line_spoils_only_its_frame() {
        let mut dec = StreamDecoder::new(8);
        let mut out = Vec::new();
        // Header unreadable: an unsequenced garbled line, and its
        // sequence number becomes a gap.
        let packed = format!("%frm 0 ev {EV0}\nnot a frame\n%frm 2 ev {EV1}");
        dec.decode(src(), &packed, &mut out);
        // Header readable, kind unknown: sequenced, so no gap.
        dec.decode(src(), "%frm 3 hb\n%frm 4 wobble\n%frm 5 hb", &mut out);
        dec.flush_all(&mut out);
        assert_eq!(kinds(&out), vec!["ev", "garbled", "lost", "ev", "garbled"]);
        assert!(matches!(&out[1], StreamItem::Garbled { line, .. } if line == "not a frame"));
        assert!(matches!(
            out[2],
            StreamItem::Lost {
                from_seq: 1,
                to_seq: 1,
                ..
            }
        ));
        let stats = dec.counters().snapshot();
        assert_eq!((stats.received, stats.lost, stats.garbled), (5, 1, 2));
    }

    #[test]
    fn decoder_truncated_packed_datagram_keeps_its_whole_frames() {
        let mut dec = StreamDecoder::new(8);
        let mut out = Vec::new();
        let packed = format!("%frm 0 ev {EV0}\n%frm 1 ev {EV1}");
        let cut = &packed[..packed.len() - 10];
        dec.decode(src(), cut, &mut out);
        dec.decode(src(), "%frm 2 eot", &mut out);
        // The cut frame's header survived: it is sequenced and garbled,
        // not lost.
        assert_eq!(kinds(&out), vec!["ev", "garbled", "eot"]);
        let stats = dec.counters().snapshot();
        assert_eq!((stats.received, stats.lost, stats.garbled), (3, 0, 1));
    }

    #[test]
    fn decoder_legacy_multi_line_datagram_is_not_split_as_frames() {
        let mut dec = StreamDecoder::new(8);
        let mut out = Vec::new();
        // Unframed first line: every line takes the legacy rules, a
        // framed-looking later line included.
        dec.decode(src(), &format!("{EV0}\n%frm 3 hb\n%eot"), &mut out);
        assert_eq!(kinds(&out), vec!["ev", "garbled", "eot"]);
        let stats = dec.counters().snapshot();
        assert_eq!((stats.datagrams, stats.received, stats.garbled), (1, 0, 1));
    }

    #[test]
    fn decoder_legacy_lines_still_parse() {
        let mut dec = StreamDecoder::new(8);
        let mut out = Vec::new();
        dec.decode(
            src(),
            "%dot-begin user.q\n%dot digraph g {\n%dot-end",
            &mut out,
        );
        dec.decode(
            src(),
            "[ 0, \"start\", 0, 0, 0, 0, 0, \"a.b();\" ]",
            &mut out,
        );
        dec.decode(src(), "%eot", &mut out);
        assert!(matches!(out[0], StreamItem::DotBegin { .. }));
        assert!(matches!(out[1], StreamItem::DotLine { .. }));
        assert!(matches!(out[2], StreamItem::DotEnd { .. }));
        assert!(matches!(out[3], StreamItem::Event { .. }));
        assert!(matches!(out[4], StreamItem::EndOfTrace { .. }));
    }

    #[test]
    fn decoder_legacy_unnamed_dot_begin_is_garbled() {
        let mut dec = StreamDecoder::new(8);
        let mut out = Vec::new();
        dec.decode(src(), "%dot-begin", &mut out);
        assert!(matches!(out.first(), Some(StreamItem::Garbled { .. })));
        assert_eq!(dec.counters().snapshot().garbled, 1);
    }

    #[test]
    fn decoder_reports_lost_gap_on_flush() {
        let mut dec = StreamDecoder::new(8);
        let mut out = Vec::new();
        dec.decode(src(), "%frm 0 hb", &mut out);
        dec.decode(src(), "%frm 3 hb", &mut out);
        dec.flush_all(&mut out);
        assert_eq!(
            out,
            vec![StreamItem::Lost {
                source: src(),
                from_seq: 1,
                to_seq: 2
            }]
        );
        assert_eq!(dec.counters().snapshot().lost, 2);
    }
}
