//! UDP streaming: the profiler emitter and the *textual Stethoscope*.
//!
//! "It uses a UDP socket interface to connect to MonetDB server, for
//! receiving the MonetDB execution trace. The textual Stethoscope can
//! connect to multiple MonetDB servers at the same time to receive
//! execution traces from all (distributed) sources." (§3.2)
//!
//! And for online mode: "The MonetDB server generates the dot file content
//! and sends it over on the UDP stream to the textual Stethoscope, before
//! query execution begins. A separate thread monitors the received UDP
//! stream for dot file and execution trace file content." (§4.2)
//!
//! The wire is hostile: UDP drops, reorders, and duplicates datagrams.
//! The resilient path layers three defenses over the paper's raw text
//! stream:
//!
//! 1. **Framing** ([`crate::wire`]): every frame carries a per-source
//!    sequence number and kind (`%frm <seq> <kind> …`), and a datagram
//!    carries one or more frames, one per line;
//! 2. **Reassembly** ([`crate::reassembly`]): a bounded per-source
//!    reorder buffer restores order, suppresses duplicates, and reports
//!    unrecoverable gaps as [`StreamItem::Lost`] instead of hanging;
//! 3. **Backpressure**: a bounded drop-oldest ring decouples the socket
//!    thread from the consumer; evictions are counted, never blocking.
//!
//! Emitter-side, heartbeats keep sequence numbers flowing through idle
//! periods, and end-of-trace is echoed so trailing loss stays
//! detectable. A failed send is counted, not retried: its frames'
//! sequence numbers surface downstream as a `Lost` gap.
//!
//! The listener only frames and reassembles. Event filtering happens at
//! the source, in each server's profiler (`ProfilerConfig::filter` in
//! `stetho-engine`), so filtered events never cross the wire.
//!
//! Legacy unframed datagrams (old emitters, recorded trace files) are
//! still classified line-by-line with the original rules.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::chaos::{ChaosEndpoint, ChaosLink, ChaosReceiver};
use crate::event::TraceEvent;
use crate::format::format_event;
use crate::reassembly::{StreamDecoder, TransportCounters, TransportStats, DEFAULT_REORDER_WINDOW};
use crate::wire::{encode_frame, Frame, FrameBody};

/// One item of the merged multi-server stream, tagged with its source.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    /// Start of a dot file; payload is the plan name.
    DotBegin {
        /// Sending server.
        source: SocketAddr,
        /// Plan name announced by the server.
        name: String,
    },
    /// One line of dot file content.
    DotLine {
        /// Sending server.
        source: SocketAddr,
        /// Raw dot text line.
        line: String,
    },
    /// End of the dot file.
    DotEnd {
        /// Sending server.
        source: SocketAddr,
    },
    /// One trace event (as filtered by the server's profiler).
    Event {
        /// Sending server.
        source: SocketAddr,
        /// The record.
        event: TraceEvent,
    },
    /// End of trace for the current query on this server.
    EndOfTrace {
        /// Sending server.
        source: SocketAddr,
    },
    /// A line that could not be parsed (kept for diagnostics).
    Garbled {
        /// Sending server.
        source: SocketAddr,
        /// Raw line.
        line: String,
    },
    /// A contiguous range of datagrams from `source` that will never
    /// arrive; consumers should degrade gracefully instead of waiting.
    Lost {
        /// Sending server.
        source: SocketAddr,
        /// First missing sequence number.
        from_seq: u64,
        /// Last missing sequence number (inclusive).
        to_seq: u64,
    },
}

// ---------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------

/// Emit a heartbeat after this many data frames, so a mostly-idle or
/// tail-end stream still reveals loss (deterministic: tied to frame
/// count, not wall clock).
pub const HEARTBEAT_EVERY: u64 = 64;

/// Extra `eot` echo frames sent after end-of-trace; each consumes a
/// sequence number, bounding the receiver's trailing blind spot.
pub const EOT_ECHOES: u32 = 2;

/// Largest datagram the emitter packs frames into, in bytes: under the
/// 1500-byte Ethernet MTU with room for IP and UDP headers. A frame
/// longer than this goes out alone.
pub const MAX_DATAGRAM: usize = 1400;

/// Emitter-side transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmitterStats {
    /// Frames successfully handed to the transport.
    pub frames_sent: u64,
    /// Datagrams successfully handed to the transport; each carries one
    /// or more frames.
    pub datagrams_sent: u64,
    /// Heartbeat frames among them.
    pub heartbeats: u64,
    /// Frames whose send failed (their sequence numbers surface as
    /// `Lost` gaps on the receiver).
    pub send_errors: u64,
}

#[derive(Debug)]
enum EmitterLink {
    Udp(UdpSocket),
    Mem(ChaosEndpoint),
}

/// When [`ProfilerEmitter::send`] hands queued frames to the link.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// Leave them for the next send.
    Later,
    /// Now, or through the send already in flight.
    Now,
    /// Now, and return only once they are on the link.
    Wait,
}

/// Frames waiting for the link, and who is sending them.
#[derive(Default)]
struct Outbox {
    /// Next sequence number to allocate.
    next_seq: u64,
    /// Encoded frames not yet handed to the link, in sequence order.
    frames: VecDeque<String>,
    /// Every sequence number below this has been handed to the link.
    sent_below: u64,
    /// A thread is draining `frames`; others leave their frames to it.
    sending: bool,
    /// Threads blocked until their frames are sent.
    waiters: usize,
    /// The datagram buffer, kept to reuse its allocation.
    datagram: Vec<u8>,
}

/// Server-side (Mserver) emitter: streams framed profiler output to one
/// textual Stethoscope.
///
/// Consecutive frames share a datagram of at most [`MAX_DATAGRAM`]
/// bytes, newline-separated, each with its own `%frm <seq>` header. No
/// timer is involved: a caller queues its frames under the outbox lock,
/// and the thread that finds no send in flight becomes the sender and
/// drains the outbox, releasing the lock during each syscall. Frames
/// queued meanwhile by other threads (which return at once) ride in the
/// sender's next datagrams, so a frame waits at most for the send in
/// flight, and one sender at a time keeps wire order equal to sequence
/// order.
///
/// [`ProfilerEmitter::emit_deferred`] queues an event without sending
/// it: it rides in the datagram of the next frame any caller sends, or
/// leaves at [`ProfilerEmitter::send_queued`]. The engine defers its
/// `done` events this way, so one scheduling step (a `done` and the
/// next `start`) costs one datagram.
pub struct ProfilerEmitter {
    link: EmitterLink,
    outbox: std::sync::Mutex<Outbox>,
    /// Signalled when a sender finishes and someone waits for it.
    drained: Condvar,
    data_frames: AtomicU64,
    frames_sent: AtomicU64,
    datagrams_sent: AtomicU64,
    heartbeats: AtomicU64,
    send_errors: AtomicU64,
}

impl ProfilerEmitter {
    /// Create an emitter targeting `stethoscope` over real UDP (e.g. the
    /// address returned by [`TextualStethoscope::local_addr`]).
    pub fn connect(stethoscope: impl ToSocketAddrs) -> io::Result<Self> {
        let peer = stethoscope
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(peer)?;
        Ok(Self::over_link(EmitterLink::Udp(socket)))
    }

    /// Create an emitter sending into a deterministic in-memory
    /// [`ChaosLink`] instead of a socket.
    pub fn over(link: &ChaosLink) -> Self {
        Self::over_link(EmitterLink::Mem(link.endpoint()))
    }

    fn over_link(link: EmitterLink) -> Self {
        ProfilerEmitter {
            link,
            outbox: std::sync::Mutex::new(Outbox::default()),
            drained: Condvar::new(),
            data_frames: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            datagrams_sent: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
        }
    }

    /// The emitter's own address — the stream's source tag on the
    /// receiving side.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match &self.link {
            EmitterLink::Udp(socket) => socket.local_addr(),
            EmitterLink::Mem(ep) => Ok(ep.local_addr()),
        }
    }

    /// Emitter-side counters.
    pub fn stats(&self) -> EmitterStats {
        EmitterStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            datagrams_sent: self.datagrams_sent.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
        }
    }

    /// Send one trace event, followed by a heartbeat every
    /// [`HEARTBEAT_EVERY`] events.
    pub fn emit(&self, e: &TraceEvent) {
        self.send(self.event_frames(e), Dispatch::Now);
    }

    /// Queue one trace event (and its heartbeat, as [`Self::emit`]
    /// would send) without sending it. It leaves in the datagram of the
    /// next frame anyone sends through this emitter, or at
    /// [`Self::send_queued`]; until then it holds up no one.
    pub fn emit_deferred(&self, e: &TraceEvent) {
        self.send(self.event_frames(e), Dispatch::Later);
    }

    /// Send every frame queued so far, unless another thread's send is
    /// in flight and will carry them.
    pub fn send_queued(&self) {
        self.send([], Dispatch::Now);
    }

    /// The event's frame, then a heartbeat every [`HEARTBEAT_EVERY`]
    /// events.
    fn event_frames(&self, e: &TraceEvent) -> impl Iterator<Item = FrameBody> {
        let event = FrameBody::Event {
            line: format_event(e),
        };
        let n = self.data_frames.fetch_add(1, Ordering::Relaxed) + 1;
        let heartbeat = n.is_multiple_of(HEARTBEAT_EVERY).then(|| {
            self.heartbeats.fetch_add(1, Ordering::Relaxed);
            FrameBody::Heartbeat
        });
        std::iter::once(event).chain(heartbeat)
    }

    /// Send a complete dot file, framed, before query execution begins.
    pub fn send_dot(&self, plan_name: &str, dot_text: &str) {
        let begin = FrameBody::DotBegin {
            name: plan_name.to_string(),
        };
        let lines = dot_text.lines().map(|line| FrameBody::DotLine {
            line: line.to_string(),
        });
        let bodies = std::iter::once(begin)
            .chain(lines)
            .chain(std::iter::once(FrameBody::DotEnd));
        self.send(bodies, Dispatch::Now);
    }

    /// Mark the end of the current query's trace. Echoed [`EOT_ECHOES`]
    /// times so a dropped `eot` (or trailing data frame) still leaves
    /// the receiver a later sequence number to detect the gap with.
    /// Returns once every frame queued so far is on the link, so nothing
    /// sent afterwards from another socket can overtake the stream.
    pub fn send_end_of_trace(&self) {
        self.send(
            (0..=EOT_ECHOES).map(|_| FrameBody::EndOfTrace),
            Dispatch::Wait,
        );
    }

    /// Send a liveness heartbeat now.
    pub fn send_heartbeat(&self) {
        self.heartbeats.fetch_add(1, Ordering::Relaxed);
        self.send([FrameBody::Heartbeat], Dispatch::Now);
    }

    fn lock_outbox(&self) -> std::sync::MutexGuard<'_, Outbox> {
        self.outbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocate consecutive sequence numbers to `bodies` and queue them,
    /// then, unless `when` is [`Dispatch::Later`], drain the outbox onto
    /// the link unless another thread already is. With
    /// [`Dispatch::Wait`], return only once these frames are on the
    /// link. Errors are absorbed: the sequence numbers are consumed
    /// either way, so a frame the network never saw surfaces as a `Lost`
    /// gap downstream rather than silently renumbering the stream.
    fn send(&self, bodies: impl IntoIterator<Item = FrameBody>, when: Dispatch) {
        let mut out = self.lock_outbox();
        for body in bodies {
            let seq = out.next_seq;
            out.next_seq += 1;
            out.frames.push_back(encode_frame(&Frame { seq, body }));
        }
        if when == Dispatch::Later {
            return;
        }
        if out.sending {
            if when == Dispatch::Wait {
                let mine = out.next_seq;
                out.waiters += 1;
                out = self
                    .drained
                    .wait_while(out, |o| o.sent_below < mine)
                    .unwrap_or_else(PoisonError::into_inner);
                out.waiters -= 1;
            }
            return;
        }
        out.sending = true;
        while !out.frames.is_empty() {
            let mut datagram = std::mem::take(&mut out.datagram);
            datagram.clear();
            let frames = pack(&mut out.frames, &mut datagram);
            let sent_below = out.sent_below + frames;
            drop(out);
            self.transmit(&datagram, frames);
            out = self.lock_outbox();
            out.datagram = datagram;
            out.sent_below = sent_below;
        }
        out.sending = false;
        if out.waiters > 0 {
            self.drained.notify_all();
        }
    }

    /// Hand one datagram of `frames` frames to the link.
    fn transmit(&self, datagram: &[u8], frames: u64) {
        let ok = match &self.link {
            EmitterLink::Mem(ep) => {
                ep.send(datagram);
                true
            }
            EmitterLink::Udp(socket) => socket.send(datagram).is_ok(),
        };
        if ok {
            self.frames_sent.fetch_add(frames, Ordering::Relaxed);
            self.datagrams_sent.fetch_add(1, Ordering::Relaxed);
        } else {
            self.send_errors.fetch_add(frames, Ordering::Relaxed);
        }
    }
}

/// Move frames from the front of `frames` into `datagram`, newline
/// separated, while the datagram stays within [`MAX_DATAGRAM`] bytes (a
/// longer frame goes alone). Returns how many frames were moved.
fn pack(frames: &mut VecDeque<String>, datagram: &mut Vec<u8>) -> u64 {
    let mut n = 0;
    while let Some(frame) = frames.front() {
        if n > 0 {
            if datagram.len() + 1 + frame.len() > MAX_DATAGRAM {
                break;
            }
            datagram.push(b'\n');
        }
        datagram.extend_from_slice(frame.as_bytes());
        frames.pop_front();
        n += 1;
    }
    n
}

impl std::fmt::Debug for ProfilerEmitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilerEmitter")
            .field("seq", &self.lock_outbox().next_seq)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Bounded drop-oldest ring
// ---------------------------------------------------------------------

/// Capacity of the ring between the socket thread and the
/// consumer; generous enough that well-paced sessions never evict.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Error from [`StreamReceiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamRecvError {
    /// Nothing arrived within the timeout; the stream is still open.
    Timeout,
    /// The stream ended (stethoscope stopped or link closed) and the
    /// ring is drained.
    Closed,
}

struct RingState {
    buf: VecDeque<StreamItem>,
    closed: bool,
}

struct Ring {
    state: std::sync::Mutex<RingState>,
    cv: Condvar,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Ring {
            state: std::sync::Mutex::new(RingState {
                buf: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Push the items of one datagram in order, evicting the oldest
    /// when full (never blocks the socket thread), and wake the consumer
    /// once for all of them. Returns the number of evictions.
    fn push_all(&self, items: impl IntoIterator<Item = StreamItem>) -> u64 {
        let mut st = self.state.lock().expect("stream ring poisoned");
        let mut evicted = 0;
        let mut pushed = false;
        for item in items {
            while st.buf.len() >= self.capacity {
                st.buf.pop_front();
                evicted += 1;
            }
            st.buf.push_back(item);
            pushed = true;
        }
        drop(st);
        if pushed {
            // All: a `StopHandle` may be waiting on this condvar for the
            // close, and must not take a consumer's wakeup.
            self.cv.notify_all();
        }
        evicted
    }

    fn close(&self) {
        self.state.lock().expect("stream ring poisoned").closed = true;
        self.cv.notify_all();
    }
}

/// Consumer handle for the stethoscope's item stream.
#[derive(Clone)]
pub struct StreamReceiver {
    ring: Arc<Ring>,
}

impl StreamReceiver {
    /// Wait up to `timeout` for the next item.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<StreamItem, StreamRecvError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.ring.state.lock().expect("stream ring poisoned");
        loop {
            if let Some(item) = st.buf.pop_front() {
                return Ok(item);
            }
            if st.closed {
                return Err(StreamRecvError::Closed);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(StreamRecvError::Timeout);
            }
            let (guard, _) = self
                .ring
                .cv
                .wait_timeout(st, deadline - now)
                .expect("stream ring poisoned");
            st = guard;
        }
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Result<StreamItem, StreamRecvError> {
        let mut st = self.ring.state.lock().expect("stream ring poisoned");
        match st.buf.pop_front() {
            Some(item) => Ok(item),
            None if st.closed => Err(StreamRecvError::Closed),
            None => Err(StreamRecvError::Timeout),
        }
    }
}

// ---------------------------------------------------------------------
// Textual Stethoscope
// ---------------------------------------------------------------------

/// How long [`StopHandle::stop`] waits for the stream to close before
/// sending the stop marker again. Only a lost marker (a full receive
/// queue drops it like any datagram) ever waits this long.
const STOP_RESEND: Duration = Duration::from_millis(50);

enum Inlet {
    /// The listening socket, plus the loopback socket that sends it the
    /// stop marker.
    Udp {
        socket: UdpSocket,
        waker: Arc<UdpSocket>,
    },
    /// A chaos link's receiving side; closing it is the stop marker.
    Mem(ChaosReceiver),
}

/// What the listener thread reads datagrams from.
enum Datagrams {
    /// The listening socket, and the address the stop marker comes from.
    Udp(UdpSocket, SocketAddr),
    Mem(ChaosReceiver),
}

impl Datagrams {
    /// Block for the next datagram, leaving its bytes in `buf`. `None`
    /// ends the stream: the stop marker arrived, the socket failed, or
    /// the link closed with nothing left to deliver.
    fn recv<'b>(&self, buf: &'b mut Vec<u8>) -> Option<(SocketAddr, &'b [u8])> {
        match self {
            Datagrams::Udp(socket, marker) => {
                buf.resize(64 * 1024, 0);
                loop {
                    match socket.recv_from(buf) {
                        Ok((_, source)) if source == *marker => return None,
                        Ok((len, source)) => return Some((source, &buf[..len])),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return None,
                    }
                }
            }
            Datagrams::Mem(rx) => {
                let (source, bytes) = rx.recv()?;
                *buf = bytes;
                Some((source, buf))
            }
        }
    }
}

/// Stops a UDP listener from any thread: sends the stop marker, an empty
/// datagram from a loopback socket of its own, and waits until the
/// listener has decoded everything queued ahead of it and closed its
/// stream.
#[derive(Clone)]
pub struct StopHandle {
    waker: Arc<UdpSocket>,
    ring: Arc<Ring>,
}

impl StopHandle {
    /// Stop the listener and wait for its stream to close. Returns at
    /// once when it has already closed. It runs inside `Drop` impls, so
    /// it must not panic: a poisoned lock still holds a valid flag.
    pub fn stop(&self) {
        let mut st = self
            .ring
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !st.closed {
            let _ = self.waker.send(&[]);
            st = self
                .ring
                .cv
                .wait_timeout_while(st, STOP_RESEND, |st| !st.closed)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// The textual Stethoscope: receives interleaved dot + trace streams
/// from any number of servers (over UDP or a [`ChaosLink`]), reassembles
/// them per source, and forwards structured [`StreamItem`]s through a
/// bounded ring. It filters nothing: each server's profiler sends only
/// the events its filter accepts.
pub struct TextualStethoscope {
    inlet: Inlet,
    /// Set by [`TextualStethoscope::start`] on a UDP inlet.
    stop: Option<StopHandle>,
    counters: Arc<TransportCounters>,
    handle: Option<JoinHandle<()>>,
}

impl TextualStethoscope {
    /// Bind on an ephemeral localhost port. The listener blocks in
    /// `recv_from` with no read timeout; [`TextualStethoscope::stop`]
    /// wakes it with an empty datagram from a second loopback socket.
    pub fn bind() -> io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let waker = UdpSocket::bind(("127.0.0.1", 0))?;
        waker.connect(socket.local_addr()?)?;
        Ok(Self::with_inlet(Inlet::Udp {
            socket,
            waker: Arc::new(waker),
        }))
    }

    /// Listen on a deterministic in-memory [`ChaosLink`] instead of a
    /// socket. The listener blocks on the link until it closes, or until
    /// [`TextualStethoscope::stop`] closes its receiving side.
    pub fn over(link: &ChaosLink) -> Self {
        Self::with_inlet(Inlet::Mem(link.receiver()))
    }

    fn with_inlet(inlet: Inlet) -> Self {
        TextualStethoscope {
            inlet,
            stop: None,
            counters: Arc::new(TransportCounters::default()),
            handle: None,
        }
    }

    /// Address servers should emit to (UDP inlet only).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match &self.inlet {
            Inlet::Udp { socket, .. } => socket.local_addr(),
            Inlet::Mem(_) => Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "in-memory stethoscope has no socket address",
            )),
        }
    }

    /// A handle that stops the listener from another thread, as
    /// [`TextualStethoscope::stop`] does but without joining it. Only a
    /// started UDP inlet has one: a chaos link closes when its endpoints
    /// drop.
    pub fn stop_handle(&self) -> Option<StopHandle> {
        self.stop.clone()
    }

    /// Live transport-health snapshot.
    pub fn transport_stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    /// Shared handle on the live transport counters, for bridging them
    /// into an external metrics registry at snapshot time.
    pub fn counters(&self) -> Arc<TransportCounters> {
        Arc::clone(&self.counters)
    }

    /// Start the listening thread; returns the stream of items. Call at
    /// most once.
    pub fn start(&mut self) -> StreamReceiver {
        let ring = Ring::new(DEFAULT_RING_CAPACITY);
        let decoder = StreamDecoder::with_counters(DEFAULT_REORDER_WINDOW, self.counters());
        let datagrams = match &self.inlet {
            Inlet::Udp { socket, waker } => {
                self.stop = Some(StopHandle {
                    waker: Arc::clone(waker),
                    ring: Arc::clone(&ring),
                });
                Datagrams::Udp(
                    socket.try_clone().expect("udp socket clone"),
                    waker.local_addr().expect("waker socket address"),
                )
            }
            Inlet::Mem(rx) => Datagrams::Mem(rx.clone()),
        };
        let thread_ring = Arc::clone(&ring);
        let handle = std::thread::Builder::new()
            .name("textual-stethoscope".into())
            .spawn(move || listen(datagrams, decoder, thread_ring))
            .expect("spawn textual stethoscope thread");
        self.handle = Some(handle);
        StreamReceiver { ring }
    }

    /// Stop the listening thread and wait for it. The stop marker (over
    /// UDP) or the closed link (in memory) queues behind every datagram
    /// already received, so everything sent before `stop` is decoded and
    /// forwarded before the ring closes.
    pub fn stop(&mut self) {
        if let Inlet::Mem(rx) = &self.inlet {
            rx.close();
        }
        if let Some(stop) = &self.stop {
            stop.stop();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TextualStethoscope {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Hand `items` to the ring, leaving the vector empty for reuse.
fn forward(ring: &Ring, counters: &TransportCounters, items: &mut Vec<StreamItem>) {
    let evicted = ring.push_all(items.drain(..));
    if evicted > 0 {
        counters
            .dropped_backpressure
            .fetch_add(evicted, Ordering::Relaxed);
    }
}

/// Decode and forward datagrams until the stream ends, then flush
/// reassembly and close the ring.
fn listen(datagrams: Datagrams, mut decoder: StreamDecoder, ring: Arc<Ring>) {
    let counters = decoder.counters();
    let mut buf = Vec::new();
    let mut items = Vec::new();
    while let Some((source, bytes)) = datagrams.recv(&mut buf) {
        decoder.decode_bytes(source, bytes, &mut items);
        forward(&ring, &counters, &mut items);
    }
    decoder.flush_all(&mut items);
    forward(&ring, &counters, &mut items);
    ring.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::event::EventStatus;
    use std::time::Duration;

    fn ev(i: u64, pc: usize, stmt: &str) -> TraceEvent {
        TraceEvent {
            event: i,
            status: if i.is_multiple_of(2) {
                EventStatus::Start
            } else {
                EventStatus::Done
            },
            pc,
            thread: 0,
            clk: i,
            usec: 0,
            rss: 0,
            stmt: stmt.to_string(),
        }
    }

    fn drain(rx: &StreamReceiver, want: usize) -> Vec<StreamItem> {
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < want && std::time::Instant::now() < deadline {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(item) => got.push(item),
                Err(StreamRecvError::Timeout) => continue,
                Err(StreamRecvError::Closed) => break,
            }
        }
        got
    }

    #[test]
    fn events_flow_end_to_end() {
        let mut steth = TextualStethoscope::bind().unwrap();
        let rx = steth.start();
        let emitter = ProfilerEmitter::connect(steth.local_addr().unwrap()).unwrap();
        for i in 0..5 {
            emitter.emit(&ev(i, i as usize, "X := algebra.select(Y);"));
        }
        emitter.send_end_of_trace();
        let items = drain(&rx, 6);
        assert_eq!(items.len(), 6);
        let events: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                StreamItem::Event { event, .. } => Some(event.event),
                _ => None,
            })
            .collect();
        assert_eq!(events, vec![0, 1, 2, 3, 4]);
        assert!(matches!(items.last(), Some(StreamItem::EndOfTrace { .. })));
        let stats = steth.transport_stats();
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.garbled, 0);
        steth.stop();
    }

    #[test]
    fn dot_frames_are_classified() {
        let mut steth = TextualStethoscope::bind().unwrap();
        let rx = steth.start();
        let emitter = ProfilerEmitter::connect(steth.local_addr().unwrap()).unwrap();
        emitter.send_dot("user.s1_1", "digraph g {\nn0;\nn0 -> n1;\n}");
        let items = drain(&rx, 6);
        assert!(matches!(
            &items[0],
            StreamItem::DotBegin { name, .. } if name == "user.s1_1"
        ));
        let lines: Vec<&str> = items
            .iter()
            .filter_map(|i| match i {
                StreamItem::DotLine { line, .. } => Some(line.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lines, vec!["digraph g {", "n0;", "n0 -> n1;", "}"]);
        assert!(matches!(items.last(), Some(StreamItem::DotEnd { .. })));
        steth.stop();
    }

    #[test]
    fn multiple_servers_are_tagged_separately() {
        let mut steth = TextualStethoscope::bind().unwrap();
        let rx = steth.start();
        let addr = steth.local_addr().unwrap();
        let e1 = ProfilerEmitter::connect(addr).unwrap();
        let e2 = ProfilerEmitter::connect(addr).unwrap();
        e1.emit(&ev(0, 0, "a.b();"));
        e2.emit(&ev(0, 1, "a.b();"));
        let items = drain(&rx, 2);
        let sources: std::collections::HashSet<SocketAddr> = items
            .iter()
            .filter_map(|i| match i {
                StreamItem::Event { source, .. } => Some(*source),
                _ => None,
            })
            .collect();
        assert_eq!(sources.len(), 2, "events must be tagged per server");
        assert!(sources.contains(&e1.local_addr().unwrap()));
        assert!(sources.contains(&e2.local_addr().unwrap()));
        steth.stop();
    }

    #[test]
    fn garbled_lines_surface() {
        let mut steth = TextualStethoscope::bind().unwrap();
        let rx = steth.start();
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sock.send_to(b"this is not a record", steth.local_addr().unwrap())
            .unwrap();
        let items = drain(&rx, 1);
        assert!(matches!(items.first(), Some(StreamItem::Garbled { .. })));
        assert_eq!(steth.transport_stats().garbled, 1);
        steth.stop();
    }

    #[test]
    fn legacy_unframed_emitter_still_works() {
        // An old emitter that knows nothing about frames.
        let mut steth = TextualStethoscope::bind().unwrap();
        let rx = steth.start();
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let to = steth.local_addr().unwrap();
        sock.send_to(b"%dot-begin user.q", to).unwrap();
        sock.send_to(b"%dot digraph g {", to).unwrap();
        sock.send_to(b"%dot-end", to).unwrap();
        sock.send_to(b"[ 0, \"start\", 0, 0, 0, 0, 0, \"a.b();\" ]", to)
            .unwrap();
        sock.send_to(b"%eot", to).unwrap();
        let items = drain(&rx, 5);
        assert_eq!(items.len(), 5);
        assert!(matches!(items[0], StreamItem::DotBegin { .. }));
        assert!(matches!(items[3], StreamItem::Event { .. }));
        assert!(matches!(items[4], StreamItem::EndOfTrace { .. }));
        steth.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let mut steth = TextualStethoscope::bind().unwrap();
        let _rx = steth.start();
        steth.stop();
        steth.stop();
        // Drop after stop must not hang.
    }

    /// Everything left in a stopped listener's ring, and whether it
    /// then reported `Closed`.
    fn drain_stopped(rx: &StreamReceiver) -> (Vec<StreamItem>, bool) {
        let mut got = Vec::new();
        loop {
            match rx.try_recv() {
                Ok(item) => got.push(item),
                Err(e) => return (got, e == StreamRecvError::Closed),
            }
        }
    }

    #[test]
    fn stop_without_eot_delivers_every_frame_sent_before_it() {
        const N: u64 = 100;
        let mut steth = TextualStethoscope::bind().unwrap();
        let rx = steth.start();
        let emitter = ProfilerEmitter::connect(steth.local_addr().unwrap()).unwrap();
        for i in 0..N {
            emitter.emit(&ev(i, i as usize, "a.b();"));
        }
        steth.stop();
        let (items, closed) = drain_stopped(&rx);
        let events: Vec<u64> = items
            .iter()
            .filter_map(|i| match i {
                StreamItem::Event { event, .. } => Some(event.event),
                _ => None,
            })
            .collect();
        assert_eq!(events, (0..N).collect::<Vec<_>>(), "{items:?}");
        assert!(closed, "the ring closes after the last frame");
        assert_eq!(steth.transport_stats().lost, 0);
    }

    #[test]
    fn stop_on_idle_listener_returns_promptly() {
        // On a helper thread, so a listener that is never woken fails
        // the test instead of hanging it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut steth = TextualStethoscope::bind().unwrap();
            let rx = steth.start();
            steth.stop();
            done_tx.send(rx.try_recv()).unwrap();
        });
        let after_stop = done_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("stop() on an idle listener did not return within 1 s");
        assert_eq!(after_stop, Err(StreamRecvError::Closed));
    }

    #[test]
    fn stop_on_idle_chaos_listener_returns_promptly() {
        // The chaos listener blocks on its link with no poll; `stop`
        // must wake it although an endpoint is still open.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let link = ChaosLink::new(ChaosConfig::clean(2));
            let mut steth = TextualStethoscope::over(&link);
            let rx = steth.start();
            let emitter = ProfilerEmitter::over(&link);
            emitter.emit(&ev(0, 0, "a.b();"));
            steth.stop();
            done_tx.send(drain_stopped(&rx)).unwrap();
        });
        let (items, closed) = done_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("stop() on an idle chaos listener did not return within 1 s");
        assert!(closed, "the ring closes on stop");
        assert!(
            matches!(items.as_slice(), [StreamItem::Event { .. }]),
            "what the link delivered before stop is forwarded: {items:?}"
        );
    }

    #[test]
    fn emitting_to_a_stopped_listener_neither_waits_nor_loses_count() {
        const N: u64 = 20;
        let mut steth = TextualStethoscope::bind().unwrap();
        let emitter = ProfilerEmitter::connect(steth.local_addr().unwrap()).unwrap();
        let _rx = steth.start();
        steth.stop();
        drop(steth);
        let started = std::time::Instant::now();
        for i in 0..N {
            emitter.emit(&ev(i, i as usize, "a.b();"));
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(50),
            "{N} emits took {elapsed:?}"
        );
        let stats = emitter.stats();
        assert_eq!(stats.frames_sent + stats.send_errors, N, "{stats:?}");
    }

    #[test]
    fn stop_handle_closes_the_stream_from_the_sending_thread() {
        let mut steth = TextualStethoscope::bind().unwrap();
        let rx = steth.start();
        let stop = steth.stop_handle().expect("a UDP inlet has a stop handle");
        let to = steth.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let emitter = ProfilerEmitter::connect(to).unwrap();
            for i in 0..20 {
                emitter.emit(&ev(i, i as usize, "a.b();"));
            }
            stop.stop();
        });
        let mut events = 0;
        loop {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(StreamItem::Event { .. }) => events += 1,
                Ok(_) => {}
                Err(StreamRecvError::Closed) => break,
                Err(StreamRecvError::Timeout) => panic!("the stream never closed"),
            }
        }
        sender.join().unwrap();
        assert_eq!(events, 20);
        steth.stop();
    }

    #[test]
    fn listener_socket_has_no_read_timeout() {
        let steth = TextualStethoscope::bind().unwrap();
        let Inlet::Udp { socket, .. } = &steth.inlet else {
            panic!("bind() opens a UDP inlet");
        };
        assert_eq!(socket.read_timeout().unwrap(), None);
    }

    #[test]
    fn foreign_empty_datagram_is_garbled_not_a_stop() {
        let mut steth = TextualStethoscope::bind().unwrap();
        let rx = steth.start();
        let to = steth.local_addr().unwrap();
        let foreign = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        foreign.send_to(&[], to).unwrap();
        let emitter = ProfilerEmitter::connect(to).unwrap();
        emitter.emit(&ev(0, 0, "a.b();"));
        let items = drain(&rx, 2);
        assert!(
            matches!(&items[0], StreamItem::Garbled { line, .. } if line.is_empty()),
            "{items:?}"
        );
        assert!(matches!(&items[1], StreamItem::Event { .. }), "{items:?}");
        assert_eq!(
            rx.try_recv(),
            Err(StreamRecvError::Timeout),
            "the stream stays open"
        );
        assert_eq!(steth.transport_stats().garbled, 1);
        steth.stop();
    }

    #[test]
    fn chaos_link_round_trip_without_faults() {
        let link = ChaosLink::new(ChaosConfig::clean(1));
        let mut steth = TextualStethoscope::over(&link);
        let rx = steth.start();
        let emitter = ProfilerEmitter::over(&link);
        emitter.send_dot("user.q", "digraph g {\n}");
        for i in 0..4 {
            emitter.emit(&ev(i, i as usize, "a.b();"));
        }
        emitter.send_end_of_trace();
        drop(emitter);
        let items = drain(&rx, 9);
        assert_eq!(items.len(), 9, "{items:?}");
        assert!(matches!(items.last(), Some(StreamItem::EndOfTrace { .. })));
        let stats = steth.transport_stats();
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.duplicated, 0);
        steth.stop();
    }

    #[test]
    fn chaos_drops_surface_as_lost_gaps() {
        let link = ChaosLink::new(ChaosConfig {
            seed: 9,
            drop_rate: 0.3,
            truncate_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_depth: 0,
        });
        let mut steth = TextualStethoscope::over(&link);
        let rx = steth.start();
        let emitter = ProfilerEmitter::over(&link);
        for i in 0..100 {
            emitter.emit(&ev(i, i as usize, "a.b();"));
        }
        emitter.send_end_of_trace();
        drop(emitter);
        let mut lost_frames = 0u64;
        loop {
            match rx.recv_timeout(Duration::from_secs(2)) {
                Ok(StreamItem::Lost {
                    from_seq, to_seq, ..
                }) => {
                    lost_frames += to_seq - from_seq + 1;
                }
                Ok(_) => {}
                Err(StreamRecvError::Closed) => break,
                Err(StreamRecvError::Timeout) => panic!("stream wedged"),
            }
        }
        let report = link.report();
        assert!(report.dropped > 0, "seeded schedule must drop something");
        assert_eq!(
            lost_frames + report.frames_invisible_tail,
            report.frames_dropped,
            "every frame of a dropped datagram is either in a reported gap \
             or tail-invisible"
        );
        steth.stop();
    }

    /// Every datagram a clean link delivered, in arrival order.
    fn datagrams(link: &ChaosLink) -> Vec<String> {
        let rx = link.receiver();
        std::iter::from_fn(|| rx.recv())
            .map(|(_, bytes)| String::from_utf8(bytes).unwrap())
            .collect()
    }

    #[test]
    fn concurrent_emitters_keep_wire_order_and_lose_nothing() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 500;
        let link = ChaosLink::new(ChaosConfig::clean(3));
        let emitter = ProfilerEmitter::over(&link);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let emitter = &emitter;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = t * PER_THREAD + i;
                        emitter.emit(&ev(id, id as usize, "a.b();"));
                    }
                });
            }
        });
        emitter.send_end_of_trace();
        let stats = emitter.stats();
        drop(emitter);
        let got = datagrams(&link);
        let mut seqs = Vec::new();
        for d in &got {
            assert!(d.len() <= MAX_DATAGRAM, "{} bytes", d.len());
            for line in d.split('\n') {
                match crate::wire::decode_datagram(line) {
                    crate::wire::DecodedDatagram::Frame(f) => seqs.push(f.seq),
                    other => panic!("not a frame: {other:?}"),
                }
            }
        }
        let events = THREADS * PER_THREAD;
        let frames = events + events / HEARTBEAT_EVERY + u64::from(EOT_ECHOES) + 1;
        assert_eq!(seqs, (0..frames).collect::<Vec<_>>(), "once each, in order");
        assert_eq!(stats.frames_sent, frames);
        assert_eq!(stats.datagrams_sent, got.len() as u64);
        assert_eq!(stats.send_errors, 0);
    }

    #[test]
    fn dot_burst_and_eot_echoes_share_datagrams() {
        let link = ChaosLink::new(ChaosConfig::clean(4));
        let emitter = ProfilerEmitter::over(&link);
        let dot: String = (0..200).map(|i| format!("n{i} -> n{};\n", i + 1)).collect();
        emitter.send_dot("user.q", &dot);
        emitter.send_end_of_trace();
        let stats = emitter.stats();
        drop(emitter);
        let got = datagrams(&link);
        assert_eq!(stats.frames_sent, 1 + 200 + 1 + 3);
        assert_eq!(stats.datagrams_sent, got.len() as u64);
        assert!(got.len() < 10, "{} datagrams", got.len());
        assert!(got.iter().all(|d| d.len() <= MAX_DATAGRAM));
        assert_eq!(got.last().unwrap().matches(" eot").count(), 3);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let garbled = |i: usize| StreamItem::Garbled {
            source: "127.0.0.1:1".parse().unwrap(),
            line: i.to_string(),
        };
        let ring = Ring::new(4);
        let mut evicted = 0;
        for i in 0..10 {
            evicted += ring.push_all([garbled(i)]);
        }
        assert_eq!(evicted, 6, "drop-oldest evictions are counted");
        ring.close();
        let rx = StreamReceiver {
            ring: Arc::clone(&ring),
        };
        let mut kept = Vec::new();
        while let Ok(StreamItem::Garbled { line, .. }) = rx.try_recv() {
            kept.push(line);
        }
        assert_eq!(kept, vec!["6", "7", "8", "9"], "oldest items were evicted");
        assert_eq!(rx.try_recv(), Err(StreamRecvError::Closed));
    }
}
