//! # stetho-profiler — the MAL profiler and the textual Stethoscope
//!
//! "The MAL profiler is a component in MonetDB kernel which profiles
//! executed MAL instructions. ... The events are either sent over a UDP
//! stream back to the Stethoscope, or are dumped in a file, for offline
//! analysis." (paper §3)
//!
//! This crate reproduces that component and its client side:
//!
//! * [`TraceEvent`] — one profiler record; each executed MAL instruction
//!   produces a `start` and a `done` event (paper §3.3, Figure 3);
//! * [`mod@format`] — the textual trace line format with a parser that
//!   round-trips, so trace files written here can be replayed offline;
//! * [`FilterOptions`] — "The profiler accepts filter options set through
//!   Stethoscope, which enables it to profile only a subset of event
//!   types" (§3);
//! * [`TraceFile`] — buffered trace file writer/reader;
//! * [`SampleBuffer`] — the bounded buffer of §4.2 that online mode
//!   samples trace content into, as whole events (the online monitor
//!   keeps the same window as pair-elision state, `stetho-core`'s
//!   `ElisionWindow`);
//! * [`udp`] — a real UDP emitter and the *textual Stethoscope* listener,
//!   which "can connect to multiple MonetDB servers at the same time to
//!   receive execution traces from all (distributed) sources" (§3.2).

pub mod chaos;
pub mod event;
pub mod filter;
pub mod format;
pub mod reassembly;
pub mod sampler;
pub mod stats;
pub mod tracefile;
pub mod udp;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosLink, ChaosReport};
pub use event::{EventStatus, TraceEvent};
pub use filter::FilterOptions;
pub use format::{format_event, parse_event, FormatError};
pub use reassembly::{Reassembler, ReassemblyOut, StreamDecoder, TransportStats};
pub use sampler::SampleBuffer;
pub use stats::TraceStats;
pub use tracefile::TraceFile;
pub use udp::{
    ProfilerEmitter, StopHandle, StreamItem, StreamReceiver, StreamRecvError, TextualStethoscope,
};
