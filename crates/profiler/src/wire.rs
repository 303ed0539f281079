//! Wire framing for the online UDP stream.
//!
//! The paper's stream is raw text lines over UDP (§3.2), which silently
//! drops, reorders, and duplicates datagrams. This module adds a thin
//! textual frame header so the receiving side can detect all three:
//!
//! ```text
//! %frm <seq> <kind>[ <payload>]
//! ```
//!
//! `seq` is a per-source monotonically increasing sequence number (one
//! per frame, including heartbeats), `kind` names the payload:
//!
//! | kind        | payload                 | meaning                      |
//! |-------------|-------------------------|------------------------------|
//! | `dot-begin` | plan name (non-empty)   | start of a dot file          |
//! | `dot`       | one dot text line       | dot file content             |
//! | `dot-end`   | —                       | end of the dot file          |
//! | `ev`        | one bracketed record    | trace event (Figure-3 line)  |
//! | `eot`       | —                       | end of trace for the query   |
//! | `hb`        | —                       | heartbeat / liveness         |
//!
//! A frame is one line. The emitter packs consecutive frames into one
//! datagram, newline-separated (see [`crate::udp::ProfilerEmitter`]), and
//! the receiver decodes each line of a datagram that starts with `%frm `
//! as its own frame. A datagram holding a single frame is the original
//! one-frame-per-datagram format.
//!
//! Datagrams that do not start with `%frm ` are *legacy* traffic and are
//! classified line-by-line with the original unframed rules, so old
//! emitters and recorded trace files keep working.

/// Prefix marking a frame, and a datagram of frames.
pub const FRAME_PREFIX: &str = "%frm ";

/// Payload of one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBody {
    /// Start of a dot file; carries the plan name.
    DotBegin {
        /// Plan name (must be non-empty on the wire).
        name: String,
    },
    /// One line of dot file content (may be empty).
    DotLine {
        /// Raw dot text line.
        line: String,
    },
    /// End of the dot file.
    DotEnd,
    /// One trace record, kept as its raw bracketed line; parsing (and
    /// filtering) happens after reassembly.
    Event {
        /// Raw Figure-3 record line.
        line: String,
    },
    /// End of trace for the current query.
    EndOfTrace,
    /// Liveness marker; consumes a sequence number so silence and loss
    /// stay distinguishable, carries nothing else.
    Heartbeat,
}

/// One frame: a sequence number plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Per-source monotone frame sequence number.
    pub seq: u64,
    /// The payload.
    pub body: FrameBody,
}

/// Result of decoding one frame (or an unframed datagram).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodedDatagram {
    /// A well-formed frame.
    Frame(Frame),
    /// The frame header parsed (so the datagram can be sequenced) but
    /// the kind or payload is unusable. Sequencing it avoids reporting a
    /// phantom gap on top of the corruption.
    GarbledFrame {
        /// Sequence number from the header.
        seq: u64,
        /// The raw datagram text.
        line: String,
    },
    /// Not framed at all: classify its lines with the legacy rules.
    Legacy,
}

/// Render a frame as one line (no trailing newline); on its own it is a
/// complete datagram.
pub fn encode_frame(f: &Frame) -> String {
    match &f.body {
        FrameBody::DotBegin { name } => format!("{FRAME_PREFIX}{} dot-begin {name}", f.seq),
        FrameBody::DotLine { line } if line.is_empty() => format!("{FRAME_PREFIX}{} dot", f.seq),
        FrameBody::DotLine { line } => format!("{FRAME_PREFIX}{} dot {line}", f.seq),
        FrameBody::DotEnd => format!("{FRAME_PREFIX}{} dot-end", f.seq),
        FrameBody::Event { line } => format!("{FRAME_PREFIX}{} ev {line}", f.seq),
        FrameBody::EndOfTrace => format!("{FRAME_PREFIX}{} eot", f.seq),
        FrameBody::Heartbeat => format!("{FRAME_PREFIX}{} hb", f.seq),
    }
}

/// Decode one frame line, or tell that a datagram is not framed. Never
/// panics on arbitrary input.
pub fn decode_datagram(text: &str) -> DecodedDatagram {
    let Some(rest) = text.strip_prefix(FRAME_PREFIX) else {
        return DecodedDatagram::Legacy;
    };
    let (seq_tok, rest) = match rest.split_once(' ') {
        Some((s, r)) => (s, r),
        None => (rest, ""),
    };
    let Ok(seq) = seq_tok.parse::<u64>() else {
        // Header unusable: the datagram cannot be sequenced; the legacy
        // classifier will surface it as garbled and the gap machinery
        // will account for its missing sequence number.
        return DecodedDatagram::Legacy;
    };
    let garbled = || DecodedDatagram::GarbledFrame {
        seq,
        line: text.to_string(),
    };
    let (kind, payload) = match rest.split_once(' ') {
        Some((k, p)) => (k, p),
        None => (rest, ""),
    };
    let body = match kind {
        "dot-begin" => {
            let name = payload.trim();
            if name.is_empty() {
                // A dot file with no name cannot be attributed to a
                // plan; reject rather than silently opening a capture.
                return garbled();
            }
            FrameBody::DotBegin {
                name: name.to_string(),
            }
        }
        "dot" => FrameBody::DotLine {
            line: payload.to_string(),
        },
        "dot-end" if payload.is_empty() => FrameBody::DotEnd,
        "ev" => FrameBody::Event {
            line: payload.to_string(),
        },
        "eot" if payload.is_empty() => FrameBody::EndOfTrace,
        "hb" if payload.is_empty() => FrameBody::Heartbeat,
        _ => return garbled(),
    };
    DecodedDatagram::Frame(Frame { seq, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_kinds() {
        let bodies = vec![
            FrameBody::DotBegin {
                name: "user.s1_1".into(),
            },
            FrameBody::DotLine {
                line: "n0 -> n1;".into(),
            },
            FrameBody::DotLine {
                line: String::new(),
            },
            FrameBody::DotEnd,
            FrameBody::Event {
                line: "[ 0, \"start\", 1, 0, 42, 0, 1024, \"a.b();\" ]".into(),
            },
            FrameBody::EndOfTrace,
            FrameBody::Heartbeat,
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let f = Frame {
                seq: i as u64 * 7,
                body,
            };
            let wire = encode_frame(&f);
            assert_eq!(decode_datagram(&wire), DecodedDatagram::Frame(f), "{wire}");
        }
    }

    #[test]
    fn unframed_text_is_legacy() {
        assert_eq!(decode_datagram("%eot"), DecodedDatagram::Legacy);
        assert_eq!(decode_datagram("%dot-begin x"), DecodedDatagram::Legacy);
        assert_eq!(decode_datagram("random text"), DecodedDatagram::Legacy);
        assert_eq!(decode_datagram(""), DecodedDatagram::Legacy);
        // Truncated header: cannot be sequenced.
        assert_eq!(decode_datagram("%fr"), DecodedDatagram::Legacy);
        assert_eq!(decode_datagram("%frm 12x ev ..."), DecodedDatagram::Legacy);
    }

    #[test]
    fn bad_kind_or_payload_is_sequenced_garbled() {
        assert!(matches!(
            decode_datagram("%frm 9 wobble payload"),
            DecodedDatagram::GarbledFrame { seq: 9, .. }
        ));
        // dot-begin with no plan name is rejected, not accepted empty.
        assert!(matches!(
            decode_datagram("%frm 3 dot-begin"),
            DecodedDatagram::GarbledFrame { seq: 3, .. }
        ));
        assert!(matches!(
            decode_datagram("%frm 3 dot-begin    "),
            DecodedDatagram::GarbledFrame { seq: 3, .. }
        ));
        // Control frames must not carry payloads.
        assert!(matches!(
            decode_datagram("%frm 4 eot junk"),
            DecodedDatagram::GarbledFrame { seq: 4, .. }
        ));
        assert!(matches!(
            decode_datagram("%frm 4 dot-end junk"),
            DecodedDatagram::GarbledFrame { seq: 4, .. }
        ));
    }

    #[test]
    fn seq_only_frame_is_garbled_not_legacy() {
        // Header fine, kind missing: sequenced so no phantom gap forms.
        assert!(matches!(
            decode_datagram("%frm 17"),
            DecodedDatagram::GarbledFrame { seq: 17, .. }
        ));
    }
}
