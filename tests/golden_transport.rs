//! Golden-trace conformance for the framed transport.
//!
//! A deterministically generated framed datagram stream — with
//! reordering, a duplicate, a dropped frame, a garbled frame, and
//! interleaved legacy traffic — is pinned byte-for-byte in
//! `tests/fixtures/framed_stream.txt`, and the exact `StreamItem`
//! sequence the decoder produces from it is pinned in
//! `tests/fixtures/framed_stream.golden`. Any change to the wire
//! format, the reassembly policy, or the counters shows up as a diff
//! here before it shows up in the field.
//!
//! A second pair, `tests/fixtures/framed_packed_stream.{txt,golden}`,
//! pins what the emitter puts on the wire when it packs several frames
//! into one datagram (captured from a clean chaos link, then damaged by
//! hand) and the items the decoder makes of it.
//!
//! Regenerate the files after an *intentional* protocol change with:
//! `UPDATE_GOLDEN=1 cargo test --test golden_transport`.

use std::net::SocketAddr;
use std::path::PathBuf;

use stethoscope::profiler::chaos::{ChaosConfig, ChaosLink};
use stethoscope::profiler::reassembly::StreamDecoder;
use stethoscope::profiler::udp::{ProfilerEmitter, StreamItem};
use stethoscope::profiler::wire::{encode_frame, Frame, FrameBody};
use stethoscope::profiler::{format_event, TraceEvent};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn frame(seq: u64, body: FrameBody) -> String {
    encode_frame(&Frame { seq, body })
}

/// Build the fixture stream: one datagram per line, in *arrival* order.
/// The schedule is fixed by hand so every transport behavior appears:
/// in-order dot transfer, an out-of-order event pair, a duplicated
/// datagram, a dropped sequence number (9), a garbled frame, an eot
/// echo, and unframed legacy lines mixed in.
fn build_fixture() -> String {
    let ev = |id: u64, pc: usize, done: bool| {
        let e = if done {
            TraceEvent::done(
                id,
                pc,
                0,
                100 + id * 10,
                7,
                0,
                "X_1 := algebra.select(X_0);",
            )
        } else {
            TraceEvent::start(id, pc, 0, 100 + id * 10, 0, "X_1 := algebra.select(X_0);")
        };
        format_event(&e)
    };
    let mut lines = vec![
        frame(
            0,
            FrameBody::DotBegin {
                name: "user.golden".into(),
            },
        ),
        frame(
            1,
            FrameBody::DotLine {
                line: "digraph user_golden {".into(),
            },
        ),
        frame(
            2,
            FrameBody::DotLine {
                line: "n0 [label=\"X_0 := sql.mvc();\"];".into(),
            },
        ),
        frame(3, FrameBody::DotLine { line: "}".into() }),
        frame(4, FrameBody::DotEnd),
        frame(
            5,
            FrameBody::Event {
                line: ev(0, 0, false),
            },
        ),
        // seq 7 arrives before seq 6: reordered but recovered in-window.
        frame(
            7,
            FrameBody::Event {
                line: ev(2, 1, false),
            },
        ),
        frame(
            6,
            FrameBody::Event {
                line: ev(1, 0, true),
            },
        ),
        // seq 5 delivered twice: suppressed, counted.
        frame(
            5,
            FrameBody::Event {
                line: ev(0, 0, false),
            },
        ),
        frame(8, FrameBody::Heartbeat),
        // seq 9 never arrives: a Lost gap at end-of-stream flush.
        frame(
            10,
            FrameBody::Event {
                line: ev(3, 1, true),
            },
        ),
        // Header sequenced but the body is unusable: garbled, no gap.
        "%frm 11 dot-begin".to_string(),
        frame(12, FrameBody::EndOfTrace),
        // An eot echo: deduplicated by the decoder.
        frame(13, FrameBody::EndOfTrace),
    ];
    // Legacy unframed traffic still classifies line-by-line.
    lines.push(ev(4, 2, false));
    lines.push("%really not a protocol line".to_string());
    lines.join("\n")
}

fn render(items: &[StreamItem]) -> String {
    let mut out = String::new();
    for it in items {
        let line = match it {
            StreamItem::DotBegin { source, name } => format!("{source} dot-begin {name}"),
            StreamItem::DotLine { source, line } => format!("{source} dot-line {line}"),
            StreamItem::DotEnd { source } => format!("{source} dot-end"),
            StreamItem::Event { source, event } => {
                format!("{source} event {}", format_event(event))
            }
            StreamItem::EndOfTrace { source } => format!("{source} eot"),
            StreamItem::Garbled { source, line } => format!("{source} garbled {line}"),
            StreamItem::Lost {
                source,
                from_seq,
                to_seq,
            } => {
                format!("{source} lost {from_seq}..{to_seq}")
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Decode `datagrams` (in arrival order, from one fixed source), then
/// pin the item log and the counters against the golden file `golden`;
/// `count_datagrams` adds the datagram counter to the log.
fn check_golden_log<'a>(
    golden: &str,
    datagrams: impl Iterator<Item = &'a str>,
    count_datagrams: bool,
    update: bool,
) {
    let golden_path = fixture_path(golden);
    let source: SocketAddr = "127.0.0.1:50000".parse().unwrap();
    let mut dec = StreamDecoder::new(8);
    let mut items = Vec::new();
    for datagram in datagrams {
        dec.decode(source, datagram, &mut items);
    }
    dec.flush_all(&mut items);

    let mut log = render(&items);
    let stats = dec.counters().snapshot();
    log.push_str(&format!(
        "stats received={} reordered={} duplicated={} lost={} garbled={}\n",
        stats.received, stats.reordered, stats.duplicated, stats.lost, stats.garbled
    ));
    if count_datagrams {
        log.push_str(&format!("stats datagrams={}\n", stats.datagrams));
    }

    if update {
        std::fs::write(&golden_path, &log).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden log missing; regenerate with UPDATE_GOLDEN=1");
    if golden != log {
        // A readable unified-ish diff beats two multi-kB strings.
        let mut diff = String::new();
        for (i, (g, l)) in golden.lines().zip(log.lines()).enumerate() {
            if g != l {
                diff.push_str(&format!("line {}:\n  golden: {g}\n  actual: {l}\n", i + 1));
            }
        }
        let (gn, ln) = (golden.lines().count(), log.lines().count());
        if gn != ln {
            diff.push_str(&format!("line counts differ: golden {gn}, actual {ln}\n"));
        }
        panic!("decoded item log drifted from golden:\n{diff}");
    }
}

/// The fixture itself is pinned: the encoder must reproduce it
/// byte-for-byte, so silent wire-format drift fails here.
fn pinned_stream(name: &str, stream: &str, update: bool) -> String {
    let stream_path = fixture_path(name);
    if update {
        std::fs::create_dir_all(stream_path.parent().unwrap()).unwrap();
        std::fs::write(&stream_path, stream).unwrap();
    }
    let pinned = std::fs::read_to_string(&stream_path)
        .expect("fixture missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        pinned, stream,
        "encoder output drifted from the pinned wire fixture"
    );
    pinned
}

#[test]
fn framed_stream_decodes_to_golden_item_log() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let pinned = pinned_stream("framed_stream.txt", &build_fixture(), update);
    // Replay the pinned bytes through the decoder, one datagram per line.
    check_golden_log("framed_stream.golden", pinned.lines(), false, update);
}

/// Build the packed fixture: what a [`ProfilerEmitter`] actually puts on
/// the wire for a 40-line dot, 70 events (one heartbeat) and the
/// end-of-trace, captured from a clean [`ChaosLink`], then damaged by
/// hand in arrival order. Datagrams are separated by a blank line (no
/// frame line is ever empty). The dot burst and the `eot` echoes share
/// datagrams; the events, emitted from one thread, go one per datagram.
fn build_packed_fixture() -> String {
    let link = ChaosLink::new(ChaosConfig::clean(1));
    let rx = link.receiver();
    let emitter = ProfilerEmitter::over(&link);
    let mut dot = String::from("digraph user_golden {\n");
    for i in 1..39 {
        dot.push_str(&format!(
            "n{i} [label=\"X_{i} := algebra.select(X_{});\"];\n",
            i - 1
        ));
    }
    dot.push('}');
    emitter.send_dot("user.golden", &dot);
    for i in 0..70u64 {
        let pc = (i / 2) as usize;
        let e = if i % 2 == 0 {
            TraceEvent::start(i, pc, 0, 100 + i, 0, "X_1 := algebra.select(X_0);")
        } else {
            TraceEvent::done(i, pc, 0, 100 + i, 1, 0, "X_1 := algebra.select(X_0);")
        };
        emitter.emit(&e);
    }
    emitter.send_end_of_trace();
    assert_eq!(emitter.stats().frames_sent, 1 + 40 + 1 + 70 + 1 + 3);
    drop(emitter);
    let mut sent = Vec::new();
    while let Some((_, bytes)) = rx.recv() {
        sent.push(String::from_utf8(bytes).unwrap());
    }
    // Two dot datagrams, 69 single-event datagrams, one event with its
    // heartbeat, one datagram of three `eot` frames.
    assert_eq!(sent.len(), 2 + 69 + 1 + 1, "{sent:#?}");
    let dot_tail = sent[1].clone();
    let last = sent.len() - 1;
    let mut arrival = vec![sent[0].clone()];
    // The second dot datagram loses its middle line to corruption.
    let lines: Vec<&str> = dot_tail.split('\n').collect();
    let mid = lines.len() / 2;
    let damaged: Vec<&str> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| if i == mid { "%frm x garbage" } else { l })
        .collect();
    arrival.push(damaged.join("\n"));
    // Events: datagram 5 arrives after 6, 8 twice, 10 never, and 12
    // is cut short in the middle of its event record.
    for (i, d) in sent.iter().enumerate().take(last).skip(2) {
        match i {
            5 => {}
            6 => {
                arrival.push(d.clone());
                arrival.push(sent[5].clone());
            }
            8 => {
                arrival.push(d.clone());
                arrival.push(d.clone());
            }
            10 => {}
            12 => arrival.push(d[..d.len() / 2].to_string()),
            _ => arrival.push(d.clone()),
        }
    }
    arrival.push(sent[last].clone());
    arrival.join("\n\n")
}

#[test]
fn framed_packed_stream_decodes_to_golden_item_log() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let stream = build_packed_fixture();
    let pinned = pinned_stream("framed_packed_stream.txt", &stream, update);
    check_golden_log(
        "framed_packed_stream.golden",
        pinned.split("\n\n"),
        true,
        update,
    );
}

/// The Q1 dot with 8 mitosis partitions is the largest burst an online
/// session sends (about 490 lines, 30 KB framed). Packed into datagrams
/// of at most 1400 bytes it takes a few dozen sends, not one per line.
#[test]
fn q1_dot_burst_goes_out_in_at_most_25_datagrams() {
    use stethoscope::dot::{plan_to_dot, LabelStyle};
    use stethoscope::sql::{compile_with, CompileOptions};
    use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

    let catalog = generate_catalog(&TpchConfig {
        scale_factor: 0.001,
        seed: 1,
    });
    let opts = CompileOptions {
        plan_name: "user.q1".into(),
        partitions: 8,
        skip_optimizers: false,
    };
    let plan = compile_with(&catalog, queries::Q1, &opts).unwrap().plan;
    let dot = plan_to_dot(&plan, LabelStyle::FullStatement);
    let link = ChaosLink::new(ChaosConfig::clean(2));
    let emitter = ProfilerEmitter::over(&link);
    emitter.send_dot(&plan.name, &dot);
    let stats = emitter.stats();
    let lines = dot.lines().count() as u64;
    assert!(lines > 400, "{lines} dot lines");
    assert_eq!(stats.frames_sent, lines + 2);
    assert!(
        stats.datagrams_sent <= 25,
        "{} datagrams for {} frames",
        stats.datagrams_sent,
        stats.frames_sent
    );
}
