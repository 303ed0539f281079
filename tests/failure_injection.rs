//! Failure injection: corrupted inputs, mismatched artifacts, runtime
//! errors under profiling, and hostile SQL — the tool must fail loudly
//! and precisely, never panic.

use std::sync::Arc;

use proptest::prelude::*;
use stethoscope::core::OfflineSession;
use stethoscope::dot::{plan_to_dot, LabelStyle};
use stethoscope::engine::{
    Bat, Catalog, ExecOptions, Interpreter, ProfilerConfig, TableDef, VecSink,
};
use stethoscope::mal::{parse_plan, MalType};
use stethoscope::profiler::{format_event, EventStatus, TraceEvent, TraceFile};
use stethoscope::sql::compile;

fn tiny_catalog() -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.add_table(
        TableDef::new(
            "t",
            vec![
                ("k".into(), MalType::Int, Bat::ints(vec![1, 2, 3, 0])),
                ("v".into(), MalType::Int, Bat::ints(vec![10, 20, 30, 40])),
            ],
        )
        .unwrap(),
    );
    Arc::new(c)
}

#[test]
fn mismatched_dot_and_trace_detected() {
    let cat = tiny_catalog();
    let qa = compile(&cat, "select v from t where k = 1").unwrap();
    let qb = compile(&cat, "select sum(v) as s from t").unwrap();
    let sink = VecSink::new();
    Interpreter::new(Arc::clone(&cat))
        .execute(
            &qb.plan,
            &ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone())),
        )
        .unwrap();
    // Load plan A's dot with plan B's trace.
    let dot = plan_to_dot(&qa.plan, LabelStyle::FullStatement);
    let trace: Vec<String> = sink.take().iter().map(format_event).collect();
    let session = OfflineSession::load_text(&dot, &trace.join("\n")).unwrap();
    let bad = session.verify_contract();
    assert!(!bad.is_empty(), "mismatched pair must be reported");

    // The matched pair verifies clean.
    let sink = VecSink::new();
    Interpreter::new(Arc::clone(&cat))
        .execute(
            &qa.plan,
            &ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone())),
        )
        .unwrap();
    let trace: Vec<String> = sink.take().iter().map(format_event).collect();
    let session = OfflineSession::load_text(&dot, &trace.join("\n")).unwrap();
    assert!(session.verify_contract().is_empty());
}

#[test]
fn truncated_trace_file_reports_line() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("stetho_trunc_{}.trace", std::process::id()));
    let good = format_event(&TraceEvent::start(0, 0, 0, 0, 0, "a.b();"));
    // A record chopped mid-string.
    let bad = &good[..good.len() / 2];
    std::fs::write(&path, format!("{good}\n{bad}\n")).unwrap();
    let err = TraceFile::new(&path).read().unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn division_by_zero_mid_plan_with_profiler() {
    // k contains 0 → v / k fails at runtime; the error must surface from
    // both execution modes, and the profiler must have recorded the
    // instructions executed before the failure.
    let cat = tiny_catalog();
    let q = compile(&cat, "select v / k as r from t").unwrap();
    for parallel in [false, true] {
        let sink = VecSink::new();
        let opts = if parallel {
            ExecOptions::parallel(4, ProfilerConfig::to_sink(sink.clone()))
        } else {
            ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone()))
        };
        let r = Interpreter::new(Arc::clone(&cat)).execute(&q.plan, &opts);
        assert!(r.is_err(), "parallel={parallel}");
        let events = sink.take();
        assert!(!events.is_empty(), "prefix trace must exist");
        // The failing instruction has a start but no done.
        let starts: Vec<usize> = events
            .iter()
            .filter(|e| e.status == EventStatus::Start)
            .map(|e| e.pc)
            .collect();
        let dones: Vec<usize> = events
            .iter()
            .filter(|e| e.status == EventStatus::Done)
            .map(|e| e.pc)
            .collect();
        assert!(starts.len() > dones.len(), "some start never completed");
    }
}

/// Regression: a `%dot-begin` control line with no plan name used to be
/// accepted as a dot-file start with an empty name, silently wedging the
/// dot capture. It must surface as `Garbled` — legacy and framed alike.
#[test]
fn unnamed_dot_begin_is_garbled_not_accepted() {
    use stethoscope::profiler::reassembly::StreamDecoder;
    use stethoscope::profiler::udp::StreamItem;

    let source: std::net::SocketAddr = "127.0.0.1:50001".parse().unwrap();
    for datagram in [
        "%dot-begin",
        "%dot-begin ",
        "%frm 0 dot-begin",
        "%frm 0 dot-begin ",
    ] {
        let mut dec = StreamDecoder::new(8);
        let mut items = Vec::new();
        dec.decode(source, datagram, &mut items);
        dec.flush_all(&mut items);
        assert_eq!(items.len(), 1, "{datagram:?} produced {items:?}");
        assert!(
            matches!(&items[0], StreamItem::Garbled { .. }),
            "{datagram:?} must be garbled, got {items:?}"
        );
        assert_eq!(dec.counters().snapshot().garbled, 1, "{datagram:?}");
        // A sequenced-but-garbled frame must not fake a gap on top.
        assert_eq!(dec.counters().snapshot().lost, 0, "{datagram:?}");
    }
    // The named form still opens a dot transfer.
    let mut dec = StreamDecoder::new(8);
    let mut items = Vec::new();
    dec.decode(source, "%frm 0 dot-begin user.q", &mut items);
    assert!(
        matches!(&items[0], StreamItem::DotBegin { name, .. } if name == "user.q"),
        "{items:?}"
    );
}

#[test]
fn offline_session_rejects_broken_inputs() {
    assert!(OfflineSession::load_text("digraph {", "").is_err());
    assert!(OfflineSession::load_text("digraph { n0; }", "[ bogus ]").is_err());
    assert!(OfflineSession::load_files("/nonexistent/x.dot", "/nonexistent/x.trace").is_err());
}

#[test]
fn plan_validation_rejects_corrupted_plans() {
    // Use-before-def spliced into a textual plan.
    let r = parse_plan("X_1:int := calc.identity(X_0);\nX_0:int := sql.mvc();\n");
    assert!(r.is_err());
    // Engine refuses a structurally invalid plan too.
    let cat = tiny_catalog();
    let good = parse_plan("X_0:int := sql.mvc();\n").unwrap();
    assert!(Interpreter::new(cat)
        .execute(&good, &ExecOptions::default())
        .is_ok());
}

#[test]
fn unknown_operator_fails_cleanly() {
    let cat = tiny_catalog();
    let plan = parse_plan("X_0:int := wibble.wobble();\n").unwrap();
    let err = Interpreter::new(cat)
        .execute(&plan, &ExecOptions::default())
        .unwrap_err();
    assert!(err.to_string().contains("wibble.wobble"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The SQL front end never panics on arbitrary input — it parses or
    /// returns an error.
    #[test]
    fn sql_compiler_never_panics(input in "[ -~]{0,120}") {
        let cat = tiny_catalog();
        let _ = compile(&cat, &input);
    }

    /// The dot parser never panics on arbitrary input.
    #[test]
    fn dot_parser_never_panics(input in "[ -~\n]{0,200}") {
        let _ = stethoscope::dot::parse_dot(&input);
    }

    /// The trace-line parser never panics on arbitrary input.
    #[test]
    fn trace_parser_never_panics(input in "[ -~]{0,200}") {
        let _ = stethoscope::profiler::parse_event(&input);
    }

    /// The MAL plan parser never panics on arbitrary input.
    #[test]
    fn mal_parser_never_panics(input in "[ -~\n]{0,200}") {
        let _ = parse_plan(&input);
    }

    /// The frame decoder never panics on arbitrary datagrams.
    #[test]
    fn frame_decoder_never_panics(input in "[ -~]{0,200}") {
        let _ = stethoscope::profiler::wire::decode_datagram(&input);
    }

    /// Nor on hostile input that already carries the frame prefix —
    /// the truncation/corruption shapes a real link produces.
    #[test]
    fn framed_prefix_fuzz_never_panics(seq in "[0-9]{0,24}", rest in "[ -~]{0,80}") {
        let line = format!("%frm {seq} {rest}");
        let _ = stethoscope::profiler::wire::decode_datagram(&line);
        // And the full decoder path keeps counters consistent: every
        // datagram is an item, a counted frame, or silently legacy.
        let source: std::net::SocketAddr = "127.0.0.1:50002".parse().unwrap();
        let mut dec = stethoscope::profiler::reassembly::StreamDecoder::new(4);
        let mut items = Vec::new();
        dec.decode(source, &line, &mut items);
        dec.flush_all(&mut items);
    }

    /// The SVG reader never panics on lines shaped like the ones
    /// `write_svg` emits (the tags it matches on, `name="value"`
    /// attributes) with mostly numeric, possibly non-ASCII, values.
    #[test]
    fn svg_parser_never_panics(
        lines in proptest::collection::vec(
            (0usize..7, proptest::collection::vec((0usize..10, "[0-90-90-9., é&;<>\"a-z-]{0,8}"), 0..5), "[ -~é]{0,12}"),
            0..16,
        ),
    ) {
        let tags = ["<svg", "<polyline", "<g class=\"node\"", "<rect", "<text", "</g>", ""];
        let attrs = ["width", "height", "x", "y", "id", "data-from", "data-to", "points", "data-label", ">"];
        let mut text = String::new();
        for (tag, pairs, tail) in &lines {
            text.push_str(tags[*tag]);
            for (a, v) in pairs {
                match attrs[*a] {
                    ">" => text.push_str(&format!(">{v}</text>")),
                    name => text.push_str(&format!(" {name}=\"{v}\"")),
                }
            }
            text.push_str(tail);
            text.push('\n');
        }
        let _ = stethoscope::layout::parse_svg(&text);
    }

    /// Snapshot JSON round-trips, and reading it never panics when it is
    /// cut anywhere and has arbitrary text spliced in.
    #[test]
    fn snapshot_json_never_panics(
        position in 0usize..100_000,
        cx in -4000i64..4000,
        note in "[ -~é\\\"]{0,20}",
        cut in 0usize..1000,
        junk in "[ -~\n]{0,20}",
    ) {
        use stethoscope::core::SessionSnapshot;
        let snap = SessionSnapshot {
            position,
            camera_cx: cx as f64 / 4.0,
            camera_cy: -(cx as f64),
            camera_altitude: 1.5,
            now_ms: position as u64 * 3,
            trace_len: position + 1,
            note,
        };
        let json = snap.to_json();
        prop_assert_eq!(SessionSnapshot::from_json(&json).unwrap(), snap);
        let mut at = cut % (json.len() + 1);
        while !json.is_char_boundary(at) {
            at -= 1;
        }
        let _ = SessionSnapshot::from_json(&json[..at]);
        let _ = SessionSnapshot::from_json(&format!("{}{junk}{}", &json[..at], &json[at..]));
    }

    /// Packed datagrams: several `%frm` lines joined by newlines, each
    /// with an arbitrary sequence number, kind and payload, go through
    /// the full decoder without panicking.
    #[test]
    fn packed_datagram_fuzz_never_panics(
        frames in proptest::collection::vec(("[0-9]{0,22}", 0usize..8, "[ -~]{0,40}"), 1..6),
        split in 0usize..3,
    ) {
        let kinds = ["dot-begin", "dot", "dot-end", "ev", "eot", "hb", "", "bogus"];
        let lines: Vec<String> = frames
            .iter()
            .map(|(seq, kind, payload)| format!("%frm {seq} {} {payload}", kinds[*kind]))
            .collect();
        let source: std::net::SocketAddr = "127.0.0.1:50003".parse().unwrap();
        let mut dec = stethoscope::profiler::reassembly::StreamDecoder::new(4);
        let mut items = Vec::new();
        // The same frames as one datagram, or split in two at a line.
        let at = split.min(lines.len());
        for part in [&lines[..at], &lines[at..]] {
            if !part.is_empty() {
                dec.decode(source, &part.join("\n"), &mut items);
            }
        }
        dec.flush_all(&mut items);
    }
}
