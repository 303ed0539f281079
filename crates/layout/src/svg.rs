//! SVG writer and parser.
//!
//! The writer emits one `<g class="node">` per node (rect + text) and one
//! `<polyline class="edge">` per edge, with `data-*` attributes carrying
//! the structural information the parser needs to rebuild the scene graph
//! — mirroring how the original Stethoscope parsed GraphViz's SVG output
//! back into an in-memory graph structure (§4).

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

use crate::scene::{SceneEdge, SceneGraph, SceneNode};

/// SVG parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct SvgError {
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for SvgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svg parse error: {}", self.msg)
    }
}

impl std::error::Error for SvgError {}

fn err(msg: impl Into<String>) -> SvgError {
    SvgError { msg: msg.into() }
}

/// Per-node fill colors for rendering execution state; plain scenes use
/// the default fill.
#[derive(Debug, Clone, Default)]
pub struct NodeStyles {
    /// (node index, css color) overrides.
    pub fills: Vec<(usize, String)>,
}

/// Render a scene graph as SVG.
pub fn write_svg(scene: &SceneGraph) -> String {
    write_svg_styled(scene, &NodeStyles::default())
}

/// Render with per-node fill overrides (used for RED/GREEN execution
/// state frames). When a node has several overrides, the last one wins.
pub fn write_svg_styled(scene: &SceneGraph, styles: &NodeStyles) -> String {
    let mut out = String::with_capacity(128 * scene.edges.len() + 256 * scene.nodes.len());
    out.push_str(r#"<svg xmlns="http://www.w3.org/2000/svg" width=""#);
    push_f1(&mut out, scene.width);
    out.push_str(r#"" height=""#);
    push_f1(&mut out, scene.height);
    out.push_str(r#"" viewBox="0 0 "#);
    push_f1(&mut out, scene.width);
    out.push(' ');
    push_f1(&mut out, scene.height);
    out.push_str("\">\n");
    for e in &scene.edges {
        let _ = write!(
            out,
            r#"  <polyline class="edge" data-from="{}" data-to="{}""#,
            e.from, e.to
        );
        if let Some(l) = &e.label {
            out.push_str(r#" data-label=""#);
            out.push_str(&esc(l));
            out.push('"');
        }
        out.push_str(r#" points=""#);
        for (i, &(x, y)) in e.points.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            push_f1(&mut out, x);
            out.push(',');
            push_f1(&mut out, y);
        }
        out.push_str("\" fill=\"none\" stroke=\"#555\"/>\n");
    }
    let mut fills: Vec<Option<&str>> = vec![None; scene.nodes.len()];
    for (idx, color) in &styles.fills {
        if let Some(fill) = fills.get_mut(*idx) {
            *fill = Some(color);
        }
    }
    for (n, fill) in scene.nodes.iter().zip(fills) {
        out.push_str(r#"  <g class="node" id=""#);
        out.push_str(&esc(&n.name));
        out.push_str("\">\n    <rect x=\"");
        push_f1(&mut out, n.x - n.w / 2.0);
        out.push_str(r#"" y=""#);
        push_f1(&mut out, n.y - n.h / 2.0);
        out.push_str(r#"" width=""#);
        push_f1(&mut out, n.w);
        out.push_str(r#"" height=""#);
        push_f1(&mut out, n.h);
        out.push_str(r#"" fill=""#);
        out.push_str(fill.unwrap_or("#f0f0f0"));
        out.push_str("\" stroke=\"#222\"/>\n    <text x=\"");
        push_f1(&mut out, n.x);
        out.push_str(r#"" y=""#);
        push_f1(&mut out, n.y + 4.0);
        out.push_str(r#"" text-anchor="middle" font-size="11">"#);
        out.push_str(&esc(&n.label));
        out.push_str("</text>\n  </g>\n");
    }
    out.push_str("</svg>\n");
    out
}

/// Append `x` exactly as `format!("{x:.1}")` writes it. Below 1e8 in
/// magnitude it rounds in integer arithmetic: `t = 10·|x|` is then
/// within 6e-8 of the exact product, so unless `t` lies within 1e-6 of
/// a rounding tie, rounding `t` to the nearest integer rounds the exact
/// value the same way. Ties, large magnitudes and non-finite values go
/// through the formatter.
fn push_f1(out: &mut String, x: f64) {
    let t = x.abs() * 10.0;
    if t < 1e9 {
        let whole = t.floor();
        let frac = t - whole;
        if (frac - 0.5).abs() > 1e-6 {
            // `whole < 1e9`, so the cast is exact.
            let tenths = whole as u64 + u64::from(frac > 0.5);
            if x.is_sign_negative() {
                out.push('-');
            }
            push_u64(out, tenths / 10);
            out.push('.');
            out.push(char::from(b'0' + (tenths % 10) as u8));
            return;
        }
    }
    let _ = write!(out, "{x:.1}");
}

/// Append the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Escape the four characters the writer's attributes and text bodies
/// cannot hold; borrows when there is nothing to escape.
fn esc(s: &str) -> Cow<'_, str> {
    if !s.contains(['&', '<', '>', '"']) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Undo [`esc`]; borrows when there is no entity. Any other `&` stays as
/// it is.
fn unesc(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let entity = [
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&amp;", '&'),
        ]
        .into_iter()
        .find(|(name, _)| rest.starts_with(name));
        match entity {
            Some((name, c)) => {
                out.push(c);
                rest = &rest[name.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Parse SVG produced by [`write_svg`] back into a scene graph.
pub fn parse_svg(text: &str) -> Result<SceneGraph, SvgError> {
    let mut scene = SceneGraph::default();
    let mut pending_node: Option<SceneNode> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("<svg") {
            scene.width = attr_f(rest, "width").ok_or_else(|| err("svg width"))?;
            scene.height = attr_f(rest, "height").ok_or_else(|| err("svg height"))?;
        } else if let Some(rest) = line.strip_prefix("<polyline") {
            let from = attr(rest, "data-from")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("edge data-from"))?;
            let to = attr(rest, "data-to")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("edge data-to"))?;
            let pts_text = attr(rest, "points").ok_or_else(|| err("edge points"))?;
            let mut points = Vec::new();
            for p in pts_text.split_whitespace() {
                let (x, y) = p.split_once(',').ok_or_else(|| err("bad point"))?;
                points.push((
                    x.parse().map_err(|_| err("bad x"))?,
                    y.parse().map_err(|_| err("bad y"))?,
                ));
            }
            scene.edges.push(SceneEdge {
                from,
                to,
                points,
                label: attr(rest, "data-label").map(|s| unesc(s).into_owned()),
            });
        } else if let Some(rest) = line.strip_prefix("<g class=\"node\"") {
            let name = attr(rest, "id").ok_or_else(|| err("node id"))?;
            pending_node = Some(SceneNode {
                name: unesc(name).into_owned(),
                label: String::new(),
                x: 0.0,
                y: 0.0,
                w: 0.0,
                h: 0.0,
            });
        } else if let Some(rest) = line.strip_prefix("<rect") {
            if let Some(node) = pending_node.as_mut() {
                let x = attr_f(rest, "x").ok_or_else(|| err("rect x"))?;
                let y = attr_f(rest, "y").ok_or_else(|| err("rect y"))?;
                let w = attr_f(rest, "width").ok_or_else(|| err("rect width"))?;
                let h = attr_f(rest, "height").ok_or_else(|| err("rect height"))?;
                node.w = w;
                node.h = h;
                node.x = x + w / 2.0;
                node.y = y + h / 2.0;
            }
        } else if line.starts_with("<text") {
            if let Some(node) = pending_node.as_mut() {
                let start = line.find('>').ok_or_else(|| err("text body"))?;
                let end = line.rfind("</text>").ok_or_else(|| err("text close"))?;
                if start < end {
                    node.label = unesc(&line[start + 1..end]).into_owned();
                }
            }
        } else if line.starts_with("</g>") {
            if let Some(node) = pending_node.take() {
                scene.nodes.push(node);
            }
        }
    }
    if pending_node.is_some() {
        return Err(err("unterminated node group"));
    }
    Ok(scene)
}

/// The value of the first `name="…"` in `s`.
fn attr<'a>(s: &'a str, name: &str) -> Option<&'a str> {
    let mut from = 0;
    while let Some(i) = s[from..].find(name) {
        let at = from + i;
        if let Some(value) = s[at + name.len()..].strip_prefix("=\"") {
            return value.find('"').map(|end| &value[..end]);
        }
        from = at + 1;
    }
    None
}

fn attr_f(s: &str, name: &str) -> Option<f64> {
    attr(s, name)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sugiyama::{layout, LayoutOptions};
    use std::collections::HashMap;
    use stetho_dot::{Graph, NodeId};

    fn scene() -> SceneGraph {
        let mut g = Graph::new("t");
        let mut attrs = HashMap::new();
        attrs.insert("label".to_string(), "X_0 := sql.mvc();".to_string());
        g.add_node("n0", attrs).unwrap();
        g.add_node("n1", HashMap::new()).unwrap();
        g.add_node("n2", HashMap::new()).unwrap();
        let mut e = HashMap::new();
        e.insert("label".to_string(), "X_0".to_string());
        g.add_edge(NodeId(0), NodeId(1), e).unwrap();
        g.add_edge(NodeId(0), NodeId(2), HashMap::new()).unwrap();
        layout(&g, &LayoutOptions::default())
    }

    #[test]
    fn svg_contains_nodes_and_edges() {
        let svg = write_svg(&scene());
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains(r#"<g class="node" id="n0">"#));
        assert!(svg.matches("<polyline").count() == 2);
        assert!(svg.contains("sql.mvc()"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let s = scene();
        let svg = write_svg(&s);
        let back = parse_svg(&svg).unwrap();
        assert_eq!(back.nodes.len(), s.nodes.len());
        assert_eq!(back.edges.len(), s.edges.len());
        assert_eq!(back.width, s.width);
        for (a, b) in back.nodes.iter().zip(&s.nodes) {
            assert_eq!(a.name, b.name);
            assert!((a.x - b.x).abs() < 0.1);
            assert!((a.y - b.y).abs() < 0.1);
            assert!((a.w - b.w).abs() < 0.1);
        }
        for (a, b) in back.edges.iter().zip(&s.edges) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert_eq!(a.points.len(), b.points.len());
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn labels_escape_round_trip() {
        let mut s = scene();
        s.nodes[0].label = "a < b & \"c\" > d".to_string();
        let back = parse_svg(&write_svg(&s)).unwrap();
        assert_eq!(back.nodes[0].label, s.nodes[0].label);
    }

    #[test]
    fn styled_fills_applied() {
        let s = scene();
        let styles = NodeStyles {
            fills: vec![(0, "red".into()), (1, "green".into())],
        };
        let svg = write_svg_styled(&s, &styles);
        assert!(svg.contains(r#"fill="red""#));
        assert!(svg.contains(r#"fill="green""#));
        assert!(svg.contains(r##"fill="#f0f0f0""##));
    }

    #[test]
    fn later_fill_override_wins_and_stray_indices_are_ignored() {
        let s = scene();
        let styles = NodeStyles {
            fills: vec![(1, "red".into()), (99, "blue".into()), (1, "green".into())],
        };
        let svg = write_svg_styled(&s, &styles);
        assert!(svg.contains(r#"fill="green""#));
        assert!(!svg.contains(r#"fill="red""#));
        assert!(!svg.contains(r#"fill="blue""#));
    }

    #[test]
    fn unescape_matches_sequential_replacement() {
        // Reference decoder: one replacement per entity, `&amp;` last.
        let sequential = |s: &str| {
            s.replace("&lt;", "<")
                .replace("&gt;", ">")
                .replace("&quot;", "\"")
                .replace("&amp;", "&")
        };
        for s in [
            "plain",
            "&amp;lt;",
            "&&lt;;",
            "&amp;amp;",
            "a &lt b",
            "&",
            "&quot&quot;",
            "x&gt;&amp;&lt;y",
            "&am&lt;p;",
            "tail &",
        ] {
            assert_eq!(unesc(s), sequential(s), "{s}");
            assert_eq!(unesc(&esc(s)), s, "{s}");
        }
        assert!(matches!(esc("no entity"), Cow::Borrowed(_)));
        assert!(matches!(unesc("no entity"), Cow::Borrowed(_)));
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse_svg("<svg width=\"x\" height=\"1\">").is_err());
        let bad = "<svg width=\"10.0\" height=\"10.0\">\n<g class=\"node\" id=\"n0\">";
        assert!(parse_svg(bad).is_err());
    }

    #[test]
    fn one_decimal_writer_matches_the_formatter() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let mut values = vec![
            0.0,
            -0.0,
            0.05,
            -0.05,
            0.04,
            -0.04,
            0.25,
            0.35,
            -0.25,
            2.5,
            0.95,
            9.95,
            99.95,
            1e8,
            -1e8,
            1e8 - 0.05,
            99_999_999.95,
            1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for _ in 0..1_000_000 {
            let x = match rng.gen_range(0..4u32) {
                // Any magnitude up to 1e8.
                0 => rng.gen_range(-1e8..1e8),
                // Layout-sized coordinates.
                1 => rng.gen_range(-1e4..1e4),
                // Exact quarters and halves: ties and near-ties.
                2 => f64::from(rng.gen_range(-400_000_000..400_000_000i32)) / 4.0,
                // Hundredths ending in 5 (0.05, 1.15, ...), just off a tie.
                _ => (f64::from(rng.gen_range(-1_000_000..1_000_000i32)) * 10.0 + 5.0) / 100.0,
            };
            values.push(x);
        }
        let mut out = String::new();
        for x in values {
            out.clear();
            push_f1(&mut out, x);
            assert_eq!(out, format!("{x:.1}"), "{x:e}");
        }
    }

    #[test]
    fn empty_scene_round_trips() {
        let s = SceneGraph {
            width: 10.0,
            height: 5.0,
            ..Default::default()
        };
        let back = parse_svg(&write_svg(&s)).unwrap();
        assert!(back.nodes.is_empty());
        assert!(back.edges.is_empty());
    }
}
