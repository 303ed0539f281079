//! Dot-language writer.
//!
//! Emits the subset of dot that MonetDB's plan dumper produces: a
//! `digraph` with one node statement per instruction and one edge
//! statement per dataflow dependency, all attributes quoted.

use std::collections::HashMap;

use crate::graph::Graph;

/// Render `graph` as dot text.
pub fn write_dot(graph: &Graph) -> String {
    let mut out = String::new();
    begin(&mut out, &graph.name);
    for (k, v) in sorted(&graph.attrs) {
        graph_attr(&mut out, k, v);
    }
    for node in graph.nodes() {
        node_stmt(&mut out, &node.name, sorted(&node.attrs));
    }
    for edge in graph.edges() {
        let from = &graph.node(edge.from).name;
        let to = &graph.node(edge.to).name;
        edge_stmt(&mut out, from, to, sorted(&edge.attrs));
    }
    end(&mut out);
    out
}

/// Attributes in key order, so the output is deterministic.
fn sorted(attrs: &HashMap<String, String>) -> Vec<(&str, &str)> {
    let mut pairs: Vec<_> = attrs
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    pairs.sort_unstable();
    pairs
}

// The statements below are the one set of dot syntax rules: the
// `Graph` writer above and the direct plan writer in `plan_conv` both
// emit through them. Attributes are written in the order given.

/// `digraph <name> {` (`G` when the name is empty).
pub(crate) fn begin(out: &mut String, name: &str) {
    out.push_str("digraph ");
    push_id(out, if name.is_empty() { "G" } else { name });
    out.push_str(" {\n");
}

/// A graph attribute statement.
pub(crate) fn graph_attr(out: &mut String, key: &str, value: &str) {
    out.push_str("  ");
    push_id(out, key);
    out.push('=');
    push_quoted(out, value);
    out.push_str(";\n");
}

/// A node statement.
pub(crate) fn node_stmt<'a>(
    out: &mut String,
    name: &str,
    attrs: impl IntoIterator<Item = (&'a str, &'a str)>,
) {
    out.push_str("  ");
    push_id(out, name);
    push_attrs(out, attrs);
    out.push_str(";\n");
}

/// An edge statement.
pub(crate) fn edge_stmt<'a>(
    out: &mut String,
    from: &str,
    to: &str,
    attrs: impl IntoIterator<Item = (&'a str, &'a str)>,
) {
    out.push_str("  ");
    push_id(out, from);
    out.push_str(" -> ");
    push_id(out, to);
    push_attrs(out, attrs);
    out.push_str(";\n");
}

/// The closing brace.
pub(crate) fn end(out: &mut String) {
    out.push_str("}\n");
}

/// ` [k="v", ...]`, or nothing without attributes.
fn push_attrs<'a>(out: &mut String, attrs: impl IntoIterator<Item = (&'a str, &'a str)>) {
    let mut any = false;
    for (k, v) in attrs {
        out.push_str(if any { ", " } else { " [" });
        any = true;
        push_id(out, k);
        out.push('=');
        push_quoted(out, v);
    }
    if any {
        out.push(']');
    }
}

/// Dot identifiers need quoting unless they are alphanumeric words.
fn push_id(out: &mut String, s: &str) {
    let plain = s
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        && s.bytes().next().is_some_and(|b| !b.is_ascii_digit());
    if plain {
        out.push_str(s);
    } else {
        push_quoted(out, s);
    }
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest.find(['"', '\\', '\n']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            _ => "\\n",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn attrs(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn writes_nodes_edges_and_attrs() {
        let mut g = Graph::new("plan");
        let a = g
            .add_node("n0", attrs(&[("label", "sql.mvc()"), ("shape", "box")]))
            .unwrap();
        let b = g.add_node("n1", attrs(&[("label", "sql.tid()")])).unwrap();
        g.add_edge(a, b, attrs(&[("label", "X_1")])).unwrap();
        let text = write_dot(&g);
        assert!(text.starts_with("digraph plan {"));
        assert!(text.contains("n0 [label=\"sql.mvc()\", shape=\"box\"];"));
        assert!(text.contains("n0 -> n1 [label=\"X_1\"];"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn quotes_special_labels() {
        let mut g = Graph::new("G");
        g.add_node("n0", attrs(&[("label", "say \"hi\"\nline2")]))
            .unwrap();
        let text = write_dot(&g);
        assert!(text.contains("label=\"say \\\"hi\\\"\\nline2\""));
    }

    #[test]
    fn graph_attrs_emitted_sorted() {
        let mut g = Graph::new("G");
        g.attrs.insert("rankdir".into(), "TB".into());
        g.attrs.insert("bgcolor".into(), "white".into());
        let text = write_dot(&g);
        let b = text.find("bgcolor").unwrap();
        let r = text.find("rankdir").unwrap();
        assert!(b < r, "attrs should be sorted for deterministic output");
    }

    #[test]
    fn empty_graph_still_valid() {
        let g = Graph::new("");
        let text = write_dot(&g);
        assert_eq!(text, "digraph G {\n}\n");
    }
}
