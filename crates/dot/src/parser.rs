//! Recursive-descent parser for the dot language subset used by plan dumps.
//!
//! Grammar (after DOT, graphviz.org/doc/info/lang.html — reference 5 of
//! the paper), restricted to what plan files contain:
//!
//! ```text
//! graph     := [ "strict" ] ("digraph" | "graph") [ id ] "{" stmt* "}"
//! stmt      := (attr_stmt | edge_stmt | node_stmt | id "=" id) [ ";" ]
//! attr_stmt := ("graph" | "node" | "edge") attr_list
//! node_stmt := id [ attr_list ]
//! edge_stmt := id ("->" id)+ [ attr_list ]
//! attr_list := "[" [ a_pair ("," | ";")? ]* "]"
//! a_pair    := id "=" id
//! id        := word | quoted string
//! ```
//!
//! `graph`/`node`/`edge` default-attribute statements are applied to
//! subsequently created nodes/edges, matching GraphViz semantics closely
//! enough for round-tripping plan files.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::graph::{Graph, GraphError};

/// Parse dot text into a [`Graph`].
pub fn parse_dot(text: &str) -> Result<Graph, GraphError> {
    Parser::new(text).parse()
}

/// An attribute list as written, before it is merged into a map.
type Attrs<'a> = Vec<(Cow<'a, str>, Cow<'a, str>)>;

/// Scans the text's bytes. Every token boundary is an ASCII byte, so
/// identifiers and strings without escapes are borrowed from the text;
/// only the graph's own maps get owned copies.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    /// Byte offset, always on a char boundary between tokens.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> GraphError {
        // Report the offset in chars: count the bytes that start one.
        let at = self.bytes[..self.pos]
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count();
        GraphError::Parse {
            at,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii() {
                    if !char::from(b).is_whitespace() {
                        break;
                    }
                    self.pos += 1;
                } else {
                    match self.src[self.pos..].chars().next() {
                        Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                        _ => break,
                    }
                }
            }
            // // and # line comments, /* */ block comments.
            if self.peek() == Some(b'/') && self.peek_at(1) == Some(b'/')
                || self.peek() == Some(b'#')
            {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            if self.peek() == Some(b'/') && self.peek_at(1) == Some(b'*') {
                self.pos += 2;
                while self.pos + 1 < self.bytes.len()
                    && !(self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/')
                {
                    self.pos += 1;
                }
                self.pos = (self.pos + 2).min(self.bytes.len());
                continue;
            }
            break;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), GraphError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", char::from(c))))
        }
    }

    /// An id: bare word, number, or quoted string.
    fn parse_id(&mut self) -> Result<Cow<'a, str>, GraphError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                let mut owned: Option<String> = None;
                loop {
                    let Some(i) = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                    else {
                        self.pos = self.bytes.len();
                        return Err(self.err("unterminated string"));
                    };
                    let run = &self.src[self.pos..self.pos + i];
                    self.pos += i;
                    if self.bytes[self.pos] == b'"' {
                        self.pos += 1;
                        return Ok(match owned {
                            Some(mut s) => {
                                s.push_str(run);
                                Cow::Owned(s)
                            }
                            None => Cow::Borrowed(run),
                        });
                    }
                    // A backslash: `\n` is a newline, any other char
                    // stands for itself.
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let Some(c) = self.src[self.pos..].chars().next() else {
                        return Err(self.err("unterminated escape"));
                    };
                    s.push(if c == 'n' { '\n' } else { c });
                    self.pos += c.len_utf8();
                }
            }
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-' => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-' {
                        // Stop a bare id before `->`.
                        if c == b'-' && self.peek_at(1) == Some(b'>') {
                            break;
                        }
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(self.err("expected identifier"));
                }
                Ok(Cow::Borrowed(&self.src[start..self.pos]))
            }
            _ => Err(self.err("expected identifier or string")),
        }
    }

    /// Zero or more `[...]` lists, their pairs in order.
    fn parse_attr_list(&mut self) -> Result<Attrs<'a>, GraphError> {
        let mut attrs = Vec::new();
        self.skip_ws();
        while self.eat(b'[') {
            loop {
                self.skip_ws();
                if self.eat(b']') {
                    break;
                }
                let key = self.parse_id()?;
                self.skip_ws();
                self.expect(b'=')?;
                let val = self.parse_id()?;
                attrs.push((key, val));
                self.skip_ws();
                // Separators are optional.
                let _ = self.eat(b',') || self.eat(b';');
            }
            self.skip_ws();
        }
        Ok(attrs)
    }

    fn parse(&mut self) -> Result<Graph, GraphError> {
        self.skip_ws();
        // Optional 'strict'.
        let mut kw = self.parse_id()?;
        if kw == "strict" {
            kw = self.parse_id()?;
        }
        if kw != "digraph" && kw != "graph" {
            return Err(self.err("expected 'digraph' or 'graph'"));
        }
        self.skip_ws();
        let name = if self.peek() != Some(b'{') {
            self.parse_id()?
        } else {
            Cow::Borrowed("")
        };
        let mut graph = Graph::new(name);
        self.skip_ws();
        self.expect(b'{')?;
        let mut defaults = Defaults::default();
        self.parse_body(&mut graph, &mut defaults, true)
            .map(|()| graph)
    }

    /// Parse statements until `}`. Only the top-level body may open
    /// `subgraph` blocks; their statements go into the same graph (plan
    /// dumps use them only for ranks).
    fn parse_body(
        &mut self,
        graph: &mut Graph,
        defaults: &mut Defaults,
        top: bool,
    ) -> Result<(), GraphError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                None if top => return Err(self.err("unterminated graph body")),
                None => return Err(self.err("unterminated subgraph body")),
                _ => {}
            }
            if self.eat(b';') {
                continue;
            }
            let id = self.parse_id()?;
            match &*id {
                "subgraph" if top => {
                    // optional name then block
                    self.skip_ws();
                    if self.peek() != Some(b'{') {
                        let _ = self.parse_id();
                        self.skip_ws();
                    }
                    self.expect(b'{')?;
                    self.parse_body(graph, defaults, false)?;
                }
                "graph" => insert_all(&mut graph.attrs, self.parse_attr_list()?),
                "node" => insert_all(&mut defaults.node, self.parse_attr_list()?),
                "edge" => insert_all(&mut defaults.edge, self.parse_attr_list()?),
                _ => self.parse_node_or_edge(id, graph, defaults)?,
            }
        }
    }

    fn parse_node_or_edge(
        &mut self,
        first: Cow<'a, str>,
        graph: &mut Graph,
        defaults: &Defaults,
    ) -> Result<(), GraphError> {
        self.skip_ws();

        // `id = id` graph attribute.
        if self.eat(b'=') {
            let val = self.parse_id()?;
            graph.attrs.insert(first.into_owned(), val.into_owned());
            self.skip_ws();
            let _ = self.eat(b';');
            return Ok(());
        }

        // Edge chain?
        let mut chain = vec![first];
        loop {
            self.skip_ws();
            if self.peek() == Some(b'-') && self.peek_at(1) == Some(b'>') {
                self.pos += 2;
                chain.push(self.parse_id()?);
            } else {
                break;
            }
        }
        let attrs = self.parse_attr_list()?;
        self.skip_ws();
        let _ = self.eat(b';');

        if chain.len() == 1 {
            // Node statement: create or update.
            let name = chain.pop().expect("chain has one element");
            let mut merged = defaults.node.clone();
            insert_all(&mut merged, attrs);
            match graph.node_by_name(&name) {
                Some(id) => graph.node_mut(id).attrs.extend(merged),
                None => {
                    graph.add_node(name, merged)?;
                }
            }
        } else {
            let endpoint = |graph: &mut Graph, name: &str| match graph.node_by_name(name) {
                Some(id) => id,
                None => {
                    let id = graph.ensure_node(name);
                    graph.node_mut(id).attrs.extend(defaults.node.clone());
                    id
                }
            };
            for pair in chain.windows(2) {
                let from = endpoint(graph, &pair[0]);
                let to = endpoint(graph, &pair[1]);
                let mut merged = defaults.edge.clone();
                insert_all(&mut merged, attrs.iter().cloned());
                graph.add_edge(from, to, merged)?;
            }
        }
        Ok(())
    }
}

/// `node` and `edge` default attributes, applied to what is created
/// after them.
#[derive(Default)]
struct Defaults {
    node: HashMap<String, String>,
    edge: HashMap<String, String>,
}

/// Insert `attrs` in order, a later value for a key replacing an
/// earlier one.
fn insert_all<'a>(
    map: &mut HashMap<String, String>,
    attrs: impl IntoIterator<Item = (Cow<'a, str>, Cow<'a, str>)>,
) {
    for (k, v) in attrs {
        map.insert(k.into_owned(), v.into_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_dot;
    use std::collections::HashMap;

    #[test]
    fn parses_minimal_digraph() {
        let g = parse_dot("digraph G { n0; n1; n0 -> n1; }").unwrap();
        assert_eq!(g.name, "G");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parses_attributes() {
        let g = parse_dot(
            r#"digraph plan {
                 n0 [label="X_0 := sql.mvc();", shape=box];
                 n1 [label="X_1 := sql.tid(X_0);"];
                 n0 -> n1 [label="X_0"];
               }"#,
        )
        .unwrap();
        let n0 = g.node_by_name("n0").unwrap();
        assert_eq!(g.node(n0).attrs["label"], "X_0 := sql.mvc();");
        assert_eq!(g.node(n0).attrs["shape"], "box");
        assert_eq!(g.edges()[0].attrs["label"], "X_0");
    }

    #[test]
    fn implicit_nodes_from_edges() {
        let g = parse_dot("digraph { a -> b -> c; }").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn node_defaults_apply() {
        let g = parse_dot("digraph { node [shape=ellipse]; a; b [shape=box]; }").unwrap();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        assert_eq!(g.node(a).attrs["shape"], "ellipse");
        assert_eq!(g.node(b).attrs["shape"], "box");
    }

    #[test]
    fn graph_attr_statements() {
        let g = parse_dot("digraph { rankdir=TB; graph [bgcolor=white]; a; }").unwrap();
        assert_eq!(g.attrs["rankdir"], "TB");
        assert_eq!(g.attrs["bgcolor"], "white");
    }

    #[test]
    fn comments_are_skipped() {
        let g = parse_dot("digraph { // line\n # hash\n /* block\n comment */ a -> b; }").unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn subgraphs_flatten() {
        let g = parse_dot("digraph { subgraph cluster_0 { a; b; a -> b; } b -> c; }").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn quoted_ids_and_escapes() {
        let g = parse_dot(r#"digraph { "n 0" [label="a\"b\nc"]; }"#).unwrap();
        let n = g.node_by_name("n 0").unwrap();
        assert_eq!(g.node(n).attrs["label"], "a\"b\nc");
    }

    #[test]
    fn strict_keyword_accepted() {
        let g = parse_dot("strict digraph G { a; }").unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn write_parse_round_trip() {
        let mut g = Graph::new("plan");
        let mut na = HashMap::new();
        na.insert("label".to_string(), "X_0 := sql.mvc();".to_string());
        let a = g.add_node("n0", na).unwrap();
        let b = g.add_node("n1", HashMap::new()).unwrap();
        let mut ea = HashMap::new();
        ea.insert("label".to_string(), "X_0".to_string());
        g.add_edge(a, b, ea).unwrap();

        let text = write_dot(&g);
        let back = parse_dot(&text).unwrap();
        assert_eq!(back.name, g.name);
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        let n0 = back.node_by_name("n0").unwrap();
        assert_eq!(back.node(n0).attrs["label"], "X_0 := sql.mvc();");
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_dot("digraph {").unwrap_err();
        assert!(matches!(e, GraphError::Parse { .. }));
        let e = parse_dot("notagraph {}").unwrap_err();
        assert!(matches!(e, GraphError::Parse { .. }));
    }
}
