//! Trace ↔ dot ↔ glyph mapping.
//!
//! "The program counter (pc) is an important field in the trace, and is
//! used to map pc to a node number in a dot file. For example, an
//! instruction execution trace statement with pc=1 maps to the node `n1`
//! in the dot file. The `stmt` field in instruction execution trace
//! represents a MAL instruction and maps to the `label` field in the dot
//! file." (§3.3)

use stetho_dot::plan_conv::node_name_to_pc;
use stetho_dot::Graph;
use stetho_layout::SceneGraph;
use stetho_zvtm::space::NodeGlyphs;
use stetho_zvtm::GlyphId;

/// Sorted, distinct pcs, each at a slot `0..len`: the index of the
/// per-pc tables whose pcs come from a dot file or a trace, so they may
/// have gaps or be arbitrarily large. A table is sized by the count of
/// pcs, never by a pc.
#[derive(Debug, Clone, Default)]
pub(crate) struct PcIndex(Vec<usize>);

impl PcIndex {
    pub(crate) fn new(pcs: impl IntoIterator<Item = usize>) -> Self {
        let mut pcs: Vec<usize> = pcs.into_iter().collect();
        pcs.sort_unstable();
        pcs.dedup();
        PcIndex(pcs)
    }

    /// The slot of `pc`, if indexed. Up to its first gap a pc sits at its
    /// own slot, so a dense range never searches.
    pub(crate) fn slot(&self, pc: usize) -> Option<usize> {
        match self.0.get(pc) {
            Some(&at) if at == pc => Some(pc),
            _ => self.0.binary_search(&pc).ok(),
        }
    }

    pub(crate) fn pcs(&self) -> &[usize] {
        &self.0
    }

    pub(crate) fn into_pcs(self) -> Vec<usize> {
        self.0
    }
}

/// What the map knows of the node that names one pc.
#[derive(Debug, Clone)]
struct NodeEntry {
    /// Dot/scene node index (the scene preserves dot ordering).
    node: usize,
    /// Node label (the plan statement text).
    label: String,
    /// (shape glyph, text glyph), once a virtual space was built.
    glyphs: Option<(GlyphId, GlyphId)>,
}

/// Resolves pcs to dot nodes, scene nodes, and glyphs. Its pcs are the
/// dot's `n<pc>` nodes: when two names parse to one pc (`n1`, `n01`), the
/// later node names it.
#[derive(Debug, Clone, Default)]
pub struct TraceDotMap {
    index: PcIndex,
    /// One entry per slot of `index`.
    entries: Vec<NodeEntry>,
}

impl TraceDotMap {
    /// Build from a parsed dot graph: node `n<pc>` → pc.
    pub fn from_graph(graph: &Graph) -> Self {
        Self::build(graph.nodes().iter().map(|node| {
            let label = node.attrs.get("label").unwrap_or(&node.name);
            (node.name.as_str(), label.as_str())
        }))
    }

    /// Build from a laid-out scene graph (same `n<pc>` naming).
    pub fn from_scene(scene: &SceneGraph) -> Self {
        Self::build(
            scene
                .nodes
                .iter()
                .map(|node| (node.name.as_str(), node.label.as_str())),
        )
    }

    /// Map the `(name, label)` of each node, in node order.
    fn build<'a>(nodes: impl Iterator<Item = (&'a str, &'a str)>) -> Self {
        let mut named: Vec<(usize, usize, &str)> = nodes
            .enumerate()
            .filter_map(|(node, (name, label))| Some((node_name_to_pc(name)?, node, label)))
            .collect();
        // Per pc the later node first, so `dedup` keeps it.
        named.sort_unstable_by_key(|&(pc, node, _)| (pc, std::cmp::Reverse(node)));
        named.dedup_by_key(|&mut (pc, ..)| pc);
        TraceDotMap {
            index: PcIndex::new(named.iter().map(|&(pc, ..)| pc)),
            entries: named
                .into_iter()
                .map(|(_, node, label)| NodeEntry {
                    node,
                    label: label.to_string(),
                    glyphs: None,
                })
                .collect(),
        }
    }

    /// Attach glyph ids (from [`stetho_zvtm::VirtualSpace::from_scene`]).
    pub fn attach_glyphs(&mut self, node_glyphs: &[NodeGlyphs]) {
        for ng in node_glyphs {
            if let Some(slot) = node_name_to_pc(&ng.name).and_then(|pc| self.index.slot(pc)) {
                self.entries[slot].glyphs = Some((ng.shape, ng.text));
            }
        }
    }

    /// The map's pcs and their slots: the offline pc space.
    pub(crate) fn index(&self) -> &PcIndex {
        &self.index
    }

    fn entry(&self, pc: usize) -> Option<&NodeEntry> {
        self.index.slot(pc).map(|slot| &self.entries[slot])
    }

    /// Scene/dot node index for a pc.
    pub fn node_of_pc(&self, pc: usize) -> Option<usize> {
        self.entry(pc).map(|e| e.node)
    }

    /// Shape glyph for a pc (the box that gets colored).
    pub fn shape_of_pc(&self, pc: usize) -> Option<GlyphId> {
        self.entry(pc)?.glyphs.map(|(s, _)| s)
    }

    /// Text glyph for a pc.
    pub fn text_of_pc(&self, pc: usize) -> Option<GlyphId> {
        self.entry(pc)?.glyphs.map(|(_, t)| t)
    }

    /// Node label (statement text) for a pc.
    pub fn label_of_pc(&self, pc: usize) -> Option<&str> {
        self.entry(pc).map(|e| e.label.as_str())
    }

    /// Number of mapped pcs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no pcs are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Check the §3.3 contract against a trace statement: does the trace
    /// `stmt` match the dot `label` for this pc? Used by sessions to
    /// detect mismatched dot/trace file pairs.
    pub fn stmt_matches(&self, pc: usize, stmt: &str) -> bool {
        self.label_of_pc(pc) == Some(stmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_dot::parse_dot;
    use stetho_layout::{layout, LayoutOptions};
    use stetho_zvtm::VirtualSpace;

    const DOT: &str = r#"digraph p {
        n0 [label="X_0 := sql.mvc();"];
        n1 [label="X_1 := sql.tid(X_0);"];
        n2 [label="X_2 := algebra.select(X_1);"];
        n0 -> n1; n1 -> n2;
    }"#;

    #[test]
    fn pc_to_node_contract() {
        let g = parse_dot(DOT).unwrap();
        let m = TraceDotMap::from_graph(&g);
        assert_eq!(m.len(), 3);
        assert_eq!(m.node_of_pc(1), Some(1));
        assert_eq!(m.node_of_pc(7), None);
        assert_eq!(m.label_of_pc(2), Some("X_2 := algebra.select(X_1);"));
    }

    #[test]
    fn stmt_label_contract() {
        let g = parse_dot(DOT).unwrap();
        let m = TraceDotMap::from_graph(&g);
        assert!(m.stmt_matches(0, "X_0 := sql.mvc();"));
        assert!(!m.stmt_matches(0, "X_0 := sql.tid();"));
        assert!(!m.stmt_matches(9, "anything"));
    }

    #[test]
    fn scene_and_glyph_wiring() {
        let g = parse_dot(DOT).unwrap();
        let scene = layout(&g, &LayoutOptions::default());
        let mut m = TraceDotMap::from_scene(&scene);
        let (space, node_glyphs) = VirtualSpace::from_scene(&scene);
        m.attach_glyphs(&node_glyphs);
        for pc in 0..3 {
            let shape = m.shape_of_pc(pc).expect("shape glyph");
            let text = m.text_of_pc(pc).expect("text glyph");
            assert_ne!(shape, text);
            assert!(shape.0 < space.len() && text.0 < space.len());
        }
    }

    #[test]
    fn non_plan_nodes_ignored() {
        let g = parse_dot("digraph { legend; n0; }").unwrap();
        let m = TraceDotMap::from_graph(&g);
        assert_eq!(m.len(), 1);
        assert_eq!(m.node_of_pc(0), Some(1));
    }

    /// The pcs a table must keep: a pruned dot whose pcs have gaps, and
    /// two node names that parse to one pc, where the later node wins.
    #[test]
    fn pruned_gaps_and_duplicate_names() {
        let dot = r#"digraph p {
            n0 [label="X_0 := sql.mvc();"];
            n1 [label="querylog.define(\"q\");"];
            n2 [label="X_2 := sql.tid(X_0);"];
            n3 [label="language.pass(X_0);"];
            n4 [label="X_4 := algebra.select(X_2);"];
            n0 -> n1; n1 -> n2; n2 -> n3; n3 -> n4;
        }"#;
        let (pruned, removed) = crate::prune::prune_administrative(&parse_dot(dot).unwrap());
        assert_eq!(removed, ["n1", "n3"]);
        let m = TraceDotMap::from_graph(&pruned);
        assert_eq!(m.len(), 3);
        let nodes: Vec<_> = (0..6).map(|pc| m.node_of_pc(pc)).collect();
        assert_eq!(nodes, [Some(0), None, Some(1), None, Some(2), None]);
        assert_eq!(m.label_of_pc(4), Some("X_4 := algebra.select(X_2);"));
        assert_eq!(m.label_of_pc(3), None);

        let dup =
            parse_dot(r#"digraph { n1 [label="a"]; n01 [label="b"]; n2 [label="c"]; }"#).unwrap();
        let m = TraceDotMap::from_graph(&dup);
        assert_eq!(m.len(), 2);
        assert_eq!(m.node_of_pc(1), Some(1));
        assert_eq!(m.label_of_pc(1), Some("b"));
        assert_eq!(m.node_of_pc(2), Some(2));

        for g in [pruned, dup] {
            let scene = layout(&g, &LayoutOptions::default());
            let mut m = TraceDotMap::from_scene(&scene);
            let (_, node_glyphs) = VirtualSpace::from_scene(&scene);
            m.attach_glyphs(&node_glyphs);
            for pc in 0..6 {
                let last = node_glyphs
                    .iter()
                    .rfind(|ng| node_name_to_pc(&ng.name) == Some(pc));
                assert_eq!(m.shape_of_pc(pc), last.map(|ng| ng.shape), "pc {pc}");
                let node = scene
                    .nodes
                    .iter()
                    .rposition(|n| node_name_to_pc(&n.name) == Some(pc));
                assert_eq!(m.node_of_pc(pc), node, "pc {pc}");
            }
        }
    }
}
