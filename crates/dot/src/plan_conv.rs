//! MAL plan → dot graph conversion, following the paper's §3.3 contract:
//!
//! * "an instruction execution trace statement with pc=1 maps to the node
//!   `n1` in the dot file" — node names are `n<pc>`;
//! * "the `stmt` field in instruction execution trace ... maps to the
//!   `label` field in the dot file" — labels are the rendered statements.
//!
//! Edges are the plan's dataflow dependencies, labelled with the variable
//! that carries the dependency.

use std::fmt::Write as _;

use stetho_mal::{Arg, Instruction, Plan, VarId};

use crate::graph::Graph;
use crate::writer;

/// How node labels are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelStyle {
    /// Full statement text (`X_5:bat[:dbl] := algebra.leftjoin(X_23, X_10);`).
    /// This is what the trace `stmt` field carries, so it is the default.
    #[default]
    FullStatement,
    /// Just `module.function` — readable in Figure-2-scale graphs.
    Short,
}

/// Convert a plan to the attributed graph a dot file would describe.
pub fn plan_to_graph(plan: &Plan, style: LabelStyle) -> Graph {
    let mut g = Graph::new(graph_name(plan));
    g.attrs.insert("rankdir".into(), "TB".into());
    let mut label = String::new();
    for ins in &plan.instructions {
        label.clear();
        push_label(&mut label, ins, plan, style);
        let attrs = node_attrs(&label, &ins.pc.to_string())
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into();
        g.add_node(format!("n{}", ins.pc), attrs)
            .expect("plan pcs are unique");
    }
    for (from, to, var) in labelled_edges(plan) {
        let attrs = edge_attrs(plan, var)
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into();
        let f = g.node_by_name(&format!("n{from}")).expect("node exists");
        let t = g.node_by_name(&format!("n{to}")).expect("node exists");
        g.add_edge(f, t, attrs).expect("endpoints exist");
    }
    g
}

/// Convert a plan straight to dot text: the bytes
/// `write_dot(&plan_to_graph(plan, style))` would produce, written
/// without building the graph.
pub fn plan_to_dot(plan: &Plan, style: LabelStyle) -> String {
    let mut out = String::with_capacity(128 * plan.len());
    writer::begin(&mut out, &graph_name(plan));
    writer::graph_attr(&mut out, "rankdir", "TB");
    let (mut label, mut name, mut to_name) = (String::new(), String::new(), String::new());
    for ins in &plan.instructions {
        label.clear();
        push_label(&mut label, ins, plan, style);
        name.clear();
        let _ = write!(name, "n{}", ins.pc);
        // The `pc` attribute is the node name without its `n`.
        writer::node_stmt(&mut out, &name, node_attrs(&label, &name[1..]));
    }
    for (from, to, var) in labelled_edges(plan) {
        name.clear();
        let _ = write!(name, "n{from}");
        to_name.clear();
        let _ = write!(to_name, "n{to}");
        writer::edge_stmt(&mut out, &name, &to_name, edge_attrs(plan, var));
    }
    writer::end(&mut out);
    out
}

/// The dot graph name: the plan name with dots made underscores.
fn graph_name(plan: &Plan) -> String {
    plan.name.replace('.', "_")
}

fn push_label(out: &mut String, ins: &Instruction, plan: &Plan, style: LabelStyle) {
    match style {
        LabelStyle::FullStatement => ins.render_into(plan, out),
        LabelStyle::Short => out.push_str(&ins.short_label()),
    }
}

/// A node's attributes, in the key order `write_dot` sorts them into.
fn node_attrs<'a>(label: &'a str, pc: &'a str) -> [(&'static str, &'a str); 3] {
    [("label", label), ("pc", pc), ("shape", "box")]
}

/// An edge's attributes: the variable that carries the dependency.
fn edge_attrs(plan: &Plan, var: VarId) -> [(&'static str, &str); 1] {
    [("label", plan.var(var).name.as_str())]
}

/// The plan's dataflow edges as `(producer pc, consumer pc, variable)`,
/// in the order of `DataflowGraph::edges`: by producer, then by
/// consumer in plan order. An edge is labelled with the first argument
/// of the consumer that the producer defined.
fn labelled_edges(plan: &Plan) -> Vec<(usize, usize, VarId)> {
    let mut def_site: Vec<Option<usize>> = vec![None; plan.var_count()];
    let mut edges = Vec::new();
    for ins in &plan.instructions {
        let first = edges.len();
        for a in &ins.args {
            if let Arg::Var(v) = a {
                if let Some(&Some(d)) = def_site.get(v.0) {
                    let new = edges[first..].iter().all(|&(from, _, _)| from != d);
                    if new {
                        edges.push((d, ins.pc, *v));
                    }
                }
            }
        }
        for r in &ins.results {
            if let Some(site) = def_site.get_mut(r.0) {
                *site = Some(ins.pc);
            }
        }
    }
    // Stable: consumers stay in plan order under each producer.
    edges.sort_by_key(|&(from, _, _)| from);
    edges
}

/// Extract the pc back out of a dot node name (`n3` → 3). Returns `None`
/// for non-plan nodes.
pub fn node_name_to_pc(name: &str) -> Option<usize> {
    name.strip_prefix('n')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dot;
    use stetho_mal::{MalType, PlanBuilder, Value};

    fn sample_plan() -> Plan {
        let mut b = PlanBuilder::new("user.s1_1");
        let mvc = b.call("sql", "mvc", MalType::Int, vec![]);
        let tid = b.call(
            "sql",
            "tid",
            MalType::bat(MalType::Oid),
            vec![
                Arg::Var(mvc),
                Arg::Lit(Value::Str("sys".into())),
                Arg::Lit(Value::Str("lineitem".into())),
            ],
        );
        let col = b.call(
            "sql",
            "bind",
            MalType::bat(MalType::Int),
            vec![
                Arg::Var(mvc),
                Arg::Lit(Value::Str("sys".into())),
                Arg::Lit(Value::Str("lineitem".into())),
                Arg::Lit(Value::Str("l_partkey".into())),
                Arg::Lit(Value::Int(0)),
            ],
        );
        b.call(
            "algebra",
            "projection",
            MalType::bat(MalType::Int),
            vec![Arg::Var(tid), Arg::Var(col)],
        );
        b.finish()
    }

    #[test]
    fn node_names_follow_pc_contract() {
        let g = plan_to_graph(&sample_plan(), LabelStyle::FullStatement);
        assert_eq!(g.node_count(), 4);
        for (i, n) in g.nodes().iter().enumerate() {
            assert_eq!(n.name, format!("n{i}"));
            assert_eq!(n.attrs["pc"], i.to_string());
        }
    }

    #[test]
    fn labels_are_statement_text() {
        let plan = sample_plan();
        let g = plan_to_graph(&plan, LabelStyle::FullStatement);
        let n1 = g.node_by_name("n1").unwrap();
        assert_eq!(
            g.node(n1).attrs["label"],
            plan.instructions[1].render(&plan)
        );
    }

    #[test]
    fn short_labels() {
        let g = plan_to_graph(&sample_plan(), LabelStyle::Short);
        let n3 = g.node_by_name("n3").unwrap();
        assert_eq!(g.node(n3).attrs["label"], "algebra.projection");
    }

    #[test]
    fn edges_carry_variable_labels() {
        let g = plan_to_graph(&sample_plan(), LabelStyle::FullStatement);
        // Edge n1 -> n3 carries X_1 (the tid candidate list).
        let e = g
            .edges()
            .iter()
            .find(|e| g.node(e.from).name == "n1" && g.node(e.to).name == "n3")
            .expect("edge n1->n3 exists");
        assert_eq!(e.attrs["label"], "X_1");
    }

    #[test]
    fn dot_text_round_trips_through_parser() {
        let plan = sample_plan();
        let text = plan_to_dot(&plan, LabelStyle::FullStatement);
        let g = parse_dot(&text).unwrap();
        assert_eq!(g.node_count(), plan.len());
        let n0 = g.node_by_name("n0").unwrap();
        assert!(g.node(n0).attrs["label"].contains("sql.mvc"));
    }

    #[test]
    fn pc_extraction() {
        assert_eq!(node_name_to_pc("n17"), Some(17));
        assert_eq!(node_name_to_pc("x17"), None);
        assert_eq!(node_name_to_pc("n"), None);
    }
}
