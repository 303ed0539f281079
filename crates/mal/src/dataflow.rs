//! Dataflow analysis over MAL plans.
//!
//! "Each query plan models a dataflow dependency, which allows it to be
//! represented as a directed acyclic graph" (paper §1). An edge `a → b`
//! means instruction `b` consumes a variable produced by instruction `a`.
//! This DAG is what the dot file describes, what Stethoscope draws, and
//! what the engine's multi-core scheduler runs.

use std::collections::{HashMap, HashSet};

use crate::instr::Arg;
use crate::plan::Plan;

/// Why an edge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Consumer reads a variable the producer defines.
    Data,
}

/// The dataflow DAG of a plan. Node ids are instruction pcs.
#[derive(Debug, Clone)]
pub struct DataflowGraph {
    n: usize,
    /// Outgoing edges per pc: (target pc, kind).
    succs: Vec<Vec<(usize, EdgeKind)>>,
    /// Incoming edge counts per pc.
    preds: Vec<Vec<(usize, EdgeKind)>>,
}

impl DataflowGraph {
    /// Build the DAG from def/use chains of `plan`.
    pub fn from_plan(plan: &Plan) -> Self {
        let n = plan.len();
        let mut def_site: HashMap<usize, usize> = HashMap::new(); // var -> pc
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for ins in &plan.instructions {
            for a in &ins.args {
                if let Arg::Var(v) = a {
                    if let Some(&d) = def_site.get(&v.0) {
                        // Deduplicate multi-use of the same producer in
                        // O(1) per edge instead of scanning the succ list.
                        if seen.insert((d, ins.pc)) {
                            succs[d].push((ins.pc, EdgeKind::Data));
                            preds[ins.pc].push((d, EdgeKind::Data));
                        }
                    }
                }
            }
            for r in &ins.results {
                def_site.insert(r.0, ins.pc);
            }
        }
        DataflowGraph { n, succs, preds }
    }

    /// Number of nodes (= plan length).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Successors (consumers) of `pc`.
    pub fn succs(&self, pc: usize) -> &[(usize, EdgeKind)] {
        &self.succs[pc]
    }

    /// Predecessors (producers) of `pc`.
    pub fn preds(&self, pc: usize) -> &[(usize, EdgeKind)] {
        &self.preds[pc]
    }

    /// All edges as (from, to) pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut v = Vec::with_capacity(self.edge_count());
        for (from, out) in self.succs.iter().enumerate() {
            for (to, _) in out {
                v.push((from, *to));
            }
        }
        v
    }

    /// Nodes with no predecessors (plan sources).
    pub fn sources(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| self.preds[i].is_empty()).collect()
    }

    /// Nodes with no successors (plan sinks).
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| self.succs[i].is_empty()).collect()
    }

    /// Longest-path depth of each node (root = 0). This is the "level"
    /// Stethoscope's layered drawing puts a node on.
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.n];
        for pc in 0..self.n {
            for &(p, _) in &self.preds[pc] {
                depth[pc] = depth[pc].max(depth[p] + 1);
            }
        }
        depth
    }

    /// The critical path (longest chain of dependent instructions), as a
    /// list of pcs from source to sink. With per-instruction durations it
    /// becomes the lower bound on parallel execution time.
    pub fn critical_path(&self, cost: impl Fn(usize) -> u64) -> Vec<usize> {
        if self.n == 0 {
            return Vec::new();
        }
        let mut best = vec![0u64; self.n]; // cost of best chain ending at node
        let mut prev: Vec<Option<usize>> = vec![None; self.n];
        for pc in 0..self.n {
            let mut b = 0;
            let mut pv = None;
            for &(p, _) in &self.preds[pc] {
                if best[p] >= b {
                    b = best[p];
                    pv = Some(p);
                }
            }
            best[pc] = b + cost(pc);
            prev[pc] = pv;
        }
        let mut end = 0;
        for pc in 0..self.n {
            if best[pc] > best[end] {
                end = pc;
            }
        }
        let mut path = vec![end];
        while let Some(p) = prev[*path.last().unwrap()] {
            path.push(p);
        }
        path.reverse();
        path
    }

    /// Maximum number of nodes sharing a depth level — an (upper-bound)
    /// estimate of exploitable instruction parallelism. Stethoscope's
    /// anomaly analysis compares this against the concurrency actually
    /// observed in the trace (§5 "sequential execution of a MAL plan where
    /// multithreaded execution was expected").
    pub fn width(&self) -> usize {
        let depths = self.depths();
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for d in depths {
            *counts.entry(d).or_insert(0) += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// True if `a` can reach `b` along dataflow edges.
    pub fn reaches(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![a];
        while let Some(x) = stack.pop() {
            if x == b {
                return true;
            }
            for &(s, _) in &self.succs[x] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Arg;
    use crate::plan::PlanBuilder;
    use crate::types::MalType;
    use crate::value::Value;

    /// diamond: 0 → 1, 0 → 2, {1,2} → 3
    fn diamond() -> Plan {
        let mut b = PlanBuilder::new("user.diamond");
        let src = b.call("bat", "new", MalType::bat(MalType::Int), vec![]);
        let l = b.call(
            "algebra",
            "select",
            MalType::bat(MalType::Oid),
            vec![
                Arg::Var(src),
                Arg::Lit(Value::Int(0)),
                Arg::Lit(Value::Int(1)),
                Arg::Lit(Value::Bit(true)),
            ],
        );
        let r = b.call(
            "algebra",
            "select",
            MalType::bat(MalType::Oid),
            vec![
                Arg::Var(src),
                Arg::Lit(Value::Int(2)),
                Arg::Lit(Value::Int(3)),
                Arg::Lit(Value::Bit(true)),
            ],
        );
        b.call(
            "bat",
            "append",
            MalType::bat(MalType::Oid),
            vec![Arg::Var(l), Arg::Var(r)],
        );
        b.finish()
    }

    #[test]
    fn diamond_edges() {
        let g = DataflowGraph::from_plan(&diamond());
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let mut e = g.edges();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
    }

    #[test]
    fn diamond_depths_and_width() {
        let g = DataflowGraph::from_plan(&diamond());
        assert_eq!(g.depths(), vec![0, 1, 1, 2]);
        assert_eq!(g.width(), 2);
    }

    #[test]
    fn critical_path_unit_cost() {
        let g = DataflowGraph::from_plan(&diamond());
        let p = g.critical_path(|_| 1);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], 0);
        assert_eq!(p[2], 3);
    }

    #[test]
    fn critical_path_weighted_prefers_heavy_branch() {
        let g = DataflowGraph::from_plan(&diamond());
        // Branch through node 2 is heavy.
        let p = g.critical_path(|pc| if pc == 2 { 100 } else { 1 });
        assert_eq!(p, vec![0, 2, 3]);
    }

    #[test]
    fn reaches_is_transitive_not_symmetric() {
        let g = DataflowGraph::from_plan(&diamond());
        assert!(g.reaches(0, 3));
        assert!(g.reaches(1, 3));
        assert!(!g.reaches(3, 0));
        assert!(!g.reaches(1, 2));
    }

    #[test]
    fn multi_use_of_same_var_dedups_edges() {
        let mut b = PlanBuilder::new("user.dup");
        let v = b.call("bat", "new", MalType::bat(MalType::Int), vec![]);
        b.call(
            "bat",
            "append",
            MalType::bat(MalType::Int),
            vec![Arg::Var(v), Arg::Var(v)],
        );
        let g = DataflowGraph::from_plan(&b.finish());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn empty_plan() {
        let p = PlanBuilder::new("user.empty").finish();
        let g = DataflowGraph::from_plan(&p);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.width(), 0);
        assert!(g.critical_path(|_| 1).is_empty());
    }
}
