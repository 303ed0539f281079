//! Mitosis: range-partition parallelism.
//!
//! MonetDB's mitosis optimizer splits a table scan into fragments and
//! clones the dependent operator pipeline per fragment, letting the
//! dataflow scheduler run the clones on different cores; `mat.pack`
//! glues fragment results back together. This pass reproduces that
//! rewrite on our plans:
//!
//! 1. take the (first) `sql.tid` candidate list `T`;
//! 2. partition it positionally with `algebra.slice` into `k` chunks
//!    whose bounds are computed at run time from `aggr.count(T)`;
//! 3. clone every *partitionable* instruction downstream of `T` once per
//!    chunk (`algebra.select`/`thetaselect`, `algebra.projection`/
//!    `leftjoin`, and element-wise `batcalc.*`) — these all preserve the
//!    property that concatenating per-chunk outputs in chunk order equals
//!    the unpartitioned output;
//! 4. at the region boundary insert `mat.pack(v_0, ..., v_{k-1})`, except
//!    where an aggregate can be computed per chunk and its partials
//!    combined (partial aggregation pushdown, one rule for both forms):
//!    * a plain `aggr.sum`/`aggr.count` becomes per-chunk partials folded
//!      with `calc.+`;
//!    * a `group.group` → `group.subgroup` chain whose groups and extents
//!      feed only `aggr.sub{sum,count,avg,min,max}` and projections of
//!      its keys (MonetDB's mergetable rewrite) runs per chunk. Each
//!      chunk projects its keys at its extents and computes one partial
//!      per aggregate (avg as sum and count); only these small partials
//!      are packed, regrouped on the packed keys and re-aggregated: sum
//!      of sums, sum of counts, min of mins, max of maxes, and avg as
//!      `batcalc./` of the merged sum over the merged count. Group ids
//!      are dense in order of first occurrence, and a group's first row
//!      lies in the earliest chunk that holds it, so the merged groups
//!      come out in the unpartitioned order.
//!
//! Each instruction costs a fixed amount to schedule, trace and draw, so
//! the grouped rewrite, which adds per-chunk instructions, applies only
//! when a chunk holds at least [`GROUPED_MIN_ROWS`] rows of the scanned
//! table; below that, group chains keep the pack path.
//!
//! The result is exactly the wide, Figure-2-style graph shape the paper
//! shows for complex queries.

use std::collections::HashMap;

use stetho_engine::Catalog;
use stetho_mal::{Arg, Instruction, MalType, Plan, PlanBuilder, Value, VarId};

use super::Pass;
use crate::error::SqlError;
use crate::Result;

/// Rows of the scanned table per partition from which group chains run
/// per partition. Below it the added per-partition instructions cost
/// more than the full-width pack, group and aggregate work they save
/// (the crossover is measured in DESIGN.md §13).
pub const GROUPED_MIN_ROWS: usize = 14_000;

/// The mitosis pass.
pub struct Mitosis {
    /// Number of partitions to split into (≥ 2 to have any effect).
    pub partitions: usize,
    /// Rows of the table under the plan's first `sql.tid` (see
    /// [`scanned_rows`]); group chains run per partition only when
    /// `table_rows / partitions` reaches [`GROUPED_MIN_ROWS`].
    pub table_rows: usize,
}

/// The first `sql.tid` of `plan`: the scan mitosis partitions.
fn first_tid(plan: &Plan) -> Option<&Instruction> {
    plan.instructions
        .iter()
        .find(|i| i.module == "sql" && i.function == "tid")
}

/// Catalog row count of the table under `plan`'s first `sql.tid`, the
/// input [`Mitosis::table_rows`] expects; 0 without a scan or when the
/// table is unknown.
pub fn scanned_rows(catalog: &Catalog, plan: &Plan) -> usize {
    first_tid(plan)
        .and_then(|ins| match ins.args.get(2) {
            Some(Arg::Lit(Value::Str(table))) => catalog.table(table).ok(),
            _ => None,
        })
        .map_or(0, |t| t.rows())
}

impl Pass for Mitosis {
    fn name(&self) -> &'static str {
        "mitosis"
    }

    fn run(&self, plan: &Plan) -> Result<Plan> {
        let k = self.partitions;
        if k < 2 {
            return Ok(plan.clone());
        }
        // Locate the first sql.tid; without one there is nothing to split.
        let tid_pc = match first_tid(plan) {
            Some(i) => i.pc,
            None => return Ok(plan.clone()),
        };
        let tid_var = plan.instructions[tid_pc].results[0];

        // Classify instructions: region (cloned per partition) vs outside.
        let mut region_vars: Vec<bool> = vec![false; plan.var_count()];
        region_vars[tid_var.0] = true;
        let mut in_region: Vec<bool> = vec![false; plan.len()];
        for ins in plan.instructions.iter().skip(tid_pc + 1) {
            let uses_region = ins.arg_vars().any(|v| region_vars[v.0]);
            if uses_region && partitionable(ins, &region_vars) {
                in_region[ins.pc] = true;
                for r in &ins.results {
                    region_vars[r.0] = true;
                }
            }
        }
        if !in_region.iter().any(|&x| x) {
            return Ok(plan.clone());
        }
        let chains = if self.table_rows / k >= GROUPED_MIN_ROWS {
            group_chains(plan, &region_vars)
        } else {
            Vec::new()
        };
        // A chain's steps join the region: each partition groups its own
        // rows. Its consumers are rewritten after its last step.
        let mut roles: HashMap<usize, Role> = HashMap::new();
        for (c, chain) in chains.iter().enumerate() {
            for &pc in &chain.steps {
                in_region[pc] = true;
                for r in &plan.instructions[pc].results {
                    region_vars[r.0] = true;
                }
            }
            roles.insert(
                *chain.steps.last().expect("a chain has a step"),
                Role::Last(c),
            );
            for &pc in &chain.consumers {
                roles.insert(pc, Role::Consumer(c));
            }
        }
        let mut merged: Vec<Option<Merged>> = chains.iter().map(|_| None).collect();

        // Rebuild.
        let mut b = PlanBuilder::new(plan.name.clone());
        // Outside vars: old -> new arg.
        let mut omap: HashMap<usize, Arg> = HashMap::new();
        // Region vars: old -> per-partition new vars.
        let mut pmap: HashMap<usize, Vec<VarId>> = HashMap::new();
        // Region vars already packed: old -> packed var.
        let mut packed: HashMap<usize, VarId> = HashMap::new();

        for ins in &plan.instructions {
            if ins.pc == tid_pc {
                // Emit tid, then the partition prelude.
                let tid_new = emit_copy(&mut b, plan, ins, &omap)?;
                omap.insert(tid_var.0, Arg::Var(tid_new[0]));
                let cnt = b.call("aggr", "count", MalType::Int, vec![Arg::Var(tid_new[0])]);
                let biased = b.call(
                    "calc",
                    "+",
                    MalType::Int,
                    vec![Arg::Var(cnt), Arg::Lit(Value::Int(k as i64 - 1))],
                );
                let chunk = b.call(
                    "calc",
                    "/",
                    MalType::Int,
                    vec![Arg::Var(biased), Arg::Lit(Value::Int(k as i64))],
                );
                let mut parts = Vec::with_capacity(k);
                for i in 0..k {
                    let lo = b.call(
                        "calc",
                        "*",
                        MalType::Int,
                        vec![Arg::Var(chunk), Arg::Lit(Value::Int(i as i64))],
                    );
                    let hi = b.call(
                        "calc",
                        "*",
                        MalType::Int,
                        vec![Arg::Var(chunk), Arg::Lit(Value::Int(i as i64 + 1))],
                    );
                    let cand = b.call(
                        "algebra",
                        "slice",
                        MalType::bat(MalType::Oid),
                        vec![Arg::Var(tid_new[0]), Arg::Var(lo), Arg::Var(hi)],
                    );
                    parts.push(cand);
                }
                pmap.insert(tid_var.0, parts);
                continue;
            }

            if in_region[ins.pc] {
                // Clone per partition.
                let mut per_result: Vec<Vec<VarId>> =
                    vec![Vec::with_capacity(k); ins.results.len()];
                #[allow(clippy::needless_range_loop)] // `part` selects the pmap slot
                for part in 0..k {
                    let args: Vec<Arg> = ins
                        .args
                        .iter()
                        .map(|a| match a {
                            Arg::Var(v) if region_vars[v.0] => Arg::Var(pmap[&v.0][part]),
                            Arg::Var(v) => omap.get(&v.0).cloned().unwrap_or(Arg::Var(*v)),
                            lit => lit.clone(),
                        })
                        .collect();
                    let results: Vec<VarId> = ins
                        .results
                        .iter()
                        .map(|r| b.new_var(plan.var(*r).ty.clone()))
                        .collect();
                    for (slot, r) in results.iter().enumerate() {
                        per_result[slot].push(*r);
                    }
                    b.push(ins.module.clone(), ins.function.clone(), results, args);
                }
                for (slot, r) in ins.results.iter().enumerate() {
                    pmap.insert(r.0, per_result[slot].clone());
                }
                if let Some(&Role::Last(c)) = roles.get(&ins.pc) {
                    merged[c] = Some(merge_chain(&mut b, plan, &chains[c], &pmap));
                }
                continue;
            }

            if let Some(&Role::Consumer(c)) = roles.get(&ins.pc) {
                let m = merged[c]
                    .as_mut()
                    .expect("a chain merges before its consumers");
                let out = emit_consumer(&mut b, plan, ins, m, &pmap);
                omap.insert(ins.results[0].0, Arg::Var(out));
                continue;
            }

            // Outside instruction. Partial-aggregation shortcut?
            if let Some(result) = try_partial_agg(&mut b, plan, ins, &region_vars, &pmap) {
                omap.insert(ins.results[0].0, Arg::Var(result));
                continue;
            }

            // Pack any region vars it consumes, then copy.
            let args: Vec<Arg> = ins
                .args
                .iter()
                .map(|a| match a {
                    Arg::Var(v) if region_vars[v.0] => {
                        let pv = *packed.entry(v.0).or_insert_with(|| {
                            let parts = &pmap[&v.0];
                            b.call(
                                "mat",
                                "pack",
                                plan.var(VarId(v.0)).ty.clone(),
                                parts.iter().map(|p| Arg::Var(*p)).collect(),
                            )
                        });
                        Arg::Var(pv)
                    }
                    Arg::Var(v) => omap.get(&v.0).cloned().unwrap_or(Arg::Var(*v)),
                    lit => lit.clone(),
                })
                .collect();
            let results: Vec<VarId> = ins
                .results
                .iter()
                .map(|r| {
                    let nv = b.new_named_var(plan.var(*r).name.clone(), plan.var(*r).ty.clone());
                    omap.insert(r.0, Arg::Var(nv));
                    nv
                })
                .collect();
            b.push(ins.module.clone(), ins.function.clone(), results, args);
        }

        let out = b.finish();
        out.validate()
            .map_err(|e| SqlError::Semantic(format!("mitosis broke the plan: {e}")))?;
        Ok(out)
    }
}

/// Copy one instruction with outside-var remapping; returns new results.
fn emit_copy(
    b: &mut PlanBuilder,
    plan: &Plan,
    ins: &Instruction,
    omap: &HashMap<usize, Arg>,
) -> Result<Vec<VarId>> {
    let args: Vec<Arg> = ins
        .args
        .iter()
        .map(|a| match a {
            Arg::Var(v) => omap.get(&v.0).cloned().unwrap_or(Arg::Var(*v)),
            lit => lit.clone(),
        })
        .collect();
    let results: Vec<VarId> = ins
        .results
        .iter()
        .map(|r| b.new_named_var(plan.var(*r).name.clone(), plan.var(*r).ty.clone()))
        .collect();
    b.push(
        ins.module.clone(),
        ins.function.clone(),
        results.clone(),
        args,
    );
    Ok(results)
}

/// Can this instruction be cloned per partition?
fn partitionable(ins: &Instruction, region: &[bool]) -> bool {
    let is_region = |a: &Arg| matches!(a, Arg::Var(v) if region[v.0]);
    match (ins.module.as_str(), ins.function.as_str()) {
        ("algebra", "select") => {
            // Candidate form: cand (arg 1) must be region, column (arg 0)
            // must be a base column. Mask form (4 args of which only the
            // mask is a var): mask must be region.
            if ins.args.len() >= 5 {
                is_region(&ins.args[1]) && !is_region(&ins.args[0])
            } else {
                is_region(&ins.args[0])
                    && ins.args[1..]
                        .iter()
                        .all(|a| !matches!(a, Arg::Var(v) if region[v.0]))
            }
        }
        ("algebra", "thetaselect") => is_region(&ins.args[1]) && !is_region(&ins.args[0]),
        ("algebra", "likeselect") => is_region(&ins.args[1]) && !is_region(&ins.args[0]),
        // Per-partition candidate lists cover disjoint, ordered position
        // ranges, so set operations distribute over partitions.
        ("algebra", "union") | ("algebra", "intersect") => {
            ins.arg_vars().count() == 2 && ins.arg_vars().all(|v| region[v.0])
        }
        ("algebra", "projection") | ("algebra", "leftjoin") => is_region(&ins.args[0]),
        ("batcalc", _) => ins.arg_vars().all(|v| region[v.0]),
        _ => false,
    }
}

/// What the rebuild does at a pc that belongs to a group chain.
enum Role {
    /// The chain's last grouping step: regroup after cloning it.
    Last(usize),
    /// An aggregate or key projection over the chain's final grouping.
    Consumer(usize),
}

/// A `group.group` → `group.subgroup` chain over region keys that can
/// run per partition: its intermediate groups feed only the next step,
/// no histogram and no intermediate extents are read, and its final
/// groups and extents feed only grouped aggregates and projections of
/// its own keys.
struct Chain {
    /// Pcs of the grouping steps, `group.group` first.
    steps: Vec<usize>,
    /// The key column of each step.
    keys: Vec<VarId>,
    /// Pcs of the instructions reading the final groups or extents.
    consumers: Vec<usize>,
}

/// Find every group chain the grouped rewrite applies to.
fn group_chains(plan: &Plan, region: &[bool]) -> Vec<Chain> {
    let mut uses: Vec<Vec<usize>> = vec![Vec::new(); plan.var_count()];
    for ins in &plan.instructions {
        for v in ins.arg_vars() {
            if uses[v.0].last() != Some(&ins.pc) {
                uses[v.0].push(ins.pc);
            }
        }
    }
    let region_var = |a: &Arg| match a {
        Arg::Var(v) if region[v.0] => Some(*v),
        _ => None,
    };
    let mut chains = Vec::new();
    'heads: for head in &plan.instructions {
        if head.module != "group" || head.function != "group" || head.results.len() != 3 {
            continue;
        }
        let Some(key) = head.args.first().and_then(region_var) else {
            continue;
        };
        let mut chain = Chain {
            steps: vec![head.pc],
            keys: vec![key],
            consumers: Vec::new(),
        };
        let mut step = head;
        let (groups, extents) = loop {
            let (g, e, h) = (step.results[0], step.results[1], step.results[2]);
            if !uses[h.0].is_empty() {
                continue 'heads;
            }
            let next = match uses[g.0][..] {
                [pc] if uses[e.0].is_empty() => &plan.instructions[pc],
                _ => break (g, e),
            };
            let key = next.args.first().and_then(region_var);
            match key {
                Some(key)
                    if next.module == "group"
                        && next.function == "subgroup"
                        && next.args.len() == 2
                        && next.args[1] == Arg::Var(g)
                        && next.results.len() == 3 =>
                {
                    chain.steps.push(next.pc);
                    chain.keys.push(key);
                    step = next;
                }
                _ => break (g, e),
            }
        };
        let mut consumers: Vec<usize> = uses[groups.0]
            .iter()
            .chain(&uses[extents.0])
            .copied()
            .collect();
        consumers.sort_unstable();
        consumers.dedup();
        for &pc in &consumers {
            let ins = &plan.instructions[pc];
            let fits = match (ins.module.as_str(), ins.function.as_str()) {
                ("algebra", "projection") => {
                    ins.args.len() == 2
                        && ins.args[0] == Arg::Var(extents)
                        && region_var(&ins.args[1]).is_some_and(|k| chain.keys.contains(&k))
                }
                ("aggr", "subsum" | "subavg" | "submin" | "submax" | "subcount") => {
                    ins.args.len() == 3
                        && ins.results.len() == 1
                        && ins.args[1] == Arg::Var(groups)
                        && ins.args[2] == Arg::Var(extents)
                        && (region_var(&ins.args[0]).is_some()
                            || (ins.function == "subcount" && ins.args[0] == Arg::Var(groups)))
                }
                _ => false,
            };
            if !fits {
                continue 'heads;
            }
        }
        chain.consumers = consumers;
        chains.push(chain);
    }
    chains
}

/// A chain's partials brought back together: the per-partition grouping,
/// the grouping of the packed partial keys, and each key packed.
struct Merged {
    /// Group ids per partition.
    part_groups: Vec<VarId>,
    /// Extents per partition.
    part_extents: Vec<VarId>,
    /// Group ids of the packed partials under the merged grouping.
    groups: VarId,
    /// Extents of the merged grouping, as positions in the packed partials.
    extents: VarId,
    /// Old key var → the key projected at each partition's extents, packed.
    keys: HashMap<usize, VarId>,
    /// The merged per-group row count, shared by every count and avg.
    count: Option<VarId>,
}

impl Merged {
    /// The merged row count per group, emitted on first use.
    fn count(&mut self, b: &mut PlanBuilder) -> VarId {
        if let Some(c) = self.count {
            return c;
        }
        let ty = MalType::bat(MalType::Int);
        let c = partial_aggregate(b, "count", &self.part_groups, &ty, Some(&*self));
        self.count = Some(c);
        c
    }
}

/// After a chain's last step has been cloned per partition: project
/// every key at each partition's extents, pack the partial keys and
/// regroup them with the same `group.group` → `group.subgroup` chain.
fn merge_chain(
    b: &mut PlanBuilder,
    plan: &Plan,
    chain: &Chain,
    pmap: &HashMap<usize, Vec<VarId>>,
) -> Merged {
    let last = &plan.instructions[*chain.steps.last().expect("a chain has a step")];
    let part_extents = pmap[&last.results[1].0].clone();
    let mut keys: HashMap<usize, VarId> = HashMap::new();
    let mut merged: Option<(VarId, VarId)> = None;
    for &key in &chain.keys {
        let ty = plan.var(key).ty.clone();
        let packed = *keys.entry(key.0).or_insert_with(|| {
            let parts = part_extents
                .iter()
                .zip(&pmap[&key.0])
                .map(|(e, k)| {
                    Arg::Var(b.call(
                        "algebra",
                        "projection",
                        ty.clone(),
                        vec![Arg::Var(*e), Arg::Var(*k)],
                    ))
                })
                .collect();
            b.call("mat", "pack", ty.clone(), parts)
        });
        let results = vec![
            b.new_var(MalType::bat(MalType::Oid)),
            b.new_var(MalType::bat(MalType::Oid)),
            b.new_var(MalType::bat(MalType::Int)),
        ];
        let mut args = vec![Arg::Var(packed)];
        args.extend(merged.map(|(prev, _)| Arg::Var(prev)));
        let function = if merged.is_none() {
            "group"
        } else {
            "subgroup"
        };
        merged = Some((results[0], results[1]));
        b.push("group", function, results, args);
    }
    let (groups, extents) = merged.expect("a chain has a key");
    Merged {
        part_groups: pmap[&last.results[0].0].clone(),
        part_extents,
        groups,
        extents,
        keys,
        count: None,
    }
}

/// Rewrite one consumer of a merged chain; returns its new result.
fn emit_consumer(
    b: &mut PlanBuilder,
    plan: &Plan,
    ins: &Instruction,
    m: &mut Merged,
    pmap: &HashMap<usize, Vec<VarId>>,
) -> VarId {
    let var = |a: &Arg| match a {
        Arg::Var(v) => *v,
        Arg::Lit(_) => unreachable!("group chain consumers read vars"),
    };
    let out_ty = plan.var(ins.results[0]).ty.clone();
    let vals = var(&ins.args[0]);
    match ins.function.as_str() {
        // A key at the group extents: the packed partial key at the
        // merged extents.
        "projection" => {
            let key = m.keys[&var(&ins.args[1]).0];
            b.call(
                "algebra",
                "projection",
                out_ty,
                vec![Arg::Var(m.extents), Arg::Var(key)],
            )
        }
        "subcount" => m.count(b),
        "subavg" => {
            let tail = plan.var(vals).ty.tail().clone();
            let sum_ty = MalType::bat(tail.clone());
            let sum = partial_aggregate(b, "sum", &pmap[&vals.0], &sum_ty, Some(m));
            let sum = if tail == MalType::Dbl {
                sum
            } else {
                b.call("batcalc", "dbl", out_ty.clone(), vec![Arg::Var(sum)])
            };
            let count = m.count(b);
            b.call("batcalc", "/", out_ty, vec![Arg::Var(sum), Arg::Var(count)])
        }
        sub => {
            let func = sub.strip_prefix("sub").expect("a grouped aggregate");
            partial_aggregate(b, func, &pmap[&vals.0], &out_ty, Some(m))
        }
    }
}

/// Partial aggregation, the one rule behind both pushdowns: `aggr.<func>`
/// runs once per partition over `parts`, then the partials combine —
/// count partials by summing, the others with their own function. `ty`
/// types both the partials and the result.
///
/// Without a grouping the partials are scalars folded with `calc.+` (only
/// `sum` and `count` come here). Over a merged chain each partial is
/// `aggr.sub<func>` over that partition's groups; the partials are packed
/// and re-aggregated over the merged groups.
fn partial_aggregate(
    b: &mut PlanBuilder,
    func: &str,
    parts: &[VarId],
    ty: &MalType,
    by: Option<&Merged>,
) -> VarId {
    let combine = if func == "count" { "sum" } else { func };
    let Some(m) = by else {
        debug_assert_eq!(combine, "sum", "scalar partials fold with calc.+");
        let partials: Vec<VarId> = parts
            .iter()
            .map(|p| b.call("aggr", func, ty.clone(), vec![Arg::Var(*p)]))
            .collect();
        let mut acc = partials[0];
        for p in &partials[1..] {
            acc = b.call("calc", "+", ty.clone(), vec![Arg::Var(acc), Arg::Var(*p)]);
        }
        return acc;
    };
    let sub = format!("sub{func}");
    let partials: Vec<Arg> = parts
        .iter()
        .zip(m.part_groups.iter().zip(&m.part_extents))
        .map(|(p, (g, e))| {
            Arg::Var(b.call(
                "aggr",
                &sub,
                ty.clone(),
                vec![Arg::Var(*p), Arg::Var(*g), Arg::Var(*e)],
            ))
        })
        .collect();
    let packed = b.call("mat", "pack", ty.clone(), partials);
    b.call(
        "aggr",
        &format!("sub{combine}"),
        ty.clone(),
        vec![Arg::Var(packed), Arg::Var(m.groups), Arg::Var(m.extents)],
    )
}

/// Rewrite `aggr.sum`/`aggr.count` over a region var into per-partition
/// partials combined with `calc.+`. Returns the combined scalar var.
fn try_partial_agg(
    b: &mut PlanBuilder,
    plan: &Plan,
    ins: &Instruction,
    region: &[bool],
    pmap: &HashMap<usize, Vec<VarId>>,
) -> Option<VarId> {
    if ins.module != "aggr" || ins.results.len() != 1 || ins.args.len() != 1 {
        return None;
    }
    if !matches!(ins.function.as_str(), "sum" | "count") {
        return None;
    }
    let v = match &ins.args[0] {
        Arg::Var(v) if region[v.0] => *v,
        _ => return None,
    };
    let parts = pmap.get(&v.0)?;
    let partial_ty = if ins.function == "count" {
        MalType::Int
    } else {
        plan.var(ins.results[0]).ty.clone()
    };
    Some(partial_aggregate(
        b,
        &ins.function,
        parts,
        &partial_ty,
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_mal::parse_plan;

    fn figure1() -> Plan {
        parse_plan(
            r#"
X_0:int := sql.mvc();
X_1:bat[:oid] := sql.tid(X_0, "sys", "lineitem");
X_2:bat[:int] := sql.bind(X_0, "sys", "lineitem", "l_partkey", 0:int);
X_3:bat[:oid] := algebra.select(X_2, X_1, 1:int, 1:int, true:bit);
X_4:bat[:dbl] := sql.bind(X_0, "sys", "lineitem", "l_tax", 0:int);
X_5:bat[:dbl] := algebra.projection(X_3, X_4);
sql.resultSet("l_tax", X_5);
"#,
        )
        .unwrap()
    }

    #[test]
    fn clones_region_per_partition() {
        let out = Mitosis {
            partitions: 4,
            table_rows: 0,
        }
        .run(&figure1())
        .unwrap();
        let selects = out
            .instructions
            .iter()
            .filter(|i| i.qualified_name() == "algebra.select")
            .count();
        assert_eq!(selects, 4);
        let projections = out
            .instructions
            .iter()
            .filter(|i| i.qualified_name() == "algebra.projection")
            .count();
        assert_eq!(projections, 4);
        let packs = out
            .instructions
            .iter()
            .filter(|i| i.qualified_name() == "mat.pack")
            .count();
        assert_eq!(packs, 1);
        let slices = out
            .instructions
            .iter()
            .filter(|i| i.qualified_name() == "algebra.slice")
            .count();
        assert_eq!(slices, 4);
    }

    #[test]
    fn partitions_one_is_identity() {
        let plan = figure1();
        let out = Mitosis {
            partitions: 1,
            table_rows: 0,
        }
        .run(&plan)
        .unwrap();
        assert_eq!(out.len(), plan.len());
    }

    #[test]
    fn no_tid_is_identity() {
        let plan = parse_plan("X_0:int := sql.mvc();\nio.print(X_0);\n").unwrap();
        let out = Mitosis {
            partitions: 4,
            table_rows: 0,
        }
        .run(&plan)
        .unwrap();
        assert_eq!(out.len(), plan.len());
    }

    #[test]
    fn sum_becomes_partial_aggregation() {
        let plan = parse_plan(
            r#"
X_0:int := sql.mvc();
X_1:bat[:oid] := sql.tid(X_0, "sys", "t");
X_2:bat[:dbl] := sql.bind(X_0, "sys", "t", "v", 0:int);
X_3:bat[:dbl] := algebra.projection(X_1, X_2);
X_4:dbl := aggr.sum(X_3);
sql.resultSet("s", X_4);
"#,
        )
        .unwrap();
        let out = Mitosis {
            partitions: 3,
            table_rows: 0,
        }
        .run(&plan)
        .unwrap();
        let sums = out
            .instructions
            .iter()
            .filter(|i| i.qualified_name() == "aggr.sum")
            .count();
        assert_eq!(sums, 3, "per-partition partial sums");
        let combines = out
            .instructions
            .iter()
            .filter(|i| i.qualified_name() == "calc.+")
            .count();
        // 2 combining adds + 1 from chunk-size computation.
        assert_eq!(combines, 3);
        assert!(out
            .instructions
            .iter()
            .all(|i| i.qualified_name() != "mat.pack"));
    }

    #[test]
    fn group_boundary_gets_pack() {
        let plan = parse_plan(
            r#"
X_0:int := sql.mvc();
X_1:bat[:oid] := sql.tid(X_0, "sys", "t");
X_2:bat[:str] := sql.bind(X_0, "sys", "t", "k", 0:int);
X_3:bat[:str] := algebra.projection(X_1, X_2);
(X_4:bat[:oid], X_5:bat[:oid], X_6:bat[:int]) := group.group(X_3);
sql.resultSet("g", X_4);
"#,
        )
        .unwrap();
        let out = Mitosis {
            partitions: 2,
            table_rows: 0,
        }
        .run(&plan)
        .unwrap();
        assert_eq!(
            out.instructions
                .iter()
                .filter(|i| i.qualified_name() == "mat.pack")
                .count(),
            1
        );
        assert_eq!(
            out.instructions
                .iter()
                .filter(|i| i.qualified_name() == "group.group")
                .count(),
            1,
            "grouping itself is not cloned"
        );
    }

    #[test]
    fn region_grows_through_batcalc() {
        let plan = parse_plan(
            r#"
X_0:int := sql.mvc();
X_1:bat[:oid] := sql.tid(X_0, "sys", "t");
X_2:bat[:dbl] := sql.bind(X_0, "sys", "t", "a", 0:int);
X_3:bat[:dbl] := algebra.projection(X_1, X_2);
X_4:bat[:dbl] := batcalc.*(X_3, 2.0:dbl);
X_5:dbl := aggr.sum(X_4);
sql.resultSet("s", X_5);
"#,
        )
        .unwrap();
        let out = Mitosis {
            partitions: 2,
            table_rows: 0,
        }
        .run(&plan)
        .unwrap();
        let muls = out
            .instructions
            .iter()
            .filter(|i| i.qualified_name() == "batcalc.*")
            .count();
        assert_eq!(muls, 2);
    }

    /// A table large enough for the grouped rewrite at `k` partitions.
    fn above_gate(k: usize) -> Mitosis {
        Mitosis {
            partitions: k,
            table_rows: GROUPED_MIN_ROWS * k,
        }
    }

    fn count_ops(plan: &Plan, name: &str) -> usize {
        plan.instructions
            .iter()
            .filter(|i| i.qualified_name() == name)
            .count()
    }

    /// `mat.pack`s with an operand that is not a partial: neither a
    /// grouped aggregate nor a key projected at a grouping's extents.
    fn full_width_packs(plan: &Plan) -> usize {
        let def = |v: VarId| &plan.instructions[plan.var(v).def.expect("defined")];
        let partial = |v: VarId| {
            let ins = def(v);
            (ins.module == "aggr" && ins.function.starts_with("sub"))
                || (ins.qualified_name() == "algebra.projection"
                    && matches!(ins.args[0], Arg::Var(e) if def(e).module == "group"))
        };
        plan.instructions
            .iter()
            .filter(|i| i.qualified_name() == "mat.pack")
            .filter(|i| !i.arg_vars().all(partial))
            .count()
    }

    const GROUPED: &str = r#"
X_0:int := sql.mvc();
X_1:bat[:oid] := sql.tid(X_0, "sys", "t");
X_2:bat[:str] := sql.bind(X_0, "sys", "t", "k", 0:int);
X_3:bat[:str] := algebra.projection(X_1, X_2);
X_4:bat[:date] := sql.bind(X_0, "sys", "t", "d", 0:int);
X_5:bat[:date] := algebra.projection(X_1, X_4);
X_6:bat[:int] := sql.bind(X_0, "sys", "t", "q", 0:int);
X_7:bat[:int] := algebra.projection(X_1, X_6);
(X_8:bat[:oid], X_9:bat[:oid], X_10:bat[:int]) := group.group(X_3);
(X_11:bat[:oid], X_12:bat[:oid], X_13:bat[:int]) := group.subgroup(X_5, X_8);
X_14:bat[:str] := algebra.projection(X_12, X_3);
X_15:bat[:int] := aggr.subsum(X_7, X_11, X_12);
X_16:bat[:dbl] := aggr.subavg(X_7, X_11, X_12);
X_17:bat[:int] := aggr.subcount(X_11, X_11, X_12);
X_18:bat[:date] := aggr.submax(X_5, X_11, X_12);
sql.resultSet("k", X_14, "s", X_15, "a", X_16, "n", X_17, "m", X_18);
"#;

    #[test]
    fn grouped_chain_runs_per_partition_above_the_gate() {
        let out = above_gate(3).run(&parse_plan(GROUPED).unwrap()).unwrap();
        assert!(out.verify().is_clean(), "{}", out.verify().render(&out));
        // Three per-partition chains, then one regroup of the partials.
        assert_eq!(count_ops(&out, "group.group"), 4);
        assert_eq!(count_ops(&out, "group.subgroup"), 4);
        assert_eq!(full_width_packs(&out), 0, "{}", out.listing());
        // avg is a sum over a count: one count chain serves avg and
        // count, and the int sum is cast before the division.
        assert_eq!(count_ops(&out, "aggr.subavg"), 0);
        assert_eq!(count_ops(&out, "aggr.subcount"), 3);
        assert_eq!(count_ops(&out, "batcalc.dbl"), 1);
        assert_eq!(count_ops(&out, "batcalc./"), 1);
        assert_eq!(count_ops(&out, "aggr.submax"), 4);
    }

    #[test]
    fn grouping_below_the_gate_keeps_the_pack_path() {
        let plan = parse_plan(GROUPED).unwrap();
        let below = Mitosis {
            partitions: 3,
            table_rows: GROUPED_MIN_ROWS * 3 - 1,
        };
        let out = below.run(&plan).unwrap();
        assert_eq!(count_ops(&out, "group.group"), 1);
        assert_eq!(full_width_packs(&out), 3, "the three key and value columns");
    }

    #[test]
    fn other_readers_of_a_grouping_keep_the_pack_path() {
        // The histogram is read, so the chain cannot run per partition.
        let plan = parse_plan(
            r#"
X_0:int := sql.mvc();
X_1:bat[:oid] := sql.tid(X_0, "sys", "t");
X_2:bat[:str] := sql.bind(X_0, "sys", "t", "k", 0:int);
X_3:bat[:str] := algebra.projection(X_1, X_2);
(X_4:bat[:oid], X_5:bat[:oid], X_6:bat[:int]) := group.group(X_3);
X_7:bat[:str] := algebra.projection(X_5, X_3);
sql.resultSet("k", X_7, "n", X_6);
"#,
        )
        .unwrap();
        let out = above_gate(2).run(&plan).unwrap();
        assert_eq!(count_ops(&out, "group.group"), 1);
        assert_eq!(full_width_packs(&out), 1);
    }

    #[test]
    fn rewritten_q1_packs_only_partials() {
        let q1 = include_str!("../../../../tests/fixtures/plans/q1_p1.mal");
        let plan = parse_plan(q1).unwrap();
        assert!(
            full_width_packs(
                &Mitosis {
                    partitions: 8,
                    table_rows: 0
                }
                .run(&plan)
                .unwrap()
            ) > 0
        );
        let out = above_gate(8).run(&plan).unwrap();
        assert!(out.verify().is_clean(), "{}", out.verify().render(&out));
        assert_eq!(full_width_packs(&out), 0, "{}", out.listing());
        assert_eq!(count_ops(&out, "group.group"), 9);
    }
}
