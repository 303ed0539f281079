//! One-call compilation: SQL text → optimized MAL plan.

use stetho_engine::Catalog;
use stetho_mal::Plan;

use crate::algebra;
use crate::codegen;
use crate::opt::{mitosis, PassInfo, Pipeline};
use crate::parser;
use crate::Result;

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// MAL function name for the plan.
    pub plan_name: String,
    /// Mitosis partition count (1 = no partitioning).
    pub partitions: usize,
    /// Skip the optimizer pipeline entirely (raw codegen output).
    pub skip_optimizers: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            plan_name: "user.s1_1".into(),
            partitions: 1,
            skip_optimizers: false,
        }
    }
}

impl CompileOptions {
    /// Default options with mitosis over `partitions` chunks.
    pub fn with_partitions(partitions: usize) -> Self {
        CompileOptions {
            partitions,
            ..Default::default()
        }
    }
}

/// A compiled query with its intermediate artefacts — everything
/// Stethoscope's debug windows want to show.
#[derive(Debug)]
pub struct CompiledQuery {
    /// The final (optimized) plan.
    pub plan: Plan,
    /// `EXPLAIN`-style algebra tree rendering.
    pub algebra: String,
    /// The unoptimized plan, for before/after comparison.
    pub unoptimized: Plan,
    /// Per-pass instruction counts.
    pub passes: Vec<PassInfo>,
}

/// Compile with default options.
pub fn compile(catalog: &Catalog, sql: &str) -> Result<CompiledQuery> {
    compile_with(catalog, sql, &CompileOptions::default())
}

/// Compile with explicit options.
pub fn compile_with(catalog: &Catalog, sql: &str, opts: &CompileOptions) -> Result<CompiledQuery> {
    let ast = parser::parse(sql)?;
    let rel = algebra::build(&ast)?;
    let unoptimized = codegen::generate(catalog, &rel, &opts.plan_name)?;
    let (plan, passes) = if opts.skip_optimizers {
        (unoptimized.clone(), Vec::new())
    } else {
        let table_rows = mitosis::scanned_rows(catalog, &unoptimized);
        Pipeline::default_pipeline(opts.partitions, table_rows).run(&unoptimized)?
    };
    Ok(CompiledQuery {
        plan,
        algebra: rel.explain(),
        unoptimized,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stetho_engine::{Bat, Catalog, ExecOptions, Interpreter, QueryResult, TableDef};
    use stetho_mal::MalType;

    fn catalog() -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.add_table(
            TableDef::new(
                "lineitem",
                vec![
                    (
                        "l_partkey".into(),
                        MalType::Int,
                        Bat::ints(vec![1, 2, 1, 3, 1, 2]),
                    ),
                    (
                        "l_quantity".into(),
                        MalType::Int,
                        Bat::ints(vec![10, 20, 30, 40, 50, 60]),
                    ),
                    (
                        "l_extendedprice".into(),
                        MalType::Dbl,
                        Bat::dbls(vec![100.0, 200.0, 300.0, 400.0, 500.0, 600.0]),
                    ),
                    (
                        "l_discount".into(),
                        MalType::Dbl,
                        Bat::dbls(vec![0.1, 0.2, 0.0, 0.1, 0.2, 0.0]),
                    ),
                    (
                        "l_tax".into(),
                        MalType::Dbl,
                        Bat::dbls(vec![0.01, 0.02, 0.03, 0.04, 0.05, 0.06]),
                    ),
                    (
                        "l_returnflag".into(),
                        MalType::Str,
                        Bat::strs(
                            ["A", "B", "A", "B", "A", "B"]
                                .iter()
                                .map(|s| s.to_string())
                                .collect(),
                        ),
                    ),
                    (
                        "l_shipdate".into(),
                        MalType::Date,
                        Bat::dates(vec![8766, 8767, 8768, 8769, 8770, 8771]),
                    ),
                    (
                        "l_orderkey".into(),
                        MalType::Int,
                        Bat::ints(vec![1, 1, 2, 2, 3, 3]),
                    ),
                ],
            )
            .unwrap(),
        );
        c.add_table(
            TableDef::new(
                "orders",
                vec![
                    ("o_orderkey".into(), MalType::Int, Bat::ints(vec![1, 2, 3])),
                    (
                        "o_orderpriority".into(),
                        MalType::Str,
                        Bat::strs(vec!["HIGH".into(), "LOW".into(), "HIGH".into()]),
                    ),
                ],
            )
            .unwrap(),
        );
        Arc::new(c)
    }

    fn run(sql: &str, opts: &CompileOptions) -> QueryResult {
        let cat = catalog();
        let q = compile_with(&cat, sql, opts).unwrap();
        let interp = Interpreter::new(cat);
        interp
            .execute(&q.plan, &ExecOptions::default())
            .unwrap()
            .result
            .expect("query produces a result set")
    }

    #[test]
    fn figure1_query_end_to_end() {
        let r = run(
            "select l_tax from lineitem where l_partkey = 1",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_tax").unwrap().as_dbls().unwrap(),
            &[0.01, 0.03, 0.05]
        );
    }

    #[test]
    fn figure1_plan_shape_matches_paper() {
        let cat = catalog();
        let q = compile(&cat, "select l_tax from lineitem where l_partkey = 1").unwrap();
        let ops: Vec<String> = q
            .plan
            .instructions
            .iter()
            .map(|i| i.qualified_name())
            .collect();
        // The canonical shape: mvc, tid, bind, select, bind, projection, resultSet.
        assert_eq!(ops[0], "sql.mvc");
        assert!(ops.contains(&"sql.tid".to_string()));
        assert!(ops.contains(&"algebra.select".to_string()));
        assert!(ops.contains(&"algebra.projection".to_string()));
        assert_eq!(ops.last().unwrap(), "sql.resultSet");
    }

    #[test]
    fn filters_and_arithmetic() {
        let r = run(
            "select l_extendedprice * (1 - l_discount) as revenue \
             from lineitem where l_quantity >= 30 and l_quantity <= 50",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("revenue").unwrap().as_dbls().unwrap(),
            &[300.0, 360.0, 400.0]
        );
    }

    #[test]
    fn between_on_dates() {
        let r = run(
            "select l_quantity from lineitem \
             where l_shipdate between date '1994-01-02' and date '1994-01-04'",
            &CompileOptions::default(),
        );
        // 8766 = 1994-01-01; matching days 8767..=8769.
        assert_eq!(
            r.column("l_quantity").unwrap().as_ints().unwrap(),
            &[20, 30, 40]
        );
    }

    #[test]
    fn global_aggregates() {
        let r = run(
            "select sum(l_quantity) as s, count(*) as n, avg(l_quantity) as a, \
             min(l_quantity) as lo, max(l_quantity) as hi from lineitem",
            &CompileOptions::default(),
        );
        assert_eq!(r.column("s").unwrap().as_ints().unwrap(), &[210]);
        assert_eq!(r.column("n").unwrap().as_ints().unwrap(), &[6]);
        assert_eq!(r.column("a").unwrap().as_dbls().unwrap(), &[35.0]);
        assert_eq!(r.column("lo").unwrap().as_ints().unwrap(), &[10]);
        assert_eq!(r.column("hi").unwrap().as_ints().unwrap(), &[60]);
    }

    #[test]
    fn group_by_with_order() {
        let r = run(
            "select l_returnflag, sum(l_quantity) as sq, count(*) as n \
             from lineitem group by l_returnflag order by l_returnflag",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_returnflag")
                .unwrap()
                .get(0)
                .unwrap()
                .as_str()
                .unwrap(),
            "A"
        );
        assert_eq!(r.column("sq").unwrap().as_ints().unwrap(), &[90, 120]);
        assert_eq!(r.column("n").unwrap().as_ints().unwrap(), &[3, 3]);
    }

    #[test]
    fn join_query() {
        let r = run(
            "select o.o_orderpriority, l.l_quantity from orders o, lineitem l \
             where o.o_orderkey = l.l_orderkey and o.o_orderpriority = 'HIGH' \
             order by l_quantity",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_quantity").unwrap().as_ints().unwrap(),
            &[10, 20, 50, 60]
        );
    }

    #[test]
    fn order_by_desc_with_limit() {
        let r = run(
            "select l_quantity from lineitem order by l_quantity desc limit 2",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_quantity").unwrap().as_ints().unwrap(),
            &[60, 50]
        );
    }

    #[test]
    fn or_predicate_via_mask() {
        let r = run(
            "select l_quantity from lineitem where l_partkey = 1 or l_partkey = 3",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_quantity").unwrap().as_ints().unwrap(),
            &[10, 30, 40, 50]
        );
    }

    #[test]
    fn mitosis_preserves_semantics() {
        for parts in [1usize, 2, 3, 8] {
            let r = run(
                "select l_tax from lineitem where l_partkey = 1",
                &CompileOptions::with_partitions(parts),
            );
            assert_eq!(
                r.column("l_tax").unwrap().as_dbls().unwrap(),
                &[0.01, 0.03, 0.05],
                "partitions={parts}"
            );
        }
    }

    #[test]
    fn mitosis_preserves_aggregates() {
        for parts in [1usize, 2, 4] {
            let r = run(
                "select sum(l_quantity) as s, count(*) as n from lineitem where l_quantity > 10",
                &CompileOptions::with_partitions(parts),
            );
            assert_eq!(
                r.column("s").unwrap().as_ints().unwrap(),
                &[200],
                "partitions={parts}"
            );
            assert_eq!(
                r.column("n").unwrap().as_ints().unwrap(),
                &[5],
                "partitions={parts}"
            );
        }
    }

    #[test]
    fn mitosis_preserves_in_and_like() {
        for parts in [1usize, 3] {
            let r = run(
                "select l_quantity from lineitem where l_partkey in (1, 3)",
                &CompileOptions::with_partitions(parts),
            );
            assert_eq!(
                r.column("l_quantity").unwrap().as_ints().unwrap(),
                &[10, 30, 40, 50],
                "IN with partitions={parts}"
            );
            let r = run(
                "select l_quantity from lineitem where l_returnflag like 'A%'",
                &CompileOptions::with_partitions(parts),
            );
            assert_eq!(
                r.column("l_quantity").unwrap().as_ints().unwrap(),
                &[10, 30, 50],
                "LIKE with partitions={parts}"
            );
        }
    }

    #[test]
    fn mitosis_clones_set_operations() {
        let cat = catalog();
        let q = compile_with(
            &cat,
            "select l_quantity from lineitem where l_partkey in (1, 3)",
            &CompileOptions::with_partitions(4),
        )
        .unwrap();
        let unions = q
            .plan
            .instructions
            .iter()
            .filter(|i| i.qualified_name() == "algebra.union")
            .count();
        assert_eq!(unions, 4, "union cloned per partition");
    }

    #[test]
    fn mitosis_preserves_group_by() {
        for parts in [1usize, 3] {
            let r = run(
                "select l_returnflag, sum(l_extendedprice) as s from lineitem \
                 group by l_returnflag order by l_returnflag",
                &CompileOptions::with_partitions(parts),
            );
            assert_eq!(r.column("s").unwrap().as_dbls().unwrap(), &[900.0, 1200.0]);
        }
    }

    #[test]
    fn mitosis_widens_the_plan() {
        let cat = catalog();
        let serial = compile(&cat, "select l_tax from lineitem where l_partkey = 1").unwrap();
        let parallel = compile_with(
            &cat,
            "select l_tax from lineitem where l_partkey = 1",
            &CompileOptions::with_partitions(8),
        )
        .unwrap();
        assert!(parallel.plan.len() > serial.plan.len() * 3);
        use stetho_mal::DataflowGraph;
        let w_serial = DataflowGraph::from_plan(&serial.plan).width();
        let w_parallel = DataflowGraph::from_plan(&parallel.plan).width();
        assert!(
            w_parallel >= 8 && w_parallel > w_serial * 2,
            "mitosis must widen the dataflow graph to at least the partition \
             count ({w_serial} -> {w_parallel})"
        );
    }

    #[test]
    fn like_predicate_fast_path() {
        let r = run(
            "select l_quantity from lineitem where l_returnflag like 'A%'",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_quantity").unwrap().as_ints().unwrap(),
            &[10, 30, 50]
        );
        // The compiled plan used the likeselect kernel.
        let cat = catalog();
        let q = compile(
            &cat,
            "select l_quantity from lineitem where l_returnflag like 'A%'",
        )
        .unwrap();
        assert!(q
            .plan
            .instructions
            .iter()
            .any(|i| i.qualified_name() == "algebra.likeselect"));
    }

    #[test]
    fn not_like_predicate() {
        let r = run(
            "select l_quantity from lineitem where l_returnflag not like 'A%'",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_quantity").unwrap().as_ints().unwrap(),
            &[20, 40, 60]
        );
    }

    #[test]
    fn in_list_fast_path_unions_selects() {
        let r = run(
            "select l_quantity from lineitem where l_partkey in (1, 3)",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_quantity").unwrap().as_ints().unwrap(),
            &[10, 30, 40, 50]
        );
        let cat = catalog();
        let q = compile(
            &cat,
            "select l_quantity from lineitem where l_partkey in (1, 3)",
        )
        .unwrap();
        assert!(q
            .plan
            .instructions
            .iter()
            .any(|i| i.qualified_name() == "algebra.union"));
    }

    #[test]
    fn not_in_uses_mask_path() {
        let r = run(
            "select l_quantity from lineitem where l_partkey not in (1, 3)",
            &CompileOptions::default(),
        );
        assert_eq!(
            r.column("l_quantity").unwrap().as_ints().unwrap(),
            &[20, 60]
        );
    }

    #[test]
    fn distinct_dedupes_preserving_order() {
        let r = run(
            "select distinct l_returnflag from lineitem",
            &CompileOptions::default(),
        );
        assert_eq!(r.rows(), 2);
        assert_eq!(
            r.column("l_returnflag").unwrap().get(0).unwrap().as_str(),
            Some("A")
        );
        assert_eq!(
            r.column("l_returnflag").unwrap().get(1).unwrap().as_str(),
            Some("B")
        );
    }

    #[test]
    fn distinct_multi_column() {
        let r = run(
            "select distinct l_returnflag, l_partkey from lineitem order by l_partkey",
            &CompileOptions::default(),
        );
        // Pairs: (A,1),(B,2),(A,1),(B,3),(A,1),(B,2) → 3 distinct.
        assert_eq!(r.rows(), 3);
    }

    #[test]
    fn having_filters_groups() {
        // Groups: A → 3 rows, B → 3 rows; sum(qty): A=90, B=120.
        let r = run(
            "select l_returnflag, count(*) as n from lineitem \
             group by l_returnflag having sum(l_quantity) > 100",
            &CompileOptions::default(),
        );
        assert_eq!(r.rows(), 1);
        assert_eq!(
            r.column("l_returnflag").unwrap().get(0).unwrap().as_str(),
            Some("B")
        );
        assert_eq!(r.column("n").unwrap().as_ints().unwrap(), &[3]);
        // The hidden helper column is not in the result.
        assert!(r.column("__having_2").is_none());
    }

    #[test]
    fn having_over_selected_aggregate_alias() {
        let r = run(
            "select l_returnflag, sum(l_quantity) as sq from lineitem \
             group by l_returnflag having sum(l_quantity) > 100",
            &CompileOptions::default(),
        );
        assert_eq!(r.rows(), 1);
        assert_eq!(r.column("sq").unwrap().as_ints().unwrap(), &[120]);
    }

    #[test]
    fn having_without_group_by_rejected() {
        let cat = catalog();
        assert!(compile(&cat, "select l_tax from lineitem having l_tax > 1").is_err());
    }

    #[test]
    fn unknown_names_error() {
        let cat = catalog();
        assert!(compile(&cat, "select x from nope").is_err());
        assert!(compile(&cat, "select nope_col from lineitem").is_err());
    }

    #[test]
    fn compiled_artifacts_present() {
        let cat = catalog();
        let q = compile(&cat, "select l_tax from lineitem where l_partkey = 1").unwrap();
        assert!(q.algebra.contains("Scan lineitem"));
        assert!(!q.passes.is_empty());
        assert!(q.unoptimized.len() >= q.plan.len());
    }
}
