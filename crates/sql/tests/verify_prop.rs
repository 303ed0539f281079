//! Property tests: every optimizer pass preserves verifier-cleanliness.
//!
//! The static verifier (`Plan::verify`) accepts every plan the code
//! generator emits; each optimizer pass must keep it that way — a pass
//! that turns a clean plan into one with `MC0xx` errors is a miscompile.
//! Each property drives a pass with ≥256 generated queries spanning the
//! SQL subset (scans, filters, arithmetic, IN/LIKE, joins, aggregates,
//! GROUP BY/HAVING, DISTINCT, ORDER BY/LIMIT) and asserts clean-in →
//! clean-out, rendering the offending report on failure.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use stetho_engine::{Bat, Catalog, TableDef};
use stetho_mal::{MalType, Plan};
use stetho_sql::opt::mitosis::{Mitosis, GROUPED_MIN_ROWS};
use stetho_sql::opt::{constfold::ConstFold, cse::Cse, deadcode::DeadCode, Pass};
use stetho_sql::{compile_with, CompileOptions};

fn catalog() -> &'static Arc<Catalog> {
    static CATALOG: OnceLock<Arc<Catalog>> = OnceLock::new();
    CATALOG.get_or_init(|| {
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
    })
}

const INT_COLS: [&str; 3] = ["l_partkey", "l_quantity", "l_orderkey"];
const DBL_COLS: [&str; 3] = ["l_extendedprice", "l_discount", "l_tax"];
const CMP_OPS: [&str; 5] = ["=", "<", "<=", ">", ">="];

/// Deterministically build one SQL query from generated parameters.
fn build_sql(shape: u8, col: u8, col2: u8, op: u8, v: i64, desc: bool) -> String {
    let ic = INT_COLS[col as usize % INT_COLS.len()];
    let ic2 = INT_COLS[col2 as usize % INT_COLS.len()];
    let dc = DBL_COLS[col as usize % 2]; // l_tax is absent from this catalog
    let cmp = CMP_OPS[op as usize % CMP_OPS.len()];
    let dir = if desc { "desc" } else { "asc" };
    match shape % 13 {
        0 => format!("select {ic} from lineitem"),
        1 => format!("select {ic} from lineitem where {ic2} {cmp} {v}"),
        2 => format!(
            "select l_extendedprice * (1 - l_discount) as x from lineitem \
             where l_quantity >= {v}"
        ),
        3 => format!("select sum({ic}) as s, count(*) as n from lineitem where {ic2} {cmp} {v}"),
        4 => format!(
            "select l_returnflag, sum({ic}) as sq, min({dc}) as lo from lineitem \
             group by l_returnflag"
        ),
        5 => format!(
            "select {ic} from lineitem where l_partkey = {v} or l_partkey = {}",
            v + 2
        ),
        6 => format!(
            "select {ic} from lineitem where l_partkey in (1, {})",
            v % 5
        ),
        7 => format!(
            "select {ic} from lineitem order by {ic} {dir} limit {}",
            v % 4 + 1
        ),
        8 => "select distinct l_returnflag from lineitem".into(),
        9 => format!("select {ic} from lineitem where l_returnflag like 'A%'"),
        10 => format!(
            "select o.o_orderpriority, l.{ic} from orders o, lineitem l \
             where o.o_orderkey = l.l_orderkey and o.o_orderkey {cmp} {v}"
        ),
        11 => format!(
            "select l_returnflag, count(*) as n from lineitem \
             group by l_returnflag having sum(l_quantity) > {v}"
        ),
        _ => format!("select {ic} * 2 + (3 * 4) as q from lineitem where {ic2} {cmp} {v}"),
    }
}

/// Raw (unoptimized) codegen output for one generated query.
fn raw_plan(sql: &str) -> Plan {
    let q = compile_with(
        catalog(),
        sql,
        &CompileOptions {
            plan_name: "user.prop".into(),
            partitions: 1,
            skip_optimizers: true,
        },
    )
    .unwrap_or_else(|e| panic!("compile failed for `{sql}`: {e}"));
    q.unoptimized
}

/// Assert `pass` keeps a verifier-clean plan verifier-clean.
fn assert_pass_preserves_clean(pass: &dyn Pass, plan: &Plan, sql: &str) {
    let rin = plan.verify();
    assert!(
        rin.is_clean(),
        "input for `{sql}` already dirty:\n{}",
        rin.render(plan)
    );
    let out = pass
        .run(plan)
        .unwrap_or_else(|e| panic!("{} failed on `{sql}`: {e}", pass.name()));
    let rout = out.verify();
    assert!(
        rout.is_clean(),
        "{} broke `{sql}`:\n{}",
        pass.name(),
        rout.render(&out)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn constfold_preserves_cleanliness(
        (shape, col, col2, op, v, desc) in (0u8..13, 0u8..8, 0u8..8, 0u8..8, 0i64..50, any::<bool>())
    ) {
        let sql = build_sql(shape, col, col2, op, v, desc);
        assert_pass_preserves_clean(&ConstFold, &raw_plan(&sql), &sql);
    }

    #[test]
    fn cse_preserves_cleanliness(
        (shape, col, col2, op, v, desc) in (0u8..13, 0u8..8, 0u8..8, 0u8..8, 0i64..50, any::<bool>())
    ) {
        let sql = build_sql(shape, col, col2, op, v, desc);
        assert_pass_preserves_clean(&Cse, &raw_plan(&sql), &sql);
    }

    #[test]
    fn deadcode_preserves_cleanliness(
        (shape, col, col2, op, v, desc) in (0u8..13, 0u8..8, 0u8..8, 0u8..8, 0i64..50, any::<bool>())
    ) {
        let sql = build_sql(shape, col, col2, op, v, desc);
        assert_pass_preserves_clean(&DeadCode, &raw_plan(&sql), &sql);
    }

    #[test]
    fn mitosis_preserves_cleanliness(
        (shape, col, col2, op, v, desc, parts) in
            (0u8..13, 0u8..8, 0u8..8, 0u8..8, 0i64..50, any::<bool>(), 2usize..8)
    ) {
        let sql = build_sql(shape, col, col2, op, v, desc);
        // Mitosis runs after the scalar passes in the real pipeline;
        // feed it the same cleaned-up input it would see there.
        let plan = raw_plan(&sql);
        let plan = ConstFold.run(&plan).unwrap();
        let plan = Cse.run(&plan).unwrap();
        let plan = DeadCode.run(&plan).unwrap();
        // Below the grouped rewrite's gate (this catalog's 6 rows) and
        // with it forced through the pass's row count.
        for table_rows in [0, GROUPED_MIN_ROWS * parts] {
            assert_pass_preserves_clean(&Mitosis { partitions: parts, table_rows }, &plan, &sql);
        }
    }

    #[test]
    fn full_pipeline_output_is_clean(
        (shape, col, col2, op, v, desc, parts) in
            (0u8..13, 0u8..8, 0u8..8, 0u8..8, 0i64..50, any::<bool>(), 1usize..8)
    ) {
        let sql = build_sql(shape, col, col2, op, v, desc);
        let q = compile_with(
            catalog(),
            &sql,
            &CompileOptions {
                plan_name: "user.prop".into(),
                partitions: parts,
                skip_optimizers: false,
            },
        )
        .unwrap_or_else(|e| panic!("compile failed for `{sql}`: {e}"));
        let report = q.plan.verify();
        prop_assert!(report.is_clean(), "`{sql}`:\n{}", report.render(&q.plan));
    }
}

// ---- regression fixtures ---------------------------------------------
// Specific query/pass combinations worth pinning independently of the
// generator: the paper's Figure-1 query, the widest mitosis plans, and
// the set-operation path that mitosis must clone per partition.

#[test]
fn regression_figure1_clean_through_every_pass() {
    let sql = "select l_extendedprice from lineitem where l_partkey = 1";
    let plan = raw_plan(sql);
    for pass in [&ConstFold as &dyn Pass, &Cse, &DeadCode] {
        assert_pass_preserves_clean(pass, &plan, sql);
    }
}

#[test]
fn regression_mitosis_group_by_stays_clean() {
    let sql = "select l_returnflag, sum(l_quantity) as s from lineitem \
               group by l_returnflag";
    let q = compile_with(
        catalog(),
        sql,
        &CompileOptions {
            plan_name: "user.reg".into(),
            partitions: 6,
            skip_optimizers: false,
        },
    )
    .unwrap();
    let report = q.plan.verify();
    assert!(report.is_clean(), "{}", report.render(&q.plan));
}

#[test]
fn regression_mitosis_in_list_union_stays_clean() {
    let sql = "select l_quantity from lineitem where l_partkey in (1, 3)";
    let q = compile_with(
        catalog(),
        sql,
        &CompileOptions {
            plan_name: "user.reg".into(),
            partitions: 4,
            skip_optimizers: false,
        },
    )
    .unwrap();
    let report = q.plan.verify();
    assert!(report.is_clean(), "{}", report.render(&q.plan));
}
