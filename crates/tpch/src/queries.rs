//! The query texts used by examples, tests and benchmarks.
//!
//! These are TPC-H-derived queries restricted to the SQL subset the
//! `stetho-sql` front end supports (no INTERVAL arithmetic — horizon
//! dates are pre-computed).

/// The paper's Figure-1 example query (§2):
/// `select l_tax from lineitem where l_partkey=1`.
pub const FIGURE1: &str = "select l_tax from lineitem where l_partkey = 1";

/// TPC-H Q1 (pricing summary report), horizon pre-computed as
/// 1998-12-01 − 90 days = 1998-09-02.
pub const Q1: &str = "\
select l_returnflag, l_linestatus, \
       sum(l_quantity) as sum_qty, \
       sum(l_extendedprice) as sum_base_price, \
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
       avg(l_quantity) as avg_qty, \
       avg(l_extendedprice) as avg_price, \
       avg(l_discount) as avg_disc, \
       count(*) as count_order \
from lineitem \
where l_shipdate <= date '1998-09-02' \
group by l_returnflag, l_linestatus \
order by l_returnflag, l_linestatus";

/// TPC-H Q3 (shipping priority), segment BUILDING, cut-off 1995-03-15.
/// Revenue aggregation simplified to `sum(l_extendedprice)` plus the
/// discounted sum, since post-aggregate arithmetic is out of subset.
pub const Q3: &str = "\
select l.l_orderkey, sum(l.l_extendedprice * (1 - l.l_discount)) as revenue, \
       o.o_orderdate, o.o_shippriority \
from customer c, orders o, lineitem l \
where c.c_mktsegment = 'BUILDING' \
  and c.c_custkey = o.o_custkey \
  and l.l_orderkey = o.o_orderkey \
  and o.o_orderdate < date '1995-03-15' \
  and l.l_shipdate > date '1995-03-15' \
group by l_orderkey, o_orderdate, o_shippriority \
order by revenue desc, o_orderdate \
limit 10";

/// TPC-H Q6 (forecasting revenue change), year 1994, discount 0.05–0.07,
/// quantity < 24.
pub const Q6: &str = "\
select sum(l_extendedprice * l_discount) as revenue \
from lineitem \
where l_shipdate >= date '1994-01-01' \
  and l_shipdate < date '1995-01-01' \
  and l_discount between 0.05 and 0.07 \
  and l_quantity < 24";

/// A deliberately join- and aggregate-heavy query used by the online demo
/// as the "long running query" (§5): joins customer→orders→lineitem and
/// aggregates per market segment.
pub const LONG_RUNNING: &str = "\
select c.c_mktsegment, sum(l.l_extendedprice * (1 - l.l_discount)) as revenue, \
       count(*) as n \
from customer c, orders o, lineitem l \
where c.c_custkey = o.o_custkey and o.o_orderkey = l.l_orderkey \
group by c_mktsegment \
order by revenue desc";

/// TPC-H Q10-style (returned items report): revenue lost to returns per
/// customer, top 20.
pub const Q10: &str = "\
select c.c_custkey, c.c_name, sum(l.l_extendedprice * (1 - l.l_discount)) as revenue \
from customer c, orders o, lineitem l \
where c.c_custkey = o.o_custkey \
  and l.l_orderkey = o.o_orderkey \
  and l.l_returnflag = 'R' \
group by c_custkey, c_name \
order by revenue desc \
limit 20";

/// TPC-H Q12-style (shipping modes and order priority): line counts per
/// ship mode for two modes of interest in 1994. Exercises `IN`.
pub const Q12: &str = "\
select l_shipmode, count(*) as n \
from lineitem \
where l_shipmode in ('MAIL', 'SHIP') \
  and l_shipdate >= date '1994-01-01' \
  and l_shipdate < date '1995-01-01' \
group by l_shipmode \
order by l_shipmode";

/// TPC-H Q14-style (promotion effect): promo-part revenue for one month.
/// Exercises `LIKE`.
pub const Q14: &str = "\
select sum(l.l_extendedprice * (1 - l.l_discount)) as promo_revenue \
from lineitem l, part p \
where l.l_partkey = p.p_partkey \
  and p.p_type like 'PROMO%' \
  and l.l_shipdate >= date '1995-09-01' \
  and l.l_shipdate < date '1995-10-01'";

/// DISTINCT demo: the distinct (returnflag, linestatus) combinations.
pub const DISTINCT_FLAGS: &str = "\
select distinct l_returnflag, l_linestatus from lineitem \
order by l_returnflag, l_linestatus";

/// HAVING demo: ship modes carrying more than 100 lineitems.
pub const BUSY_SHIPMODES: &str = "\
select l_shipmode, count(*) as n from lineitem \
group by l_shipmode \
having count(*) > 100 \
order by n desc";

/// All named queries, for sweep-style benchmarks.
pub fn all() -> Vec<(&'static str, &'static str)> {
    vec![
        ("figure1", FIGURE1),
        ("q1", Q1),
        ("q3", Q3),
        ("q6", Q6),
        ("q10", Q10),
        ("q12", Q12),
        ("q14", Q14),
        ("distinct_flags", DISTINCT_FLAGS),
        ("busy_shipmodes", BUSY_SHIPMODES),
        ("long_running", LONG_RUNNING),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_catalog, TpchConfig};
    use std::sync::Arc;
    use stetho_engine::{ExecOptions, Interpreter};
    use stetho_sql::compile;

    #[test]
    fn every_query_compiles_and_runs() {
        let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.0005)));
        let interp = Interpreter::new(Arc::clone(&cat));
        for (name, sql) in all() {
            let q = compile(&cat, sql).unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
            let out = interp
                .execute(&q.plan, &ExecOptions::default())
                .unwrap_or_else(|e| panic!("{name} failed to run: {e}"));
            assert!(out.result.is_some(), "{name} must produce a result set");
        }
    }

    #[test]
    fn q1_produces_flag_status_groups() {
        let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.0005)));
        let interp = Interpreter::new(Arc::clone(&cat));
        let q = compile(&cat, Q1).unwrap();
        let r = interp
            .execute(&q.plan, &ExecOptions::default())
            .unwrap()
            .result
            .unwrap();
        // The classic Q1 answer has at most 4 (flag,status) groups.
        assert!((1..=4).contains(&r.rows()), "rows {}", r.rows());
        // sum_qty must be positive and ≥ count (quantities are ≥ 1).
        let sums = r.column("sum_qty").unwrap().as_ints().unwrap().to_vec();
        let counts = r.column("count_order").unwrap().as_ints().unwrap().to_vec();
        for (s, c) in sums.iter().zip(&counts) {
            assert!(s >= c);
        }
    }

    #[test]
    fn q6_matches_manual_computation() {
        let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.0005)));
        let interp = Interpreter::new(Arc::clone(&cat));
        let q = compile(&cat, Q6).unwrap();
        let r = interp
            .execute(&q.plan, &ExecOptions::default())
            .unwrap()
            .result
            .unwrap();
        let got = r.column("revenue").unwrap().as_dbls().unwrap()[0];

        // Recompute directly from the columns.
        let ship = cat.column("lineitem", "l_shipdate").unwrap();
        let disc = cat.column("lineitem", "l_discount").unwrap();
        let qty = cat.column("lineitem", "l_quantity").unwrap();
        let price = cat.column("lineitem", "l_extendedprice").unwrap();
        let (lo, hi) = (8766, 9131); // 1994-01-01, 1995-01-01
        let mut want = 0.0;
        let ship = ship.as_dates().unwrap();
        for (i, &s) in ship.iter().enumerate() {
            let d = disc.as_dbls().unwrap()[i];
            if s >= lo && s < hi && (0.05..=0.07).contains(&d) && qty.as_ints().unwrap()[i] < 24 {
                want += price.as_dbls().unwrap()[i] * d;
            }
        }
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    fn q12_in_list_restricts_shipmodes() {
        let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.001)));
        let interp = Interpreter::new(Arc::clone(&cat));
        let q = compile(&cat, Q12).unwrap();
        let r = interp
            .execute(&q.plan, &ExecOptions::default())
            .unwrap()
            .result
            .unwrap();
        assert!(r.rows() <= 2);
        for i in 0..r.rows() {
            let mode = r.column("l_shipmode").unwrap().get(i).unwrap();
            let mode = mode.as_str().unwrap().to_string();
            assert!(mode == "MAIL" || mode == "SHIP", "unexpected mode {mode}");
        }
    }

    #[test]
    fn q14_matches_manual_computation() {
        let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.001)));
        let interp = Interpreter::new(Arc::clone(&cat));
        let q = compile(&cat, Q14).unwrap();
        let r = interp
            .execute(&q.plan, &ExecOptions::default())
            .unwrap()
            .result
            .unwrap();
        let got = r.column("promo_revenue").unwrap().as_dbls().unwrap()[0];

        // Manual recomputation.
        let partkeys = cat.column("lineitem", "l_partkey").unwrap();
        let prices = cat.column("lineitem", "l_extendedprice").unwrap();
        let discs = cat.column("lineitem", "l_discount").unwrap();
        let ships = cat.column("lineitem", "l_shipdate").unwrap();
        let types = cat.column("part", "p_type").unwrap();
        let ships = ships.as_dates().unwrap();
        // 1995-09-01 = 9374, 1995-10-01 = 9404.
        let mut want = 0.0;
        for (i, &s) in ships.iter().enumerate() {
            let pk = partkeys.as_ints().unwrap()[i] as usize - 1;
            let ptype = types.get(pk).unwrap();
            if (9374..9404).contains(&s) && ptype.as_str().unwrap().starts_with("PROMO") {
                want += prices.as_dbls().unwrap()[i] * (1.0 - discs.as_dbls().unwrap()[i]);
            }
        }
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    fn distinct_flags_bounded() {
        let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.001)));
        let interp = Interpreter::new(Arc::clone(&cat));
        let q = compile(&cat, DISTINCT_FLAGS).unwrap();
        let r = interp
            .execute(&q.plan, &ExecOptions::default())
            .unwrap()
            .result
            .unwrap();
        // (R,F), (A,F), (N,O), (N,F) are the only possible combinations.
        assert!((1..=4).contains(&r.rows()), "rows {}", r.rows());
    }

    #[test]
    fn busy_shipmodes_all_pass_threshold() {
        let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.001)));
        let interp = Interpreter::new(Arc::clone(&cat));
        let q = compile(&cat, BUSY_SHIPMODES).unwrap();
        let r = interp
            .execute(&q.plan, &ExecOptions::default())
            .unwrap()
            .result
            .unwrap();
        let ns = r.column("n").unwrap().as_ints().unwrap().to_vec();
        assert!(ns.iter().all(|&n| n > 100), "{ns:?}");
        // Sorted descending by n.
        assert!(ns.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn q3_respects_limit() {
        let cat = Arc::new(generate_catalog(&TpchConfig::sf(0.001)));
        let interp = Interpreter::new(Arc::clone(&cat));
        let q = compile(&cat, Q3).unwrap();
        let r = interp
            .execute(&q.plan, &ExecOptions::default())
            .unwrap()
            .result
            .unwrap();
        assert!(r.rows() <= 10);
        // Revenue sorted descending.
        let rev = r.column("revenue").unwrap().as_dbls().unwrap().to_vec();
        assert!(rev.windows(2).all(|w| w[0] >= w[1]));
    }
}
