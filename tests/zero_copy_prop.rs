//! Cross-mode equivalence over 256 deterministically generated queries.
//!
//! * Zero-copy storage: each query runs in the default zero-copy mode
//!   and again with `set_force_copy(true)` (every slice/projection
//!   deep-copies, the storage layer's pre-shared-buffer behaviour). The
//!   two runs must produce byte-identical result sets and identical
//!   trace events — sharing buffers is a representation change, never a
//!   behaviour change.
//! * Execution mode: each query runs on the serial interpreter and on
//!   the dataflow scheduler with 2, 4 and 8 workers. Results must be
//!   byte-identical, trace events the same multiset, and failures of the
//!   same kind.
//! * Mitosis: generated grouped, DISTINCT and HAVING queries run
//!   partitioned k = 1..=8 ways, with mitosis's per-partition grouping
//!   forced through the pass's row count, and unpartitioned. Rows come
//!   out in the same order; int, str, oid and date cells are identical
//!   and dbl cells agree within [`DBL_REL_BOUND`], as merging partial
//!   sums reorders the additions. The dataflow scheduler runs each
//!   partitioned plan bit for bit like the serial interpreter.

use std::fmt::Write as _;
use std::mem::discriminant;
use std::sync::Arc;

use stethoscope::engine::rt::QueryResult;
use stethoscope::engine::{
    force_copy, set_force_copy, Catalog, EngineError, ExecOptions, Interpreter, ProfilerConfig,
    VecSink,
};
use stethoscope::mal::{Plan, Value};
use stethoscope::profiler::EventStatus;
use stethoscope::sql::opt::mitosis::GROUPED_MIN_ROWS;
use stethoscope::sql::opt::Pipeline;
use stethoscope::sql::{compile, compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, TpchConfig};

/// Deterministic split-mix style generator — no external crates, same
/// query set on every run and every host.
struct Lcg(u64);

impl Lcg {
    fn pick(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n
    }
}

const INT_COLS: [&str; 4] = ["l_partkey", "l_quantity", "l_suppkey", "l_linenumber"];
const DBL_COLS: [&str; 3] = ["l_extendedprice", "l_discount", "l_tax"];
const STR_COLS: [(&str, &str); 3] = [
    ("l_returnflag", "R"),
    ("l_linestatus", "F"),
    ("l_shipmode", "MAIL"),
];
const GROUP_COLS: [&str; 3] = ["l_returnflag", "l_linestatus", "l_shipmode"];
const CMP_OPS: [&str; 4] = ["<", "<=", ">", ">="];

/// Any predicate may appear under `or`, the date comparison included:
/// disjunctions lower to `batcalc` comparison masks, which compare
/// numbers, strings and dates.
fn predicate(rng: &mut Lcg) -> String {
    match rng.pick(5) {
        0 => {
            let col = INT_COLS[rng.pick(INT_COLS.len())];
            let op = CMP_OPS[rng.pick(CMP_OPS.len())];
            format!("{col} {op} {}", 1 + rng.pick(40))
        }
        1 => {
            let col = DBL_COLS[rng.pick(DBL_COLS.len())];
            let op = CMP_OPS[rng.pick(CMP_OPS.len())];
            format!("{col} {op} 0.0{}", 1 + rng.pick(8))
        }
        2 => {
            let (col, val) = STR_COLS[rng.pick(STR_COLS.len())];
            format!("{col} = '{val}'")
        }
        3 => {
            let lo = 1 + rng.pick(20);
            format!("l_quantity between {lo} and {}", lo + 1 + rng.pick(20))
        }
        _ => {
            let op = if rng.pick(2) == 0 { "<" } else { ">=" };
            format!("l_shipdate {op} date '1995-06-17'")
        }
    }
}

fn where_clause(rng: &mut Lcg) -> String {
    match rng.pick(3) {
        0 => predicate(rng),
        1 => format!("{} and {}", predicate(rng), predicate(rng)),
        _ => format!("{} or {}", predicate(rng), predicate(rng)),
    }
}

/// One generated query plus the mitosis degree to compile it with.
fn gen_query(rng: &mut Lcg) -> (String, usize) {
    let pred = where_clause(rng);
    let sql = match rng.pick(3) {
        // Plain projection.
        0 => {
            let a = INT_COLS[rng.pick(INT_COLS.len())];
            let b = DBL_COLS[rng.pick(DBL_COLS.len())];
            format!("select {a}, {b} from lineitem where {pred}")
        }
        // Scalar aggregate.
        1 => {
            let agg = match rng.pick(5) {
                0 => format!("sum({})", DBL_COLS[rng.pick(DBL_COLS.len())]),
                1 => format!("min({})", INT_COLS[rng.pick(INT_COLS.len())]),
                2 => format!("max({})", DBL_COLS[rng.pick(DBL_COLS.len())]),
                3 => format!("avg({})", DBL_COLS[rng.pick(DBL_COLS.len())]),
                _ => "count(*)".to_string(),
            };
            format!("select {agg} as v from lineitem where {pred}")
        }
        // Grouped aggregate with a deterministic output order.
        _ => {
            let g = GROUP_COLS[rng.pick(GROUP_COLS.len())];
            let d = DBL_COLS[rng.pick(DBL_COLS.len())];
            format!(
                "select {g}, count(*) as n, sum({d}) as s \
                 from lineitem where {pred} group by {g} order by {g}"
            )
        }
    };
    (sql, [1, 4][rng.pick(2)])
}

/// Byte-exact rendering of a result set: column names, and every cell
/// with doubles spelled as their IEEE-754 bit pattern so `0.1 + 0.2`
/// style drift cannot hide behind display rounding.
fn fingerprint(r: &QueryResult) -> String {
    let mut out = String::new();
    for (name, bat) in &r.columns {
        let _ = write!(out, "[{name}]");
        for i in 0..bat.len() {
            match bat.get(i) {
                Some(Value::Dbl(x)) => {
                    let _ = write!(out, "d{:016x};", x.to_bits());
                }
                Some(v) => {
                    let _ = write!(out, "{v:?};");
                }
                None => out.push_str("none;"),
            }
        }
        out.push('\n');
    }
    out
}

/// Execute profiled, serially when `workers` is 0 and on the dataflow
/// scheduler otherwise. The outcome is either the result fingerprint or
/// the error, plus the multiset of `(pc, status)` trace events. Some
/// generated predicates select zero rows and make scalar aggregates nil,
/// which `sql.resultSet` rejects — every mode must then fail the same
/// way, so errors are compared, not skipped.
fn run(
    interp: &Interpreter,
    plan: &stethoscope::mal::Plan,
    workers: usize,
) -> (Result<String, EngineError>, Vec<(usize, bool)>) {
    let sink = VecSink::new();
    let profiler = ProfilerConfig::to_sink(sink.clone());
    let opts = if workers == 0 {
        ExecOptions::profiled(profiler)
    } else {
        ExecOptions::parallel(workers, profiler)
    };
    let outcome = interp
        .execute(plan, &opts)
        .map(|out| fingerprint(&out.result.expect("result set")));
    let mut events: Vec<(usize, bool)> = sink
        .take()
        .iter()
        .map(|e| (e.pc, e.status == EventStatus::Start))
        .collect();
    events.sort_unstable();
    (outcome, events)
}

fn compile_case(catalog: &Catalog, case: usize, sql: &str, partitions: usize) -> Plan {
    if partitions <= 1 {
        compile(catalog, sql)
    } else {
        compile_with(catalog, sql, &CompileOptions::with_partitions(partitions))
    }
    .unwrap_or_else(|e| panic!("case {case} failed to compile: {sql}: {e}"))
    .plan
}

/// Resets the global copy mode even when an assertion unwinds, so a
/// failure here cannot poison other tests in this process.
struct CopyModeGuard;

impl Drop for CopyModeGuard {
    fn drop(&mut self) {
        set_force_copy(false);
    }
}

#[test]
fn zero_copy_matches_forced_copy_on_256_generated_queries() {
    let _guard = CopyModeGuard;
    let catalog = Arc::new(generate_catalog(&TpchConfig::sf(0.0005)));
    let interp = Interpreter::new(Arc::clone(&catalog));
    let mut rng = Lcg(0x005e_ed0f_2012);

    for case in 0..256 {
        let (sql, partitions) = gen_query(&mut rng);
        let plan = compile_case(&catalog, case, &sql, partitions);

        assert!(!force_copy());
        let (shared_fp, shared_events) = run(&interp, &plan, 0);
        set_force_copy(true);
        let (copied_fp, copied_events) = run(&interp, &plan, 0);
        set_force_copy(false);

        assert_eq!(
            shared_fp, copied_fp,
            "case {case}: results diverge between zero-copy and forced-copy\nsql: {sql}"
        );
        assert_eq!(
            shared_events, copied_events,
            "case {case}: trace events diverge\nsql: {sql}"
        );
    }
}

/// The serial interpreter and the dataflow scheduler release each
/// intermediate after its last reader by different mechanisms (a
/// last-reader pc versus a count of outstanding readers). Releasing too
/// early surfaces as `EngineError::Uninitialised` in one mode only.
#[test]
fn serial_matches_dataflow_on_256_generated_queries() {
    let catalog = Arc::new(generate_catalog(&TpchConfig::sf(0.0005)));
    let interp = Interpreter::new(Arc::clone(&catalog));
    let mut rng = Lcg(0x005e_ed0f_2012);

    for case in 0..256 {
        let (sql, partitions) = gen_query(&mut rng);
        let plan = compile_case(&catalog, case, &sql, partitions);
        let (serial_fp, serial_events) = run(&interp, &plan, 0);
        for workers in [2, 4, 8] {
            let (fp, events) = run(&interp, &plan, workers);
            match (&serial_fp, &fp) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(
                        want, got,
                        "case {case}: results diverge with {workers} workers\nsql: {sql}"
                    );
                    assert_eq!(
                        serial_events, events,
                        "case {case}: trace events diverge with {workers} workers\nsql: {sql}"
                    );
                }
                (Err(want), Err(got)) => assert_eq!(
                    discriminant(want),
                    discriminant(got),
                    "case {case}: error kinds diverge with {workers} workers: \
                     {want} vs {got}\nsql: {sql}"
                ),
                _ => panic!(
                    "case {case}: serial gave {serial_fp:?}, {workers} workers gave {fp:?}\nsql: {sql}"
                ),
            }
        }
    }
}

/// Relative bound on a dbl cell of a partitioned plan against the
/// unpartitioned one: `|a - b| <= DBL_REL_BOUND * max(|a|, |b|)`. Partial
/// sums add the same values in another order; the worst case seen on Q1
/// at SF 0.05 over 8 partitions is 1.1e-12 (`avg_disc`).
const DBL_REL_BOUND: f64 = 1e-9;

/// Grouping keys of the mitosis oracle: few groups (flags) and many
/// (dates, part keys), so groups recur across partitions and most
/// partitions also open groups of their own.
const KEY_COLS: [&str; 5] = [
    "l_returnflag",
    "l_linestatus",
    "l_linenumber",
    "l_shipdate",
    "l_suppkey",
];
/// Columns for `min`/`max`: int, dbl, str and date.
const ORD_COLS: [&str; 5] = [
    "l_quantity",
    "l_extendedprice",
    "l_shipmode",
    "l_shipdate",
    "l_tax",
];
const NUM_COLS: [&str; 5] = [
    "l_quantity",
    "l_partkey",
    "l_extendedprice",
    "l_discount",
    "l_tax",
];

/// One grouped, DISTINCT or HAVING query; half carry no ORDER BY, so the
/// groups' first-occurrence order is itself compared.
fn gen_grouped_query(rng: &mut Lcg) -> String {
    let pred = match rng.pick(3) {
        0 => String::new(),
        _ => format!(" where {}", where_clause(rng)),
    };
    let mut keys = vec![KEY_COLS[rng.pick(KEY_COLS.len())]];
    if rng.pick(2) == 0 {
        let second = KEY_COLS[rng.pick(KEY_COLS.len())];
        if second != keys[0] {
            keys.push(second);
        }
    }
    let keys = keys.join(", ");
    let order = if rng.pick(2) == 0 {
        format!(" order by {keys}")
    } else {
        String::new()
    };
    let num = |rng: &mut Lcg| NUM_COLS[rng.pick(NUM_COLS.len())];
    let ord = |rng: &mut Lcg| ORD_COLS[rng.pick(ORD_COLS.len())];
    match rng.pick(3) {
        0 => format!(
            "select {keys}, count(*) as n, sum({}) as s, avg({}) as a, min({}) as lo, \
             max({}) as hi from lineitem{pred} group by {keys}{order}",
            num(rng),
            num(rng),
            ord(rng),
            ord(rng)
        ),
        1 => format!("select distinct {keys} from lineitem{pred}{order}"),
        _ => format!(
            "select {keys}, sum({}) as s, avg({}) as a from lineitem{pred} \
             group by {keys} having count(*) > {}{order}",
            num(rng),
            num(rng),
            rng.pick(4)
        ),
    }
}

/// Every cell of `got` against `want`: dbl within [`DBL_REL_BOUND`],
/// anything else identical, in the same row order.
fn assert_matches_unpartitioned(want: &QueryResult, got: &QueryResult, what: &str) {
    let names = |r: &QueryResult| r.columns.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(want), names(got), "{what}: columns");
    for ((name, w), (_, g)) in want.columns.iter().zip(&got.columns) {
        assert_eq!(w.len(), g.len(), "{what}: rows of {name}");
        for i in 0..w.len() {
            match (w.get(i), g.get(i)) {
                (Some(Value::Dbl(a)), Some(Value::Dbl(b))) => assert!(
                    (a - b).abs() <= DBL_REL_BOUND * a.abs().max(b.abs()),
                    "{what}: {name}[{i}] {a} vs {b}"
                ),
                (a, b) => assert_eq!(a, b, "{what}: {name}[{i}]"),
            }
        }
    }
}

#[test]
fn mitosis_matches_unpartitioned_plan_on_generated_grouped_queries() {
    let catalog = Arc::new(generate_catalog(&TpchConfig::sf(0.0005)));
    let interp = Interpreter::new(Arc::clone(&catalog));
    let mut rng = Lcg(0x0006_0f1e_2012);
    let mut rewritten = 0;

    for case in 0..64 {
        let sql = gen_grouped_query(&mut rng);
        let want = interp
            .execute(
                &compile_case(&catalog, case, &sql, 1),
                &ExecOptions::default(),
            )
            .unwrap_or_else(|e| panic!("case {case}: unpartitioned plan failed: {e}\nsql: {sql}"))
            .result
            .expect("result set");
        let unoptimized = compile_with(
            &catalog,
            &sql,
            &CompileOptions {
                skip_optimizers: true,
                ..CompileOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("case {case} failed to compile: {sql}: {e}"))
        .unoptimized;
        for k in 1..=8 {
            // The small catalog sits below the gate; force the rewrite.
            let (plan, _) = Pipeline::default_pipeline(k, GROUPED_MIN_ROWS * k)
                .run(&unoptimized)
                .unwrap_or_else(|e| panic!("case {case} at {k} partitions: {e}\nsql: {sql}"));
            let groups = plan
                .instructions
                .iter()
                .filter(|i| i.qualified_name() == "group.group")
                .count();
            if k > 1 && groups > 1 {
                rewritten += 1;
            }
            let got = interp
                .execute(&plan, &ExecOptions::default())
                .unwrap_or_else(|e| panic!("case {case} at {k} partitions: {e}\nsql: {sql}"))
                .result
                .expect("result set");
            assert_matches_unpartitioned(&want, &got, &format!("case {case}, k={k}, sql: {sql}"));
            // The summation order is fixed by the plan, so the scheduler
            // reproduces the serial bits; one k per case keeps this cheap.
            if k == 2 + case % 7 {
                let (serial, serial_events) = run(&interp, &plan, 0);
                for workers in [2, 4, 8] {
                    let (fp, events) = run(&interp, &plan, workers);
                    assert_eq!(
                        serial.as_ref().ok(),
                        fp.as_ref().ok(),
                        "case {case}, k={k}: results diverge with {workers} workers\nsql: {sql}"
                    );
                    assert_eq!(
                        serial_events, events,
                        "case {case}, k={k}, {workers} workers"
                    );
                }
            }
        }
    }
    // Every case groups over region columns, so each partitioned plan
    // takes the rewrite.
    assert_eq!(
        rewritten,
        64 * 7,
        "partitioned plans that grouped per partition"
    );
}
