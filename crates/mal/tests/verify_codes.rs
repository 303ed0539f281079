//! At least one test per verifier diagnostic code (MC001–MC031): each
//! builds the minimal malformed plan that triggers that code and asserts
//! the report contains it — and, for error codes, nothing else at error
//! severity. Typed rules with a shape of their own (arithmetic tail
//! promotion, oid group ids) get a case each.

use stetho_mal::{Arg, Code, MalType, Plan, PlanBuilder, Value, VarId, VerifyReport};

/// Distinct error codes in the report, for "exactly this code" asserts.
fn error_codes(report: &VerifyReport) -> Vec<Code> {
    let mut codes: Vec<Code> = report.errors().map(|d| d.code).collect();
    codes.sort();
    codes.dedup();
    codes
}

fn verify(plan: &Plan) -> VerifyReport {
    plan.verify()
}

#[test]
fn mc001_non_dense_pc() {
    let mut b = PlanBuilder::new("user.bad");
    b.call("sql", "mvc", MalType::Int, vec![]);
    let mut plan = b.finish();
    plan.instructions[0].pc = 7;
    let report = verify(&plan);
    assert_eq!(error_codes(&report), vec![Code::NonDensePc]);
    let d = report.with_code(Code::NonDensePc).next().unwrap();
    assert_eq!(d.pc, Some(0));
}

#[test]
fn mc002_redefinition() {
    let mut b = PlanBuilder::new("user.bad");
    let v = b.new_var(MalType::Int);
    b.push("sql", "mvc", vec![v], vec![]);
    b.push("sql", "mvc", vec![v], vec![]);
    let report = verify(&b.finish());
    assert_eq!(error_codes(&report), vec![Code::Redefinition]);
    let d = report.with_code(Code::Redefinition).next().unwrap();
    assert_eq!(d.pc, Some(1));
    assert_eq!(d.var, Some(v));
}

#[test]
fn mc003_use_before_def() {
    let mut b = PlanBuilder::new("user.bad");
    let v = b.new_var(MalType::Int);
    let w = b.new_var(MalType::Int);
    // w consumes v one statement before v is defined.
    b.push("calc", "identity", vec![w], vec![Arg::Var(v)]);
    b.push("sql", "mvc", vec![v], vec![]);
    let report = verify(&b.finish());
    assert_eq!(error_codes(&report), vec![Code::UseBeforeDef]);
    let d = report.with_code(Code::UseBeforeDef).next().unwrap();
    assert_eq!(d.pc, Some(0));
    assert_eq!(d.var, Some(v));
}

#[test]
fn mc004_undefined_var() {
    let mut b = PlanBuilder::new("user.bad");
    let v = b.new_var(MalType::Int);
    // v is minted in the variable table but no instruction defines it.
    b.push("io", "print", vec![], vec![Arg::Var(v)]);
    let report = verify(&b.finish());
    assert_eq!(error_codes(&report), vec![Code::UndefinedVar]);
}

#[test]
fn mc005_var_out_of_range() {
    let mut b = PlanBuilder::new("user.bad");
    let v = b.call("sql", "mvc", MalType::Int, vec![]);
    b.push("io", "print", vec![], vec![Arg::Var(v)]);
    let mut plan = b.finish();
    plan.instructions[1].args.push(Arg::Var(VarId(99)));
    let report = verify(&plan);
    assert_eq!(error_codes(&report), vec![Code::VarOutOfRange]);
}

#[test]
fn mc006_stale_def_site() {
    let mut b = PlanBuilder::new("user.bad");
    let v = b.new_var(MalType::Int);
    let w = b.new_var(MalType::Int);
    b.push("sql", "mvc", vec![v], vec![]);
    b.push("sql", "mvc", vec![w], vec![]);
    let mut plan = b.finish();
    // Swap the defining instructions without updating the variable table.
    let r0 = plan.instructions[0].results.clone();
    plan.instructions[0].results = plan.instructions[1].results.clone();
    plan.instructions[1].results = r0;
    let report = verify(&plan);
    assert_eq!(error_codes(&report), vec![Code::StaleDefSite]);
    assert_eq!(report.with_code(Code::StaleDefSite).count(), 2);
}

#[test]
fn mc010_unknown_function() {
    let mut b = PlanBuilder::new("user.bad");
    b.push("frobnicate", "spin", vec![], vec![]);
    let report = verify(&b.finish());
    assert_eq!(error_codes(&report), vec![Code::UnknownFunction]);
}

#[test]
fn mc011_bad_arity() {
    let mut b = PlanBuilder::new("user.bad");
    let v = b.new_var(MalType::Int);
    // sql.mvc takes no arguments.
    b.push("sql", "mvc", vec![v], vec![Arg::Lit(Value::Int(1))]);
    let report = verify(&b.finish());
    assert_eq!(error_codes(&report), vec![Code::BadArity]);
}

#[test]
fn mc012_bad_result_count() {
    let mut b = PlanBuilder::new("user.bad");
    // sql.mvc produces one result; none are bound.
    b.push("sql", "mvc", vec![], vec![]);
    let report = verify(&b.finish());
    assert_eq!(error_codes(&report), vec![Code::BadResultCount]);
}

#[test]
fn mc013_arg_type_mismatch() {
    let mut b = PlanBuilder::new("user.bad");
    let b1 = b.call("bat", "new", MalType::bat(MalType::Int), vec![]);
    let b2 = b.call("bat", "new", MalType::bat(MalType::Int), vec![]);
    // projection's first argument must be a candidate list (bat[:oid]).
    let p = b.call(
        "algebra",
        "projection",
        MalType::bat(MalType::Int),
        vec![Arg::Var(b1), Arg::Var(b2)],
    );
    b.push("io", "print", vec![], vec![Arg::Var(p)]);
    let report = verify(&b.finish());
    assert_eq!(error_codes(&report), vec![Code::ArgTypeMismatch]);
}

#[test]
fn mc014_result_type_mismatch() {
    let mut b = PlanBuilder::new("user.bad");
    let m = b.call("sql", "mvc", MalType::Int, vec![]);
    // sql.tid yields a candidate list, never bat[:int].
    let t = b.call(
        "sql",
        "tid",
        MalType::bat(MalType::Int),
        vec![
            Arg::Var(m),
            Arg::Lit(Value::Str("sys".into())),
            Arg::Lit(Value::Str("t".into())),
        ],
    );
    b.push("io", "print", vec![], vec![Arg::Var(t)]);
    let report = verify(&b.finish());
    assert_eq!(error_codes(&report), vec![Code::ResultTypeMismatch]);
}

#[test]
fn mc013_grouping_ids_must_be_oids() {
    // group.subgroup refines oid group ids, and a grouped aggregate
    // reads oid group ids and extents; an int BAT in either slot is a
    // type error.
    let mut b = PlanBuilder::new("user.bad");
    let col = b.call("bat", "new", MalType::bat(MalType::Int), vec![]);
    let (g, e, h) = (
        b.new_var(MalType::bat(MalType::Oid)),
        b.new_var(MalType::bat(MalType::Oid)),
        b.new_var(MalType::bat(MalType::Int)),
    );
    b.push(
        "group",
        "subgroup",
        vec![g, e, h],
        vec![Arg::Var(col), Arg::Var(col)],
    );
    let s = b.call(
        "aggr",
        "subsum",
        MalType::bat(MalType::Int),
        vec![Arg::Var(col), Arg::Var(g), Arg::Var(h)],
    );
    b.push("io", "print", vec![], vec![Arg::Var(s), Arg::Var(e)]);
    let plan = b.finish();
    let report = verify(&plan);
    assert_eq!(error_codes(&report), vec![Code::ArgTypeMismatch]);
    let pcs: Vec<Option<usize>> = report.errors().map(|d| d.pc).collect();
    assert_eq!(pcs, vec![Some(1), Some(2)], "{}", report.render(&plan));
}

#[test]
fn mc014_arith_tail_follows_promotion() {
    // batcalc arithmetic stays int over ints; one dbl side makes it dbl.
    let mut b = PlanBuilder::new("user.bad");
    let ints = b.call("bat", "new", MalType::bat(MalType::Int), vec![]);
    let dbls = b.call("bat", "new", MalType::bat(MalType::Dbl), vec![]);
    let ok = b.call(
        "batcalc",
        "/",
        MalType::bat(MalType::Dbl),
        vec![Arg::Var(dbls), Arg::Var(ints)],
    );
    let bad = b.call(
        "batcalc",
        "*",
        MalType::bat(MalType::Int),
        vec![Arg::Lit(Value::Dbl(2.0)), Arg::Var(ints)],
    );
    b.push("io", "print", vec![], vec![Arg::Var(ok), Arg::Var(bad)]);
    let plan = b.finish();
    let report = verify(&plan);
    assert_eq!(error_codes(&report), vec![Code::ResultTypeMismatch]);
    let d = report.with_code(Code::ResultTypeMismatch).next().unwrap();
    assert_eq!(d.pc, Some(3));
    assert!(d.message.contains("expected bat[:dbl]"), "{}", d.message);
}

#[test]
fn mc020_dataflow_cycle() {
    let mut b = PlanBuilder::new("user.bad");
    let v = b.new_var(MalType::Int);
    let w = b.new_var(MalType::Int);
    // v and w each wait on the other: the smallest two-node cycle.
    b.push("calc", "identity", vec![w], vec![Arg::Var(v)]);
    b.push("calc", "identity", vec![v], vec![Arg::Var(w)]);
    let report = verify(&b.finish());
    assert!(
        report.has_code(Code::DataflowCycle),
        "{:?}",
        report.diagnostics
    );
    // A cycle necessarily contains a use-before-def; both are reported.
    assert!(report.has_code(Code::UseBeforeDef));
}

#[test]
fn mc021_dead_instruction() {
    let mut b = PlanBuilder::new("user.lint");
    b.call("sql", "mvc", MalType::Int, vec![]);
    let report = verify(&b.finish());
    assert!(report.is_clean(), "dead code is a warning, not an error");
    assert!(report.has_code(Code::DeadInstruction));
}

#[test]
fn mc030_unordered_mutation() {
    let mut b = PlanBuilder::new("user.lint");
    let bat = b.call("bat", "new", MalType::bat(MalType::Int), vec![]);
    let r1 = b.call(
        "bat",
        "append",
        MalType::bat(MalType::Int),
        vec![Arg::Var(bat), Arg::Lit(Value::Int(1))],
    );
    let r2 = b.call(
        "bat",
        "append",
        MalType::bat(MalType::Int),
        vec![Arg::Var(bat), Arg::Lit(Value::Int(2))],
    );
    b.push("io", "print", vec![], vec![Arg::Var(r1), Arg::Var(r2)]);
    let report = verify(&b.finish());
    assert!(report.is_clean());
    assert!(
        report.has_code(Code::UnorderedMutation),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn mc031_sequential_mitosis() {
    let mut b = PlanBuilder::new("user.lint");
    let bat = b.call("bat", "new", MalType::bat(MalType::Int), vec![]);
    // mat.pack marks a partitioned plan, yet the graph is a pure chain.
    let p = b.call(
        "mat",
        "pack",
        MalType::bat(MalType::Int),
        vec![Arg::Var(bat)],
    );
    b.push("io", "print", vec![], vec![Arg::Var(p)]);
    let report = verify(&b.finish());
    assert!(report.is_clean());
    assert!(
        report.has_code(Code::SequentialMitosis),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn codes_render_with_stable_names() {
    assert_eq!(Code::NonDensePc.as_str(), "MC001");
    assert_eq!(Code::StaleDefSite.as_str(), "MC006");
    assert_eq!(Code::ResultTypeMismatch.as_str(), "MC014");
    assert_eq!(Code::SequentialMitosis.as_str(), "MC031");
    // Rendered reports carry the code in brackets.
    let mut b = PlanBuilder::new("user.bad");
    let v = b.new_var(MalType::Int);
    b.push("sql", "mvc", vec![v], vec![]);
    b.push("sql", "mvc", vec![v], vec![]);
    let plan = b.finish();
    let text = plan.verify().render(&plan);
    assert!(text.contains("error[MC002]"), "{text}");
    assert!(text.contains("1 |"), "statement gutter present: {text}");
}
