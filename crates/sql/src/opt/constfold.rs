//! Constant folding: `calc.*` calls whose arguments are all literals are
//! evaluated at optimization time and their uses replaced by the literal
//! result.

use std::collections::HashMap;

use stetho_mal::{Arg, Plan, PlanBuilder, Value};

use super::Pass;
use crate::error::SqlError;
use crate::Result;

/// The constant-folding pass.
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }

    fn run(&self, plan: &Plan) -> Result<Plan> {
        let mut b = PlanBuilder::new(plan.name.clone());
        // old var id -> replacement argument in the new plan.
        let mut map: HashMap<usize, Arg> = HashMap::new();
        for ins in &plan.instructions {
            let args: Vec<Arg> = ins
                .args
                .iter()
                .map(|a| match a {
                    Arg::Var(v) => map.get(&v.0).cloned().unwrap_or(a.clone()),
                    lit => lit.clone(),
                })
                .collect();

            // Foldable: calc.* with literal args and one result.
            if ins.module == "calc"
                && ins.results.len() == 1
                && args.iter().all(|a| matches!(a, Arg::Lit(_)))
            {
                let lits: Vec<&Value> = args
                    .iter()
                    .map(|a| match a {
                        Arg::Lit(v) => v,
                        Arg::Var(_) => unreachable!("checked literal"),
                    })
                    .collect();
                if let Some(v) = eval_calc(&ins.function, &lits) {
                    map.insert(ins.results[0].0, Arg::Lit(v));
                    continue;
                }
            }

            let results: Vec<_> = ins
                .results
                .iter()
                .map(|r| {
                    let nv = b.new_named_var(plan.var(*r).name.clone(), plan.var(*r).ty.clone());
                    map.insert(r.0, Arg::Var(nv));
                    nv
                })
                .collect();
            b.push(ins.module.clone(), ins.function.clone(), results, args);
        }
        let out = b.finish();
        out.validate()
            .map_err(|e| SqlError::Semantic(format!("constfold broke the plan: {e}")))?;
        Ok(out)
    }
}

fn eval_calc(function: &str, args: &[&Value]) -> Option<Value> {
    match (function, args) {
        ("identity", [v]) => Some((*v).clone()),
        ("+" | "-" | "*" | "/", [a, b]) => {
            if let (Value::Int(x), Value::Int(y)) = (a, b) {
                return match function {
                    "+" => Some(Value::Int(x.wrapping_add(*y))),
                    "-" => Some(Value::Int(x.wrapping_sub(*y))),
                    "*" => Some(Value::Int(x.wrapping_mul(*y))),
                    _ => (*y != 0).then(|| Value::Int(x / y)),
                };
            }
            let x = a.as_dbl()?;
            let y = b.as_dbl()?;
            match function {
                "+" => Some(Value::Dbl(x + y)),
                "-" => Some(Value::Dbl(x - y)),
                "*" => Some(Value::Dbl(x * y)),
                _ => (y != 0.0).then(|| Value::Dbl(x / y)),
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_mal::parse_plan;

    #[test]
    fn folds_literal_arithmetic() {
        let plan = parse_plan(
            "X_0:int := calc.+(2:int, 3:int);\n\
             X_1:int := calc.*(X_0, 4:int);\n\
             io.print(X_1);\n",
        )
        .unwrap();
        let out = ConstFold.run(&plan).unwrap();
        assert_eq!(out.len(), 1);
        let lit = out.instructions[0].args[0].lit().unwrap();
        assert_eq!(lit.as_int(), Some(20));
    }

    #[test]
    fn folds_doubles() {
        let plan = parse_plan("X_0:dbl := calc.-(1.0:dbl, 0.25:dbl);\nio.print(X_0);\n").unwrap();
        let out = ConstFold.run(&plan).unwrap();
        assert_eq!(
            out.instructions[0].args[0].lit().unwrap().as_dbl(),
            Some(0.75)
        );
    }

    #[test]
    fn division_by_zero_left_in_place() {
        let plan = parse_plan("X_0:int := calc./(1:int, 0:int);\nio.print(X_0);\n").unwrap();
        let out = ConstFold.run(&plan).unwrap();
        // Not folded — fails at run time like the unoptimized plan would.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn non_constant_calls_untouched() {
        let plan = parse_plan(
            "X_0:int := sql.mvc();\n\
             X_1:int := calc.+(X_0, 1:int);\n\
             io.print(X_1);\n",
        )
        .unwrap();
        let out = ConstFold.run(&plan).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn identity_folds() {
        let plan = parse_plan("X_0:str := calc.identity(\"x\");\nio.print(X_0);\n").unwrap();
        let out = ConstFold.run(&plan).unwrap();
        assert_eq!(out.len(), 1);
    }
}
