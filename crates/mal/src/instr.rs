//! MAL instructions.
//!
//! An instruction is one line of a plan listing:
//!
//! ```text
//! X_5:bat[:dbl] := algebra.leftjoin(X_23, X_10);
//! ```
//!
//! It has zero or more *result* variables, a `module.function` target, and
//! a list of arguments which are either variables or literals. The `pc`
//! (program counter) is the instruction's position in the plan; Stethoscope
//! maps trace events to dot-graph nodes through it (trace `pc=3` → node
//! `n3`, §3.3 of the paper).

use std::fmt;

use crate::plan::{Plan, VarId};
use crate::value::Value;

/// One argument of a MAL call.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Reference to a plan variable.
    Var(VarId),
    /// Inline literal.
    Lit(Value),
}

impl Arg {
    /// The variable id, if this argument is a variable.
    pub fn var(&self) -> Option<VarId> {
        match self {
            Arg::Var(v) => Some(*v),
            Arg::Lit(_) => None,
        }
    }

    /// The literal, if this argument is one.
    pub fn lit(&self) -> Option<&Value> {
        match self {
            Arg::Lit(v) => Some(v),
            Arg::Var(_) => None,
        }
    }
}

/// One MAL statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Position in the plan; also the trace/dot node id.
    pub pc: usize,
    /// Module part of the call target, e.g. `algebra`.
    pub module: String,
    /// Function part of the call target, e.g. `leftjoin`.
    pub function: String,
    /// Result variables (usually one; `group.group` style calls have more,
    /// `language.pass` has none).
    pub results: Vec<VarId>,
    /// Call arguments.
    pub args: Vec<Arg>,
}

impl Instruction {
    /// `module.function` as a single string.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.module, self.function)
    }

    /// Iterator over argument variable ids (skipping literals).
    pub fn arg_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.args.iter().filter_map(Arg::var)
    }

    /// True for plan bookkeeping instructions that carry no dataflow
    /// semantics of interest to the analyst (`language.pass`,
    /// `querylog.define`, `end`/`function` markers). The paper's §6 plans
    /// "selective pruning of unimportant administrative instructions";
    /// this predicate is what the pruning pass keys on.
    pub fn is_administrative(&self) -> bool {
        matches!(
            (self.module.as_str(), self.function.as_str()),
            ("language", "pass")
                | ("language", "dataflow")
                | ("querylog", "define")
                | ("mal", "function")
                | ("mal", "end")
        )
    }

    /// Render the statement text the way plan listings and traces show it,
    /// resolving variable names through `plan`.
    pub fn render(&self, plan: &Plan) -> String {
        let mut s = String::new();
        self.render_into(plan, &mut s);
        s
    }

    /// [`Self::render`], appended to `out`.
    pub fn render_into(&self, plan: &Plan, out: &mut String) {
        use fmt::Write as _;
        if !self.results.is_empty() {
            let many = self.results.len() > 1;
            if many {
                out.push('(');
            }
            for (i, r) in self.results.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let v = plan.var(*r);
                let _ = write!(out, "{}:{}", v.name, v.ty);
            }
            if many {
                out.push(')');
            }
            out.push_str(" := ");
        }
        out.push_str(&self.module);
        out.push('.');
        out.push_str(&self.function);
        out.push('(');
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match a {
                Arg::Var(v) => out.push_str(&plan.var(*v).name),
                Arg::Lit(v) => {
                    let _ = write!(out, "{v}");
                }
            }
        }
        out.push_str(");");
    }

    /// A short label for graph nodes: `module.function` only. Figure 2 of
    /// the paper shows large graphs where full statement text is unreadable;
    /// the dot writer lets callers choose between this and [`Self::render`].
    pub fn short_label(&self) -> String {
        self.qualified_name()
    }
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Var(v) => write!(f, "X_{}", v.0),
            Arg::Lit(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::types::MalType;

    #[test]
    fn render_single_result() {
        let mut b = PlanBuilder::new("user.s1_1");
        let x0 = b.new_var(MalType::bat(MalType::Int));
        let x1 = b.new_var(MalType::bat(MalType::Oid));
        b.push(
            "sql",
            "bind",
            vec![x0],
            vec![Arg::Lit(Value::Str("lineitem".into()))],
        );
        b.push(
            "algebra",
            "select",
            vec![x1],
            vec![Arg::Var(x0), Arg::Lit(Value::Int(1))],
        );
        let plan = b.finish();
        let text = plan.instructions[1].render(&plan);
        assert_eq!(text, "X_1:bat[:oid] := algebra.select(X_0, 1:int);");
    }

    #[test]
    fn render_multi_result_and_no_result() {
        let mut b = PlanBuilder::new("user.s1_1");
        let g = b.new_var(MalType::bat(MalType::Oid));
        let e = b.new_var(MalType::bat(MalType::Oid));
        let h = b.new_var(MalType::bat(MalType::Int));
        let c = b.new_var(MalType::bat(MalType::Int));
        b.push("group", "group", vec![g, e, h], vec![Arg::Var(c)]);
        b.push("language", "pass", vec![], vec![Arg::Var(c)]);
        let plan = b.finish();
        assert_eq!(
            plan.instructions[0].render(&plan),
            "(X_0:bat[:oid], X_1:bat[:oid], X_2:bat[:int]) := group.group(X_3);"
        );
        assert_eq!(plan.instructions[1].render(&plan), "language.pass(X_3);");
    }

    #[test]
    fn administrative_predicate() {
        let mk = |m: &str, f: &str| Instruction {
            pc: 0,
            module: m.into(),
            function: f.into(),
            results: vec![],
            args: vec![],
        };
        assert!(mk("language", "pass").is_administrative());
        assert!(mk("querylog", "define").is_administrative());
        assert!(!mk("algebra", "select").is_administrative());
    }

    #[test]
    fn arg_accessors() {
        let a = Arg::Var(VarId(3));
        assert_eq!(a.var(), Some(VarId(3)));
        assert!(a.lit().is_none());
        let l = Arg::Lit(Value::Int(5));
        assert_eq!(l.lit(), Some(&Value::Int(5)));
        assert!(l.var().is_none());
    }
}
