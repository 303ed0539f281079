//! The MAL optimizer pipeline.
//!
//! "Subsequently, optimizers work on the generated MAL plan to derive an
//! optimized MAL plan" (paper §2). Passes rewrite whole plans:
//!
//! * [`constfold`] — evaluate `calc.*` over literals at compile time;
//! * [`cse`] — common subexpression elimination over pure operators;
//! * [`deadcode`] — drop instructions whose results are never used;
//! * [`mitosis`] — range-partition the scan pipeline over N partitions,
//!   cloning the dependent operator chain per partition and packing the
//!   partitions back with `mat.pack` (or, for aggregates, combining
//!   per-partition partials). This is what turns a Figure-1 plan
//!   into a Figure-2 scale graph and what the engine's dataflow
//!   scheduler parallelises across cores.

pub mod constfold;
pub mod cse;
pub mod deadcode;
pub mod mitosis;

use stetho_mal::Plan;

use crate::Result;

/// One optimizer pass.
pub trait Pass {
    /// Pass name shown in pipeline logs.
    fn name(&self) -> &'static str;
    /// Rewrite the plan.
    fn run(&self, plan: &Plan) -> Result<Plan>;
}

/// Record of one pass application.
#[derive(Debug, Clone, PartialEq)]
pub struct PassInfo {
    /// Pass name.
    pub name: &'static str,
    /// Instructions before.
    pub before: usize,
    /// Instructions after.
    pub after: usize,
}

/// An ordered optimizer pipeline.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// Build from passes.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> Self {
        Pipeline { passes }
    }

    /// The default pipeline. `partitions > 1` enables mitosis;
    /// `table_rows` is the row count of the table under the plan's first
    /// `sql.tid` ([`mitosis::scanned_rows`]), which gates mitosis's
    /// per-partition grouping.
    pub fn default_pipeline(partitions: usize, table_rows: usize) -> Self {
        let mut passes: Vec<Box<dyn Pass>> = vec![
            Box::new(constfold::ConstFold),
            Box::new(cse::Cse),
            Box::new(deadcode::DeadCode),
        ];
        if partitions > 1 {
            passes.push(Box::new(mitosis::Mitosis {
                partitions,
                table_rows,
            }));
            // Mitosis clones shared sub-chains; clean up after it.
            passes.push(Box::new(cse::Cse));
            passes.push(Box::new(deadcode::DeadCode));
        }
        Pipeline::new(passes)
    }

    /// Run all passes, returning the final plan and a per-pass log.
    ///
    /// In debug builds every pass runs under post-pass verification
    /// ([`Plan::verify`]): if the input plan was verifier-clean and a
    /// pass's output is not, the pipeline aborts with
    /// [`crate::SqlError::Miscompile`] naming the offending pass. The
    /// check is skipped when the *input* already carried errors, so a
    /// deliberately broken plan blames its producer, not the optimizer.
    pub fn run(&self, plan: &Plan) -> Result<(Plan, Vec<PassInfo>)> {
        let mut current = plan.clone();
        #[cfg(debug_assertions)]
        let input_clean = current.verify().is_clean();
        let mut log = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let before = current.len();
            current = pass.run(&current)?;
            current.validate().map_err(|e| {
                crate::SqlError::Semantic(format!(
                    "optimizer pass {} produced an invalid plan: {e}",
                    pass.name()
                ))
            })?;
            #[cfg(debug_assertions)]
            if input_clean {
                let report = current.verify();
                if !report.is_clean() {
                    return Err(crate::SqlError::Miscompile {
                        pass: pass.name(),
                        report: report.render(&current),
                    });
                }
            }
            log.push(PassInfo {
                name: pass.name(),
                before,
                after: current.len(),
            });
        }
        Ok((current, log))
    }
}

/// Is this operator free of side effects (safe to deduplicate or drop)?
/// Delegates to the shared classification the static verifier uses, so
/// the optimizer and the linter can never disagree about purity.
pub(crate) fn is_pure(module: &str, function: &str) -> bool {
    stetho_mal::modules::is_pure(module, function)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_mal::parse_plan;

    #[test]
    fn pipeline_runs_and_logs() {
        let plan =
            parse_plan("X_0:int := calc.+(1:int, 2:int);\nX_1:int := sql.mvc();\nio.print(X_1);\n")
                .unwrap();
        let (out, log) = Pipeline::default_pipeline(1, 0).run(&plan).unwrap();
        assert_eq!(log.len(), 3);
        // calc.+ folded then dead-coded away.
        assert!(out.len() < plan.len());
        assert!(out
            .instructions
            .iter()
            .all(|i| i.qualified_name() != "calc.+"));
    }

    #[test]
    fn purity_classification() {
        assert!(is_pure("algebra", "select"));
        assert!(is_pure("sql", "bind"));
        assert!(!is_pure("sql", "resultSet"));
        assert!(!is_pure("io", "print"));
        assert!(!is_pure("alarm", "sleep"));
        assert!(!is_pure("language", "pass"));
    }
}
