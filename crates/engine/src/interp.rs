//! The MAL interpreter.
//!
//! "The final MAL plan is then interpreted" (paper §2). The interpreter
//! walks the plan, evaluates each instruction through [`crate::ops`], and
//! brackets every instruction with the `start`/`done` profiler events of
//! §3.3. [`ExecOptions::parallel`] switches to the dataflow scheduler in
//! [`crate::scheduler`], which is the multi-core execution whose
//! "degree of multi-threaded parallelization" the Stethoscope demo
//! analyses.
//!
//! Both execution paths give every query a bounded working set: a
//! variable's value is released as soon as its last reader has finished
//! (right after its definition when nothing reads it), and the release is
//! subtracted from the live bytes that the trace's `rss` field reports —
//! the way MonetDB's server frees a BAT once its last reader has run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stetho_mal::{Arg, Instruction, Plan};
use stetho_profiler::TraceEvent;

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::ops;
use crate::profile::ProfilerConfig;
use crate::rt::{ExecCtx, QueryResult, RuntimeValue};
use crate::scheduler;
use crate::Result;

/// Execution options for one query.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Run independent instructions on a worker pool.
    pub parallel: bool,
    /// Worker count for parallel execution (0 = available cores).
    pub workers: usize,
    /// Profiler configuration.
    pub profiler: ProfilerConfig,
    /// Self-observability registry. When set, the dataflow scheduler
    /// publishes per-worker executed/stolen/park counters and a queue
    /// depth gauge into it (`stetho_scheduler_*`).
    pub metrics: Option<Arc<stetho_obsv::Registry>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallel: false,
            workers: 0,
            profiler: ProfilerConfig::off(),
            metrics: None,
        }
    }
}

impl ExecOptions {
    /// Sequential, profiled.
    pub fn profiled(profiler: ProfilerConfig) -> Self {
        ExecOptions {
            profiler,
            ..Default::default()
        }
    }

    /// Parallel with `workers` threads, profiled.
    pub fn parallel(workers: usize, profiler: ProfilerConfig) -> Self {
        ExecOptions {
            parallel: true,
            workers,
            profiler,
            ..Default::default()
        }
    }

    /// Publish scheduler metrics into `registry` during execution.
    pub fn with_metrics(mut self, registry: Arc<stetho_obsv::Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Effective worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        }
    }
}

/// Outcome of executing a plan.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Result set, if the plan called `sql.resultSet`.
    pub result: Option<QueryResult>,
    /// Lines printed by `io.print`.
    pub printed: Vec<String>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Events emitted (pre-filter).
    pub events: u64,
}

/// Shared per-query execution state used by both execution modes.
pub(crate) struct QueryRun {
    pub ctx: ExecCtx,
    pub profiler: ProfilerConfig,
    pub started: Instant,
    pub event_seq: AtomicU64,
    /// Running estimate of live BAT bytes, feeding the rss field: added
    /// when an instruction produces a value, subtracted when the value is
    /// released.
    pub live_bytes: AtomicU64,
}

impl QueryRun {
    pub fn new(catalog: Arc<Catalog>, profiler: ProfilerConfig) -> Self {
        QueryRun {
            ctx: ExecCtx::new(catalog),
            profiler,
            started: Instant::now(),
            event_seq: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
        }
    }

    pub fn clk(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// rss in KiB: a base working set plus live BAT bytes.
    pub fn rss_kib(&self) -> u64 {
        1024 + self.live_bytes.load(Ordering::Relaxed) / 1024
    }

    /// Drop a variable's value after its last reader: it leaves the live
    /// bytes the trace `rss` reports.
    pub fn release(&self, value: Option<RuntimeValue>) {
        if let Some(v) = value {
            self.live_bytes
                .fetch_sub(v.bytes() as u64, Ordering::Relaxed);
        }
    }

    pub fn emit_start(&self, ins_pc: usize, thread: usize, stmt: &str) -> u64 {
        let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
        self.profiler.emit(&TraceEvent::start(
            seq,
            ins_pc,
            thread,
            self.clk(),
            self.rss_kib(),
            stmt,
        ));
        seq
    }

    pub fn emit_done(&self, ins_pc: usize, thread: usize, usec: u64, stmt: &str) {
        let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
        self.profiler.emit(&TraceEvent::done(
            seq,
            ins_pc,
            thread,
            self.clk(),
            usec,
            self.rss_kib(),
            stmt,
        ));
    }

    /// Execute one instruction against an argument fetcher, returning the
    /// result values. Used by both the sequential and parallel paths.
    pub fn run_instruction(
        &self,
        ins: &Instruction,
        fetch: impl Fn(usize) -> Result<RuntimeValue>,
        stmt: &str,
        thread: usize,
    ) -> Result<Vec<RuntimeValue>> {
        let mut args = Vec::with_capacity(ins.args.len());
        for a in &ins.args {
            match a {
                Arg::Var(v) => args.push(fetch(v.0)?),
                Arg::Lit(l) => args.push(RuntimeValue::Scalar(l.clone())),
            }
        }
        self.emit_start(ins.pc, thread, stmt);
        let t0 = Instant::now();
        let out = ops::execute(&ins.module, &ins.function, &args, &self.ctx);
        let usec = t0.elapsed().as_micros() as u64;
        match out {
            Ok(values) => {
                let added: usize = values.iter().map(RuntimeValue::bytes).sum();
                self.live_bytes.fetch_add(added as u64, Ordering::Relaxed);
                self.emit_done(ins.pc, thread, usec, stmt);
                if values.len() != ins.results.len() {
                    return Err(EngineError::Arity {
                        op: ins.qualified_name(),
                        msg: format!(
                            "operator produced {} values for {} result variables",
                            values.len(),
                            ins.results.len()
                        ),
                    });
                }
                Ok(values)
            }
            Err(e) => Err(e),
        }
    }
}

/// The query interpreter bound to a catalog.
#[derive(Clone)]
pub struct Interpreter {
    catalog: Arc<Catalog>,
}

impl Interpreter {
    /// Interpreter over a catalog.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Interpreter { catalog }
    }

    /// The catalog queries run against.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Execute a plan with the given options.
    pub fn execute(&self, plan: &Plan, opts: &ExecOptions) -> Result<ExecOutcome> {
        plan.validate()
            .map_err(|e| EngineError::Other(e.to_string()))?;
        let run = QueryRun::new(Arc::clone(&self.catalog), opts.profiler.clone());
        let started = Instant::now();
        let ran = if opts.parallel {
            scheduler::run_dataflow(
                plan,
                &run,
                opts.effective_workers(),
                opts.metrics.as_deref(),
            )
        } else {
            self.run_sequential(plan, &run)
        };
        // A failed run flushes too: the events before the failure, the
        // held-back `done`s among them, are the trace of what ran.
        opts.profiler.sink.flush();
        ran?;
        let printed = std::mem::take(&mut *run.ctx.printed.lock());
        Ok(ExecOutcome {
            result: run.ctx.take_result(),
            printed,
            elapsed: started.elapsed(),
            events: run.event_seq.load(Ordering::Relaxed),
        })
    }

    fn run_sequential(&self, plan: &Plan, run: &QueryRun) -> Result<()> {
        let stmts = plan.stmt_texts();
        let dead = dead_after(plan);
        let mut env: Vec<Option<RuntimeValue>> = vec![None; plan.var_count()];
        for ins in &plan.instructions {
            let values = run.run_instruction(
                ins,
                |v| {
                    env[v].clone().ok_or_else(|| {
                        EngineError::Uninitialised(plan.var(stetho_mal::VarId(v)).name.clone())
                    })
                },
                &stmts[ins.pc],
                0,
            )?;
            for (r, v) in ins.results.iter().zip(values) {
                env[r.0] = Some(v);
            }
            for &v in &dead[ins.pc] {
                run.release(env[v].take());
            }
        }
        Ok(())
    }
}

/// Per pc, the variables that are dead once that instruction has run:
/// those it is the last reader of, and those it defines that nothing
/// reads.
fn dead_after(plan: &Plan) -> Vec<Vec<usize>> {
    let mut last = vec![None; plan.var_count()];
    for ins in &plan.instructions {
        for v in ins.results.iter().copied().chain(ins.arg_vars()) {
            last[v.0] = Some(ins.pc);
        }
    }
    let mut dead = vec![Vec::new(); plan.len()];
    for (v, pc) in last.into_iter().enumerate() {
        if let Some(pc) = pc {
            dead[pc].push(v);
        }
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::Bat;
    use crate::catalog::TableDef;
    use crate::profile::VecSink;
    use stetho_mal::{parse_plan, MalType};
    use stetho_profiler::EventStatus;

    fn catalog() -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.add_table(
            TableDef::new(
                "lineitem",
                vec![
                    (
                        "l_partkey".into(),
                        MalType::Int,
                        Bat::ints(vec![1, 2, 1, 3, 1]),
                    ),
                    (
                        "l_tax".into(),
                        MalType::Dbl,
                        Bat::dbls(vec![0.01, 0.02, 0.03, 0.04, 0.05]),
                    ),
                ],
            )
            .unwrap(),
        );
        Arc::new(c)
    }

    /// The paper's Figure-1 query, hand-compiled:
    /// `select l_tax from lineitem where l_partkey = 1`.
    fn figure1_plan() -> Plan {
        parse_plan(
            r#"
function user.s1_1();
    X_0:int := sql.mvc();
    X_1:bat[:oid] := sql.tid(X_0, "sys", "lineitem");
    X_2:bat[:int] := sql.bind(X_0, "sys", "lineitem", "l_partkey", 0:int);
    X_3:bat[:oid] := algebra.select(X_2, X_1, 1:int, 1:int, true:bit);
    X_4:bat[:dbl] := sql.bind(X_0, "sys", "lineitem", "l_tax", 0:int);
    X_5:bat[:dbl] := algebra.projection(X_3, X_4);
    sql.resultSet("l_tax", X_5);
end user.s1_1;
"#,
        )
        .unwrap()
    }

    #[test]
    fn figure1_query_executes() {
        let interp = Interpreter::new(catalog());
        let out = interp
            .execute(&figure1_plan(), &ExecOptions::default())
            .unwrap();
        let r = out.result.unwrap();
        assert_eq!(r.rows(), 3);
        assert_eq!(
            r.column("l_tax").unwrap().as_dbls().unwrap(),
            &[0.01, 0.03, 0.05]
        );
    }

    #[test]
    fn profiler_emits_start_done_pairs() {
        let sink = VecSink::new();
        let interp = Interpreter::new(catalog());
        let opts = ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone()));
        let plan = figure1_plan();
        interp.execute(&plan, &opts).unwrap();
        let events = sink.take();
        // Two events per instruction.
        assert_eq!(events.len(), plan.len() * 2);
        // Sequential: strictly alternating start/done with matching pcs,
        // in plan order.
        for (i, pair) in events.chunks(2).enumerate() {
            assert_eq!(pair[0].status, EventStatus::Start);
            assert_eq!(pair[1].status, EventStatus::Done);
            assert_eq!(pair[0].pc, i);
            assert_eq!(pair[1].pc, i);
            assert_eq!(pair[0].stmt, pair[1].stmt);
        }
        // Event sequence numbers are dense.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.event, i as u64);
        }
        // Clocks are monotone.
        assert!(events.windows(2).all(|w| w[0].clk <= w[1].clk));
    }

    #[test]
    fn stmt_field_matches_plan_listing() {
        let sink = VecSink::new();
        let interp = Interpreter::new(catalog());
        let plan = figure1_plan();
        interp
            .execute(
                &plan,
                &ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone())),
            )
            .unwrap();
        let events = sink.take();
        let stmts = plan.stmt_texts();
        for e in &events {
            assert_eq!(e.stmt, stmts[e.pc], "trace stmt must match plan text");
        }
    }

    #[test]
    fn parallel_matches_sequential_result() {
        let interp = Interpreter::new(catalog());
        let plan = figure1_plan();
        let seq = interp.execute(&plan, &ExecOptions::default()).unwrap();
        let par = interp
            .execute(&plan, &ExecOptions::parallel(4, ProfilerConfig::off()))
            .unwrap();
        let a = seq.result.unwrap();
        let b = par.result.unwrap();
        assert_eq!(
            a.column("l_tax").unwrap().as_dbls().unwrap(),
            b.column("l_tax").unwrap().as_dbls().unwrap()
        );
    }

    #[test]
    fn parallel_emits_all_events() {
        let sink = VecSink::new();
        let interp = Interpreter::new(catalog());
        let plan = figure1_plan();
        interp
            .execute(
                &plan,
                &ExecOptions::parallel(4, ProfilerConfig::to_sink(sink.clone())),
            )
            .unwrap();
        let events = sink.take();
        assert_eq!(events.len(), plan.len() * 2);
        // Every pc has exactly one start and one done.
        for pc in 0..plan.len() {
            let starts = events
                .iter()
                .filter(|e| e.pc == pc && e.status == EventStatus::Start)
                .count();
            let dones = events
                .iter()
                .filter(|e| e.pc == pc && e.status == EventStatus::Done)
                .count();
            assert_eq!((starts, dones), (1, 1), "pc {pc}");
        }
    }

    #[test]
    fn unknown_table_propagates() {
        let interp = Interpreter::new(catalog());
        let plan = parse_plan(
            "X_0:int := sql.mvc();\nX_1:bat[:oid] := sql.tid(X_0, \"sys\", \"nope\");\n",
        )
        .unwrap();
        assert!(matches!(
            interp.execute(&plan, &ExecOptions::default()),
            Err(EngineError::NoSuchTable(_))
        ));
    }

    #[test]
    fn rss_grows_with_allocation() {
        let sink = VecSink::new();
        let interp = Interpreter::new(catalog());
        let plan = figure1_plan();
        interp
            .execute(
                &plan,
                &ExecOptions::profiled(ProfilerConfig::to_sink(sink.clone())),
            )
            .unwrap();
        let events = sink.take();
        let first = events.first().unwrap().rss;
        let last = events.last().unwrap().rss;
        assert!(last >= first);
    }

    #[test]
    fn printed_lines_returned() {
        let interp = Interpreter::new(catalog());
        let plan = parse_plan("X_0:int := sql.mvc();\nio.print(X_0);\n").unwrap();
        let out = interp.execute(&plan, &ExecOptions::default()).unwrap();
        assert_eq!(out.printed.len(), 1);
    }
}
