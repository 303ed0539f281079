//! Dataflow scheduler — multi-core MAL execution.
//!
//! MonetDB wraps optimized plans in `language.dataflow` blocks whose
//! instructions are scheduled by dataflow dependency rather than textual
//! order. This module reproduces that: instructions become ready when all
//! producers of their argument variables have finished, and a pool of
//! worker threads drains the ready set. The profiler events carry the
//! worker's thread index, which is what Stethoscope's §5 multi-core
//! utilisation analysis plots.
//!
//! ## One ready queue
//!
//! Like MonetDB's dataflow `todo` queue, every worker draws from one
//! shared `Queue` behind one mutex: the ready list, the pending-producer
//! counts, the number of instructions left and the first error. A worker
//! reports the instruction it finished and takes its next one in the same
//! critical section.
//!
//! Locality: a worker takes the newest instruction it readied itself, or
//! else the oldest ready one. A mitosis partition pipeline
//! (`slice → select → projection → ...`) so stays on one core with its
//! operands cache-warm, while an idle worker picks up the head of a
//! different partition's pipeline. A worker that readies `k`
//! instructions keeps one and wakes at most `k − 1` sleepers; the end of
//! the run, or its failure, wakes them all.
//!
//! Idle workers wait on a condvar without a timeout. No wake-up can be
//! lost: a worker decides to wait while holding the queue mutex, and
//! whoever readies work does so under that same mutex and notifies
//! after releasing it.
//!
//! A profiler sink may hold a worker's `done` event back until that
//! worker's next `start` (see [`crate::profile::ProfilerSink`]). A
//! worker about to park or leave the run therefore first sends what its
//! sink held back, outside the queue mutex, and then looks at the queue
//! again before it waits.
//!
//! ## Variable lifetimes
//!
//! Each variable carries a count of the argument slots still to read it.
//! A finishing instruction decrements the count once per slot it read;
//! the reader that takes the count to zero takes the value out of its
//! `env` slot and releases it. A result that nothing reads is released
//! as soon as it is produced.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};

use parking_lot::Mutex;
use stetho_mal::{DataflowGraph, Plan};
use stetho_obsv::{Counter, Gauge, Registry};

use crate::error::EngineError;
use crate::interp::QueryRun;
use crate::rt::RuntimeValue;
use crate::Result;

/// Per-worker scheduler instruments, registered once per run against the
/// session registry. Handles are cloned `Arc`s over atomics, so updates
/// on the worker hot path are plain atomic ops — no locks, no clock
/// reads.
struct SchedMetrics {
    /// `stetho_scheduler_executed_total{worker="i"}`.
    executed: Vec<Counter>,
    /// `stetho_scheduler_stolen_total{worker="i"}` — instructions this
    /// worker ran that a sibling had readied.
    stolen: Vec<Counter>,
    /// `stetho_scheduler_parks_total{worker="i"}`.
    parks: Vec<Counter>,
    /// `stetho_scheduler_queue_depth` — ready instructions in the queue,
    /// refreshed whenever a worker takes one.
    queue_depth: Gauge,
}

impl SchedMetrics {
    fn new(registry: &Registry, workers: usize) -> Self {
        let per_worker = |name: &str, help: &str| -> Vec<Counter> {
            (0..workers)
                .map(|w| registry.counter_with(name, help, &[("worker", &w.to_string())]))
                .collect()
        };
        SchedMetrics {
            executed: per_worker(
                "stetho_scheduler_executed_total",
                "Instructions executed per dataflow worker",
            ),
            stolen: per_worker(
                "stetho_scheduler_stolen_total",
                "Instructions run by a worker other than the one that readied them",
            ),
            parks: per_worker(
                "stetho_scheduler_parks_total",
                "Times a worker parked with no work in sight",
            ),
            queue_depth: registry.gauge(
                "stetho_scheduler_queue_depth",
                "Ready instructions waiting in the scheduler queue",
            ),
        }
    }
}

/// Marks an instruction that no worker readied: a source of the plan.
const SEEDED: usize = usize::MAX;

/// Nothing panics while holding the queue lock, so a poisoned queue is a
/// scheduler bug; its counts cannot be trusted to end the run.
const POISONED: &str = "dataflow queue poisoned: a worker panicked while holding it";

/// Scheduler state that changes as instructions finish, all behind one
/// mutex.
struct Queue {
    /// Ready instructions as `(pc, worker that readied it)`, oldest first.
    ready: VecDeque<(usize, usize)>,
    /// Pending-producer counts per instruction.
    pending: Vec<usize>,
    /// Instructions not yet executed.
    remaining: usize,
    first_error: Option<EngineError>,
    /// Workers waiting on [`Shared::wake`].
    sleepers: usize,
}

impl Queue {
    /// The newest instruction `worker` readied itself, else the oldest
    /// ready one.
    fn take(&mut self, worker: usize) -> Option<(usize, usize)> {
        match self.ready.iter().rposition(|&(_, by)| by == worker) {
            Some(i) => self.ready.remove(i),
            None => self.ready.pop_front(),
        }
    }
}

/// Shared scheduler state, borrowed by every worker thread.
struct Shared<'a> {
    plan: &'a Plan,
    graph: DataflowGraph,
    stmts: Vec<String>,
    queue: StdMutex<Queue>,
    wake: Condvar,
    env: Vec<Mutex<Option<RuntimeValue>>>,
    /// Argument slots per variable whose instruction has not finished.
    readers: Vec<AtomicUsize>,
    metrics: Option<SchedMetrics>,
}

impl Shared<'_> {
    /// Record how `worker`'s last instruction (if any) ended, then hand
    /// it its next one; `None` once the run is over. A worker that parks
    /// or leaves first sends the profiler events its sink held back.
    fn next(
        &self,
        run: &QueryRun,
        worker: usize,
        finished: Option<(usize, Result<()>)>,
    ) -> Option<usize> {
        let mut q = self.queue.lock().expect(POISONED);
        let mut readied = 0usize;
        if let Some((pc, outcome)) = finished {
            q.remaining -= 1;
            match outcome {
                Ok(()) => {
                    for &(succ, _) in self.graph.succs(pc) {
                        q.pending[succ] -= 1;
                        if q.pending[succ] == 0 {
                            q.ready.push_back((succ, worker));
                            readied += 1;
                        }
                    }
                }
                Err(e) => {
                    // The failed instruction's dependents never become
                    // ready; the first error ends the run.
                    q.first_error.get_or_insert(e);
                }
            }
        }
        let mut sent_deferred = false;
        loop {
            // Everything executed, or an instruction failed.
            if q.remaining == 0 || q.first_error.is_some() {
                drop(q);
                self.wake.notify_all();
                run.profiler.sink.send_deferred();
                return None;
            }
            if let Some((pc, by)) = q.take(worker) {
                // This worker runs one of what it readied; wake sleepers
                // for the rest.
                let wake = readied.saturating_sub(1).min(q.sleepers);
                let depth = q.ready.len();
                drop(q);
                for _ in 0..wake {
                    self.wake.notify_one();
                }
                if let Some(m) = &self.metrics {
                    if by != worker && by != SEEDED {
                        m.stolen[worker].inc();
                    }
                    m.queue_depth.set(depth as f64);
                }
                return Some(pc);
            }
            // Send what this worker's events held back before it parks,
            // then look again: work readied meanwhile is taken, not
            // slept through.
            if !sent_deferred {
                drop(q);
                run.profiler.sink.send_deferred();
                sent_deferred = true;
                q = self.queue.lock().expect(POISONED);
                continue;
            }
            if let Some(m) = &self.metrics {
                m.parks[worker].inc();
            }
            q.sleepers += 1;
            q = self.wake.wait(q).expect(POISONED);
            q.sleepers -= 1;
        }
    }
}

/// Execute `plan` on `workers` threads under dataflow ordering. When a
/// registry is supplied, per-worker `stetho_scheduler_*` instruments are
/// registered against it for the run.
pub(crate) fn run_dataflow(
    plan: &Plan,
    run: &QueryRun,
    workers: usize,
    metrics: Option<&Registry>,
) -> Result<()> {
    let n = plan.len();
    if n == 0 {
        return Ok(());
    }
    let workers = workers.max(1);
    let graph = DataflowGraph::from_plan(plan);

    let mut readers = vec![0usize; plan.var_count()];
    for v in plan.instructions.iter().flat_map(|ins| ins.arg_vars()) {
        readers[v.0] += 1;
    }

    // Validated single-assignment plans are acyclic, so at least one
    // instruction is a source.
    let queue = Queue {
        ready: graph.sources().into_iter().map(|pc| (pc, SEEDED)).collect(),
        pending: (0..n).map(|pc| graph.preds(pc).len()).collect(),
        remaining: n,
        first_error: None,
        sleepers: 0,
    };
    let shared = Shared {
        plan,
        stmts: plan.stmt_texts(),
        queue: StdMutex::new(queue),
        wake: Condvar::new(),
        env: (0..plan.var_count()).map(|_| Mutex::new(None)).collect(),
        readers: readers.into_iter().map(AtomicUsize::new).collect(),
        metrics: metrics.map(|r| SchedMetrics::new(r, workers)),
        graph,
    };

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let shared = &shared;
            scope.spawn(move || worker_loop(shared, run, worker));
        }
    });

    // The run is over: no ready work remains anywhere.
    if let Some(m) = &shared.metrics {
        m.queue_depth.set(0.0);
    }
    match shared.queue.into_inner().expect(POISONED).first_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn worker_loop(shared: &Shared<'_>, run: &QueryRun, worker: usize) {
    let mut finished = None;
    while let Some(pc) = shared.next(run, worker, finished.take()) {
        let ins = &shared.plan.instructions[pc];
        let outcome = run.run_instruction(
            ins,
            |v| {
                shared.env[v].lock().clone().ok_or_else(|| {
                    EngineError::Uninitialised(shared.plan.var(stetho_mal::VarId(v)).name.clone())
                })
            },
            &shared.stmts[pc],
            worker,
        );
        let outcome = outcome.map(|values| {
            // No reader of a result can have started yet, so a zero
            // count means nothing reads it.
            for (r, v) in ins.results.iter().zip(values) {
                if shared.readers[r.0].load(Ordering::Acquire) == 0 {
                    run.release(Some(v));
                } else {
                    *shared.env[r.0].lock() = Some(v);
                }
            }
            for v in ins.arg_vars() {
                if shared.readers[v.0].fetch_sub(1, Ordering::AcqRel) == 1 {
                    run.release(shared.env[v.0].lock().take());
                }
            }
            if let Some(m) = &shared.metrics {
                m.executed[worker].inc();
            }
        });
        finished = Some((pc, outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::Bat;
    use crate::catalog::{Catalog, TableDef};
    use crate::interp::{ExecOptions, Interpreter};
    use crate::profile::{ProfilerConfig, VecSink};
    use std::sync::Arc;
    use stetho_mal::{parse_plan, MalType};
    use stetho_profiler::EventStatus;

    fn catalog(rows: usize) -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.add_table(
            TableDef::new(
                "t",
                vec![(
                    "v".into(),
                    MalType::Int,
                    Bat::ints((0..rows as i64).collect()),
                )],
            )
            .unwrap(),
        );
        Arc::new(c)
    }

    /// A plan with a wide independent middle: K parallel selects over the
    /// same column, packed at the end.
    fn wide_plan(k: usize) -> stetho_mal::Plan {
        let mut text = String::new();
        text.push_str("function user.wide();\n");
        text.push_str("X_0:int := sql.mvc();\n");
        text.push_str("X_1:bat[:oid] := sql.tid(X_0, \"sys\", \"t\");\n");
        text.push_str("X_2:bat[:int] := sql.bind(X_0, \"sys\", \"t\", \"v\", 0:int);\n");
        let mut packs = Vec::new();
        for i in 0..k {
            let sel = 3 + i * 2;
            let proj = sel + 1;
            text.push_str(&format!(
                "X_{sel}:bat[:oid] := algebra.select(X_2, X_1, {i}:int, {hi}:int, true:bit);\n",
                hi = i + 1
            ));
            text.push_str(&format!(
                "X_{proj}:bat[:int] := algebra.projection(X_{sel}, X_2);\n"
            ));
            packs.push(format!("X_{proj}"));
        }
        let packed = 3 + k * 2;
        text.push_str(&format!(
            "X_{packed}:bat[:int] := mat.pack({});\n",
            packs.join(", ")
        ));
        text.push_str(&format!("sql.resultSet(\"v\", X_{packed});\n"));
        text.push_str("end user.wide;\n");
        parse_plan(&text).unwrap()
    }

    #[test]
    fn dataflow_produces_same_result_as_sequential() {
        let interp = Interpreter::new(catalog(100));
        let plan = wide_plan(8);
        let seq = interp.execute(&plan, &ExecOptions::default()).unwrap();
        let par = interp
            .execute(&plan, &ExecOptions::parallel(4, ProfilerConfig::off()))
            .unwrap();
        let a = seq.result.unwrap();
        let b = par.result.unwrap();
        assert_eq!(
            a.column("v").unwrap().as_ints().unwrap(),
            b.column("v").unwrap().as_ints().unwrap()
        );
    }

    #[test]
    fn multiple_worker_threads_actually_used() {
        // Give each branch measurable work so workers overlap.
        let mut text = String::new();
        text.push_str("X_0:int := sql.mvc();\n");
        // Four independent sleeps: the scheduler must run them on
        // different workers, which the thread field records.
        text.push_str("alarm.sleep(30:int);\n");
        text.push_str("alarm.sleep(30:int);\n");
        text.push_str("alarm.sleep(30:int);\n");
        text.push_str("alarm.sleep(30:int);\n");
        let plan = parse_plan(&text).unwrap();
        let sink = VecSink::new();
        let interp = Interpreter::new(catalog(1));
        let t0 = std::time::Instant::now();
        interp
            .execute(
                &plan,
                &ExecOptions::parallel(4, ProfilerConfig::to_sink(sink.clone())),
            )
            .unwrap();
        let elapsed = t0.elapsed();
        let events = sink.take();
        let threads: std::collections::HashSet<usize> = events
            .iter()
            .filter(|e| e.stmt.contains("alarm"))
            .map(|e| e.thread)
            .collect();
        assert!(
            threads.len() >= 2,
            "expected multiple worker threads, saw {threads:?}"
        );
        // 4×30ms of sleep in well under 120ms proves overlap.
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "sleeps did not overlap: {elapsed:?}"
        );
    }

    #[test]
    fn single_worker_is_sequential_dataflow() {
        let interp = Interpreter::new(catalog(50));
        let plan = wide_plan(4);
        let sink = VecSink::new();
        interp
            .execute(
                &plan,
                &ExecOptions::parallel(1, ProfilerConfig::to_sink(sink.clone())),
            )
            .unwrap();
        let events = sink.take();
        assert_eq!(events.len(), plan.len() * 2);
        assert!(events.iter().all(|e| e.thread == 0));
        // With one worker, events strictly alternate start/done.
        for pair in events.chunks(2) {
            assert_eq!(pair[0].status, EventStatus::Start);
            assert_eq!(pair[1].status, EventStatus::Done);
            assert_eq!(pair[0].pc, pair[1].pc);
        }
    }

    #[test]
    fn errors_propagate_from_workers() {
        let plan = parse_plan(
            "X_0:int := sql.mvc();\nX_1:bat[:oid] := sql.tid(X_0, \"sys\", \"missing\");\n",
        )
        .unwrap();
        let interp = Interpreter::new(catalog(10));
        let r = interp.execute(&plan, &ExecOptions::parallel(4, ProfilerConfig::off()));
        assert!(matches!(r, Err(EngineError::NoSuchTable(_))));
    }

    #[test]
    fn errors_mid_plan_do_not_deadlock() {
        // The failing instruction has downstream dependents that can
        // never become ready; the scheduler must still terminate.
        let plan = parse_plan(
            "X_0:int := sql.mvc();\n\
             X_1:bat[:oid] := sql.tid(X_0, \"sys\", \"missing\");\n\
             X_2:bat[:oid] := bat.mirror(X_1);\n\
             X_3:bat[:oid] := bat.mirror(X_2);\n\
             sql.resultSet(\"x\", X_3);\n",
        )
        .unwrap();
        let interp = Interpreter::new(catalog(10));
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let r = interp.execute(&plan, &ExecOptions::parallel(4, ProfilerConfig::off()));
            tx.send(r.is_err()).unwrap();
        });
        let errored = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("scheduler must terminate after a mid-plan error");
        assert!(errored);
        handle.join().unwrap();
    }

    #[test]
    fn stress_wide_fanout_many_worker_counts() {
        // 64 independent select→projection branches over a 50k-row
        // column: a worst case for ready-queue contention. Every worker
        // count must terminate and agree with the sequential interpreter.
        let interp = Interpreter::new(catalog(50_000));
        let plan = wide_plan(64);
        let seq = interp.execute(&plan, &ExecOptions::default()).unwrap();
        let want = seq
            .result
            .unwrap()
            .column("v")
            .unwrap()
            .as_ints()
            .unwrap()
            .to_vec();
        for workers in [2usize, 4, 8] {
            let sink = VecSink::new();
            let interp = Interpreter::new(catalog(50_000));
            let plan = wide_plan(64);
            let (tx, rx) = std::sync::mpsc::channel();
            let handle = std::thread::spawn(move || {
                let out = interp
                    .execute(
                        &plan,
                        &ExecOptions::parallel(workers, ProfilerConfig::to_sink(sink.clone())),
                    )
                    .unwrap();
                tx.send((out, sink.take())).unwrap();
            });
            let (out, events) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("scheduler deadlocked with {workers} workers"));
            handle.join().unwrap();
            let got = out.result.unwrap();
            assert_eq!(
                got.column("v").unwrap().as_ints().unwrap(),
                &want[..],
                "results diverged with {workers} workers"
            );
            // Every instruction still emits its start/done pair.
            assert_eq!(events.len(), 2 * (3 + 64 * 2 + 2));
            // One worker may finish all 64 fast branches before the OS
            // runs another, so how many threads ran them is left to
            // `parked_workers_wake_for_a_fan_out`.
            assert!(events.iter().all(|e| e.thread < workers));
        }
    }

    /// Passes events through, but holds up the done event of pc 0 until
    /// every other worker has parked (or 10 s have passed), so pc 0's
    /// dependents become ready only after that.
    struct HoldRoot {
        sink: Arc<VecSink>,
        registry: Arc<Registry>,
        others: u64,
    }

    impl crate::profile::ProfilerSink for HoldRoot {
        fn event(&self, e: &stetho_profiler::TraceEvent) {
            if e.pc == 0 && e.status == EventStatus::Done {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while self
                    .registry
                    .snapshot()
                    .counter_total("stetho_scheduler_parks_total")
                    < self.others
                    && std::time::Instant::now() < deadline
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            self.sink.event(e);
        }
    }

    #[test]
    fn parked_workers_wake_for_a_fan_out() {
        // The root readies one sleep per worker only after the other
        // workers have parked; a scheduler that leaves them parked runs
        // every sleep on one thread.
        for workers in [2usize, 4, 8] {
            let mut text = String::from("X_0:int := sql.mvc();\nX_1:int := calc.+(X_0, 30:int);\n");
            for _ in 0..workers {
                text.push_str("alarm.sleep(X_1);\n");
            }
            let plan = parse_plan(&text).unwrap();
            let sink = VecSink::new();
            let registry = Arc::new(Registry::new());
            let hold = HoldRoot {
                sink: sink.clone(),
                registry: Arc::clone(&registry),
                others: workers as u64 - 1,
            };
            let opts = ExecOptions::parallel(workers, ProfilerConfig::to_sink(Arc::new(hold)))
                .with_metrics(registry);
            Interpreter::new(catalog(1)).execute(&plan, &opts).unwrap();
            let threads: std::collections::HashSet<usize> = sink
                .take()
                .iter()
                .filter(|e| e.stmt.contains("alarm"))
                .map(|e| e.thread)
                .collect();
            assert!(
                threads.len() >= 2,
                "{workers} workers but only threads {threads:?} ran the sleeps"
            );
        }
    }

    #[test]
    fn idle_workers_wait_without_polling() {
        // While one 50 ms sleep runs, the idle workers must block until
        // the run ends rather than wake on a timer.
        let workers = 4;
        let registry = Arc::new(Registry::new());
        let plan = parse_plan("X_0:int := sql.mvc();\nalarm.sleep(50:int);\n").unwrap();
        let opts = ExecOptions::parallel(workers, ProfilerConfig::off())
            .with_metrics(Arc::clone(&registry));
        Interpreter::new(catalog(1)).execute(&plan, &opts).unwrap();
        let parks = registry
            .snapshot()
            .counter_total("stetho_scheduler_parks_total");
        assert!(
            parks <= 2 * workers as u64,
            "{parks} parks on {workers} workers during one 50 ms instruction"
        );
    }

    #[test]
    fn one_worker_steals_nothing() {
        let registry = Arc::new(stetho_obsv::Registry::new());
        let plan = wide_plan(16);
        let opts =
            ExecOptions::parallel(1, ProfilerConfig::off()).with_metrics(Arc::clone(&registry));
        Interpreter::new(catalog(100))
            .execute(&plan, &opts)
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_total("stetho_scheduler_executed_total"),
            plan.len() as u64
        );
        assert_eq!(snap.counter_total("stetho_scheduler_stolen_total"), 0);
    }

    #[test]
    fn scheduler_metrics_cover_every_instruction() {
        let registry = Arc::new(stetho_obsv::Registry::new());
        let interp = Interpreter::new(catalog(1000));
        let plan = wide_plan(16);
        let opts =
            ExecOptions::parallel(4, ProfilerConfig::off()).with_metrics(Arc::clone(&registry));
        interp.execute(&plan, &opts).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_total("stetho_scheduler_executed_total"),
            plan.len() as u64,
            "every instruction counted exactly once"
        );
        // Per-worker samples exist for all four workers.
        let fam = snap.family("stetho_scheduler_executed_total").unwrap();
        assert_eq!(fam.samples.len(), 4);
        // The run drained: queue depth reads zero at the end.
        assert_eq!(snap.gauge_value("stetho_scheduler_queue_depth"), Some(0.0));
        // Steal/park counters exist (values are timing-dependent).
        assert!(snap.family("stetho_scheduler_stolen_total").is_some());
        assert!(snap.family("stetho_scheduler_parks_total").is_some());
    }

    #[test]
    fn metrics_registry_is_reusable_across_runs() {
        let registry = Arc::new(stetho_obsv::Registry::new());
        let interp = Interpreter::new(catalog(100));
        let plan = wide_plan(4);
        let opts =
            ExecOptions::parallel(2, ProfilerConfig::off()).with_metrics(Arc::clone(&registry));
        interp.execute(&plan, &opts).unwrap();
        interp.execute(&plan, &opts).unwrap();
        assert_eq!(
            registry
                .snapshot()
                .counter_total("stetho_scheduler_executed_total"),
            2 * plan.len() as u64,
            "second run accumulates into the same instruments"
        );
    }

    #[test]
    fn empty_plan_is_fine() {
        let plan = parse_plan("").unwrap();
        let interp = Interpreter::new(catalog(1));
        let out = interp
            .execute(&plan, &ExecOptions::parallel(4, ProfilerConfig::off()))
            .unwrap();
        assert!(out.result.is_none());
    }
}
