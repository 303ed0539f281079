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
//! ## Work stealing
//!
//! Each worker owns a LIFO deque of ready instructions. An instruction's
//! successors become ready on the worker that finished the producer, so
//! a mitosis partition pipeline (`slice → select → projection → ...`)
//! stays on one core with its operands cache-warm; idle workers steal
//! from the *front* of a victim's deque, migrating the oldest ready
//! instruction — typically the head of a different partition's pipeline.
//! A shared [`Injector`] seeds the plan's source instructions and takes
//! overflow. Wake-ups are batched: finishing an instruction that readies
//! `k` successors issues one notification (broadcast when `k > 1`), not
//! `k`, and idle workers park on a condvar with a short timeout backstop
//! so a lost race between "checked queues" and "parked" self-heals.
//!
//! ## Variable lifetimes
//!
//! Each variable carries a count of the argument slots still to read it.
//! A finishing instruction decrements the count once per slot it read;
//! the reader that takes the count to zero takes the value out of its
//! `env` slot and releases it. A result that nothing reads is released
//! as soon as it is produced.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::Duration;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use stetho_mal::{DataflowGraph, Plan};
use stetho_obsv::{Counter, Gauge, Registry};

use crate::error::EngineError;
use crate::interp::QueryRun;
use crate::rt::RuntimeValue;
use crate::Result;

/// How long an idle worker sleeps before re-polling the queues even
/// without a wake-up — the backstop for the benign park/notify race.
const PARK_BACKSTOP: Duration = Duration::from_millis(1);

/// Parking lot for idle workers.
struct Parking {
    lock: StdMutex<()>,
    ready: Condvar,
    sleepers: AtomicUsize,
}

impl Parking {
    fn new() -> Self {
        Parking {
            lock: StdMutex::new(()),
            ready: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    /// One batched notification for `newly_ready` tasks: a single
    /// `notify_one` for one task, one broadcast for a fan-out. Skipped
    /// entirely when nobody is parked (the common case mid-pipeline).
    fn wake(&self, newly_ready: usize) {
        if newly_ready == 0 || self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        if newly_ready == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }

    /// Park until notified or the backstop elapses. `recheck` runs after
    /// registering as a sleeper but before sleeping, closing the window
    /// where work arrived between the caller's last poll and the park.
    fn park(&self, recheck: impl Fn() -> bool) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !recheck() {
            let guard = match self.lock.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let _ = self.ready.wait_timeout(guard, PARK_BACKSTOP);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-worker scheduler instruments, registered once per run against the
/// session registry. Handles are cloned `Arc`s over atomics, so updates
/// on the worker hot path are plain atomic ops — no locks, no clock
/// reads.
struct SchedMetrics {
    /// `stetho_scheduler_executed_total{worker="i"}`.
    executed: Vec<Counter>,
    /// `stetho_scheduler_stolen_total{worker="i"}` — tasks this worker
    /// stole from a sibling's deque.
    stolen: Vec<Counter>,
    /// `stetho_scheduler_parks_total{worker="i"}`.
    parks: Vec<Counter>,
    /// `stetho_scheduler_queue_depth` — ready tasks visible across the
    /// injector and every worker deque, refreshed after each fan-out.
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
                "Tasks stolen from sibling deques per worker",
            ),
            parks: per_worker(
                "stetho_scheduler_parks_total",
                "Times a worker parked with no work in sight",
            ),
            queue_depth: registry.gauge(
                "stetho_scheduler_queue_depth",
                "Ready instructions queued across the injector and worker deques",
            ),
        }
    }
}

/// Shared scheduler state, borrowed by every worker thread.
struct Shared<'a> {
    plan: &'a Plan,
    graph: DataflowGraph,
    stmts: Vec<String>,
    /// Pending-producer counts per instruction.
    pending: Vec<AtomicUsize>,
    /// Instructions not yet executed (or abandoned after an error).
    remaining: AtomicUsize,
    /// Set when the plan has fully drained or an error was recorded.
    done: AtomicBool,
    /// Cheap error witness so workers skip stale tasks without locking.
    errored: AtomicBool,
    first_error: Mutex<Option<EngineError>>,
    env: Vec<Mutex<Option<RuntimeValue>>>,
    /// Argument slots per variable whose instruction has not finished.
    readers: Vec<AtomicUsize>,
    injector: Injector<usize>,
    stealers: Vec<Stealer<usize>>,
    parking: Parking,
    metrics: Option<SchedMetrics>,
}

impl Shared<'_> {
    /// Next instruction for `worker_id`: own deque first (LIFO —
    /// cache-warm successor), then the injector (batch refill), then
    /// steal from a sibling (counted as a steal for the metrics).
    fn find_task(&self, local: &Worker<usize>, worker_id: usize) -> Option<usize> {
        if let Some(pc) = local.pop() {
            return Some(pc);
        }
        loop {
            let mut retry = false;
            match self.injector.steal_batch_and_pop(local) {
                Steal::Success(pc) => return Some(pc),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            for (victim, stealer) in self.stealers.iter().enumerate() {
                match stealer.steal() {
                    Steal::Success(pc) => {
                        if victim != worker_id {
                            if let Some(m) = &self.metrics {
                                m.stolen[worker_id].inc();
                            }
                        }
                        return Some(pc);
                    }
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
        }
    }

    /// Refresh the queue-depth gauge: ready tasks visible in the
    /// injector plus every worker deque. No-op without a registry.
    fn refresh_queue_depth(&self) {
        if let Some(m) = &self.metrics {
            let depth = self.injector.len() + self.stealers.iter().map(Stealer::len).sum::<usize>();
            m.queue_depth.set(depth as f64);
        }
    }

    /// Any task visible anywhere? (Used to avoid parking on a race.)
    fn work_in_sight(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Record an error (first one wins) and release every worker.
    fn record_error(&self, e: EngineError) {
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.errored.store(true, Ordering::SeqCst);
        // The failed instruction's dependents never become ready, so
        // `remaining` cannot drain to zero — declare the run over.
        self.done.store(true, Ordering::SeqCst);
        self.parking.wake_all();
    }

    /// Mark one instruction finished; the last one ends the run.
    fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.store(true, Ordering::SeqCst);
            self.parking.wake_all();
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

    let locals: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let shared = Shared {
        plan,
        stmts: plan.stmt_texts(),
        pending: (0..n)
            .map(|pc| AtomicUsize::new(graph.preds(pc).len()))
            .collect(),
        remaining: AtomicUsize::new(n),
        done: AtomicBool::new(false),
        errored: AtomicBool::new(false),
        first_error: Mutex::new(None),
        env: (0..plan.var_count()).map(|_| Mutex::new(None)).collect(),
        readers: readers.into_iter().map(AtomicUsize::new).collect(),
        injector: Injector::new(),
        stealers: locals.iter().map(Worker::stealer).collect(),
        parking: Parking::new(),
        metrics: metrics.map(|r| SchedMetrics::new(r, workers)),
        graph,
    };
    for pc in shared.graph.sources() {
        shared.injector.push(pc);
    }
    shared.refresh_queue_depth();
    // A plan where every node has predecessors cannot happen (validated
    // single-assignment plans are acyclic with at least one source).

    std::thread::scope(|scope| {
        for (worker_id, local) in locals.into_iter().enumerate() {
            let shared = &shared;
            scope.spawn(move || worker_loop(shared, run, worker_id, local));
        }
    });

    // The run is over: no ready work remains anywhere.
    if let Some(m) = &shared.metrics {
        m.queue_depth.set(0.0);
    }
    match shared.first_error.into_inner() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn worker_loop(shared: &Shared<'_>, run: &QueryRun, worker_id: usize, local: Worker<usize>) {
    loop {
        let Some(pc) = shared.find_task(&local, worker_id) else {
            if shared.done.load(Ordering::SeqCst) {
                return;
            }
            if let Some(m) = &shared.metrics {
                m.parks[worker_id].inc();
            }
            shared
                .parking
                .park(|| shared.done.load(Ordering::SeqCst) || shared.work_in_sight());
            continue;
        };
        if shared.errored.load(Ordering::SeqCst) {
            // Abandon remaining work after a failure.
            shared.finish_one();
            continue;
        }
        let ins = &shared.plan.instructions[pc];
        let outcome = run.run_instruction(
            ins,
            |v| {
                shared.env[v].lock().clone().ok_or_else(|| {
                    EngineError::Uninitialised(shared.plan.var(stetho_mal::VarId(v)).name.clone())
                })
            },
            &shared.stmts[pc],
            worker_id,
        );
        match outcome {
            Ok(values) => {
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
                let mut newly_ready = 0usize;
                for &(succ, _) in shared.graph.succs(pc) {
                    if shared.pending[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                        local.push(succ);
                        newly_ready += 1;
                    }
                }
                if let Some(m) = &shared.metrics {
                    m.executed[worker_id].inc();
                }
                shared.refresh_queue_depth();
                // One batched wake-up for the whole fan-out; thieves
                // take from the front of this worker's deque.
                shared.parking.wake(newly_ready);
            }
            Err(e) => shared.record_error(e),
        }
        shared.finish_one();
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
        for i in 0..4 {
            // alarm.sleep has no deps besides X_0-independent literal.
            let _ = i;
        }
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
        // count must terminate, agree with the sequential interpreter,
        // and actually spread work across threads.
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
            let threads: std::collections::HashSet<usize> =
                events.iter().map(|e| e.thread).collect();
            assert!(
                threads.len() >= 2,
                "{workers} workers but only threads {threads:?} ran instructions"
            );
            assert!(threads.iter().all(|&t| t < workers));
        }
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
