//! Experiment D7 — multi-core exploitation: the same mitosis plan
//! executed by the sequential interpreter versus the dataflow scheduler
//! at increasing worker counts. The shape that must hold: for scan-heavy
//! plans (Q6) the parallel runs beat serial once the per-partition work
//! amortises scheduling. Also contains the candidates-vs-mask ablation
//! (`ablate_candidates`) on the engine's selection design, and the
//! slice-scaling probe showing `algebra.slice` is O(1) under shared
//! buffers, and the string kernels of Q1's serial tail (`str_kernels`).
//!
//! Every mean measured here is upserted into the `BENCH_engine.json`
//! ledger at the repository root. "Before" rows run with
//! `set_force_copy(true)` — the storage layer's deep-copy mode, i.e.
//! the engine as it was before zero-copy views — and "after" rows in
//! the default zero-copy mode.

use criterion::{criterion_group, BenchmarkId, Criterion};
use stetho_bench::ledger::{self, int, num, text};
use stetho_bench::{catalog, plan_for};
use stetho_engine::rt::RuntimeValue;
use stetho_engine::{
    ops, set_force_copy, Bat, Catalog, ExecCtx, ExecOptions, Interpreter, ProfilerConfig,
};
use stetho_mal::Value;
use stetho_tpch::queries;

/// Worker counts the speedup experiment sweeps.
const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

fn speedup_group(c: &mut Criterion, group_name: &str, sql: &str, sf: f64, partitions: usize) {
    let cat = catalog(sf);
    let plan = plan_for(&cat, sql, partitions);
    eprintln!(
        "[parallel_speedup] {group_name} mitosis({partitions}): {} instructions over {} rows",
        plan.len(),
        cat.table("lineitem").unwrap().rows()
    );
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    let interp = Interpreter::new(std::sync::Arc::clone(&cat));
    group.bench_function("serial", |b| {
        b.iter(|| {
            interp
                .execute(&plan, &ExecOptions::default())
                .unwrap()
                .result
                .unwrap()
                .rows()
        })
    });
    for workers in WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::new("parallel", workers), &workers, |b, &w| {
            b.iter(|| {
                interp
                    .execute(&plan, &ExecOptions::parallel(w, ProfilerConfig::off()))
                    .unwrap()
                    .result
                    .unwrap()
                    .rows()
            })
        });
    }
    group.finish();
}

fn bench_parallel_speedup(c: &mut Criterion) {
    // After: the zero-copy engine (the default).
    speedup_group(c, "engine/q6_workers", queries::Q6, 0.02, 8);
    speedup_group(c, "engine/q1_workers", queries::Q1, 0.02, 8);
    // Before: every slice/projection materialises, as the storage layer
    // behaved before shared buffers.
    set_force_copy(true);
    speedup_group(c, "engine/q6_workers_forced_copy", queries::Q6, 0.02, 8);
    set_force_copy(false);
}

fn bench_slice_scaling(c: &mut Criterion) {
    // The zero-copy acceptance probe: slicing a mitosis partition out of
    // a 10^4-row column must cost the same as out of a 10^6-row column
    // (a view is O(1)); the forced-copy rows scale with partition size.
    let mut group = c.benchmark_group("engine/slice_scaling");
    group.sample_size(10);
    for n in [10_000usize, 1_000_000] {
        let base = Bat::ints((0..n as i64).collect());
        let quarter = n / 4;
        group.bench_with_input(BenchmarkId::new("view", n), &n, |b, _| {
            b.iter(|| base.slice(quarter, 3 * quarter).len())
        });
        set_force_copy(true);
        group.bench_with_input(BenchmarkId::new("copy", n), &n, |b, _| {
            b.iter(|| base.slice(quarter, 3 * quarter).len())
        });
        set_force_copy(false);
    }
    group.finish();
}

fn bench_profiling_overhead(c: &mut Criterion) {
    // How much the Figure-3 instrumentation costs: same plan, profiler
    // off vs collecting to memory.
    let cat = catalog(0.005);
    let plan = plan_for(&cat, queries::Q1, 4);
    let interp = Interpreter::new(std::sync::Arc::clone(&cat));
    let mut group = c.benchmark_group("engine/profiling_overhead");
    group.sample_size(10);
    group.bench_function("off", |b| {
        b.iter(|| {
            interp
                .execute(&plan, &ExecOptions::default())
                .unwrap()
                .events
        })
    });
    group.bench_function("vec_sink", |b| {
        b.iter(|| {
            let sink = stetho_engine::VecSink::new();
            interp
                .execute(&plan, &ExecOptions::profiled(ProfilerConfig::to_sink(sink)))
                .unwrap()
                .events
        })
    });
    group.finish();
}

fn bench_metrics_overhead(c: &mut Criterion) {
    // Acceptance probe for the self-observability layer: the scheduler
    // with a live metrics registry attached must stay within a few
    // percent of the uninstrumented run (hot path is atomic increments
    // only — no locks, no clock reads beyond what the profiler does).
    for (group_name, sql) in [
        ("engine/q6_metrics", queries::Q6),
        ("engine/q1_metrics", queries::Q1),
    ] {
        let cat = catalog(0.02);
        let plan = plan_for(&cat, sql, 8);
        let interp = Interpreter::new(std::sync::Arc::clone(&cat));
        let mut group = c.benchmark_group(group_name);
        group.sample_size(10);
        group.bench_function("off", |b| {
            b.iter(|| {
                interp
                    .execute(&plan, &ExecOptions::parallel(4, ProfilerConfig::off()))
                    .unwrap()
                    .result
                    .unwrap()
                    .rows()
            })
        });
        let registry = std::sync::Arc::new(stetho_obsv::Registry::new());
        group.bench_function("on", |b| {
            b.iter(|| {
                interp
                    .execute(
                        &plan,
                        &ExecOptions::parallel(4, ProfilerConfig::off())
                            .with_metrics(std::sync::Arc::clone(&registry)),
                    )
                    .unwrap()
                    .result
                    .unwrap()
                    .rows()
            })
        });
        group.finish();
    }
}

fn bench_ablate_candidates(c: &mut Criterion) {
    // Engine design ablation: selection via candidate lists
    // (thetaselect + projection — MonetDB's way) versus computing a bit
    // mask and filtering through it (batcalc + mask-select + double
    // projection).
    let n = 200_000;
    let values: Vec<i64> = (0..n).map(|i| i % 1000).collect();
    let col = RuntimeValue::bat(Bat::ints(values));
    let payload = RuntimeValue::bat(Bat::dbls((0..n).map(|i| i as f64).collect()));
    let cand = RuntimeValue::bat(Bat::dense_oids(n as usize));
    let ctx = ExecCtx::new(std::sync::Arc::new(Catalog::new()));

    let mut group = c.benchmark_group("engine/ablate_candidates");
    group.sample_size(10);
    group.bench_function("candidate_list", |b| {
        b.iter(|| {
            let sel = ops::execute(
                "algebra",
                "thetaselect",
                &[
                    col.clone(),
                    cand.clone(),
                    RuntimeValue::Scalar(Value::Int(500)),
                    RuntimeValue::Scalar(Value::Str("<".into())),
                ],
                &ctx,
            )
            .unwrap();
            let out = ops::execute(
                "algebra",
                "projection",
                &[sel[0].clone(), payload.clone()],
                &ctx,
            )
            .unwrap();
            out[0].as_bat("t").unwrap().len()
        })
    });
    group.bench_function("bit_mask", |b| {
        b.iter(|| {
            let mask = ops::execute(
                "batcalc",
                "<",
                &[col.clone(), RuntimeValue::Scalar(Value::Int(500))],
                &ctx,
            )
            .unwrap();
            let sel = ops::execute(
                "algebra",
                "select",
                &[
                    mask[0].clone(),
                    RuntimeValue::Scalar(Value::Bit(true)),
                    RuntimeValue::Scalar(Value::Bit(true)),
                    RuntimeValue::Scalar(Value::Bit(true)),
                ],
                &ctx,
            )
            .unwrap();
            let out = ops::execute(
                "algebra",
                "projection",
                &[sel[0].clone(), payload.clone()],
                &ctx,
            )
            .unwrap();
            out[0].as_bat("t").unwrap().len()
        })
    });
    group.finish();
}

fn bench_str_kernels(c: &mut Criterion) {
    // The serial string tail of a Q1 mitosis plan at SF 0.05: the
    // selection's candidate list (not dense) split into 8 partitions,
    // each partition projected through it, the parts packed back, then
    // grouped. `pack8_int` packs an int column of the same shape, the
    // yardstick the CI gate holds `pack8` to; `pack8_dbl` packs a dbl
    // column of that shape, as Q1's reassembly of computed columns does.
    let cat = catalog(0.05);
    let ctx = ExecCtx::new(std::sync::Arc::clone(&cat));
    let exec = |m: &str, f: &str, args: &[RuntimeValue]| ops::execute(m, f, args, &ctx).unwrap();
    let column = |name: &str| RuntimeValue::Bat(cat.column("lineitem", name).unwrap());
    let rows = cat.table("lineitem").unwrap().rows();
    let cand = exec(
        "algebra",
        "thetaselect",
        &[
            column("l_shipdate"),
            RuntimeValue::bat(Bat::dense_oids(rows)),
            RuntimeValue::Scalar(Value::Date(10_471)), // 1998-09-02
            RuntimeValue::Scalar(Value::Str("<=".into())),
        ],
    )
    .remove(0);
    let cand_bat = cand.as_bat("cand").unwrap();
    let step = cand_bat.len().div_ceil(8);
    let partitioned = |name: &str| -> Vec<RuntimeValue> {
        (0..8)
            .map(|p| {
                let part = RuntimeValue::bat(cand_bat.slice(p * step, (p + 1) * step));
                exec("algebra", "projection", &[part, column(name)]).remove(0)
            })
            .collect()
    };
    let flag_parts = partitioned("l_returnflag");
    let int_parts = partitioned("l_quantity");
    let dbl_parts = partitioned("l_extendedprice");
    let flags = exec("mat", "pack", &flag_parts).remove(0);
    let status = exec("mat", "pack", &partitioned("l_linestatus")).remove(0);
    let flag_groups = exec("group", "group", std::slice::from_ref(&flags)).remove(0);

    let mut group = c.benchmark_group("engine/str_kernels");
    group.sample_size(10);
    group.bench_function("pack8", |b| {
        b.iter(|| {
            exec("mat", "pack", &flag_parts)[0]
                .as_bat("t")
                .unwrap()
                .len()
        })
    });
    group.bench_function("pack8_int", |b| {
        b.iter(|| {
            exec("mat", "pack", &int_parts)[0]
                .as_bat("t")
                .unwrap()
                .len()
        })
    });
    group.bench_function("pack8_dbl", |b| {
        b.iter(|| {
            exec("mat", "pack", &dbl_parts)[0]
                .as_bat("t")
                .unwrap()
                .len()
        })
    });
    group.bench_function("group", |b| {
        b.iter(|| exec("group", "group", std::slice::from_ref(&flags)).len())
    });
    group.bench_function("subgroup", |b| {
        b.iter(|| exec("group", "subgroup", &[status.clone(), flag_groups.clone()]).len())
    });
    group.bench_function("projection", |b| {
        b.iter(|| {
            exec(
                "algebra",
                "projection",
                &[cand.clone(), column("l_returnflag")],
            )[0]
            .as_bat("t")
            .unwrap()
            .len()
        })
    });
    group.finish();
}

/// Map one criterion report path to its ledger descriptor fields.
fn describe(name: &str) -> Vec<(String, serde_json::Value)> {
    let mut fields: Vec<(String, serde_json::Value)> = Vec::new();
    let mut push = |k: &str, v: serde_json::Value| fields.push((k.to_string(), v));
    let parts: Vec<&str> = name.split('/').collect();
    match parts.as_slice() {
        ["engine", group, state] if group.ends_with("_metrics") => {
            push("bench", text("metrics_overhead"));
            push(
                "query",
                text(if group.starts_with("q6") { "Q6" } else { "Q1" }),
            );
            push("metrics", text(state));
        }
        ["engine", group, rest @ ..] if group.starts_with("q6") || group.starts_with("q1") => {
            push("bench", text("parallel_speedup"));
            push(
                "query",
                text(if group.starts_with("q6") { "Q6" } else { "Q1" }),
            );
            let workers = match rest {
                ["serial"] => 1,
                ["parallel", w] => w.parse().unwrap_or(0),
                _ => 0,
            };
            push("workers", int(workers));
            push(
                "mode",
                text(if group.ends_with("forced_copy") {
                    "force_copy"
                } else {
                    "zero_copy"
                }),
            );
        }
        ["engine", "slice_scaling", kind, n] => {
            push("bench", text("slice_scaling"));
            push("rows", int(n.parse().unwrap_or(0)));
            push(
                "mode",
                text(if *kind == "view" {
                    "zero_copy"
                } else {
                    "force_copy"
                }),
            );
        }
        ["engine", "ablate_candidates", strategy] => {
            push("bench", text("ablate_candidates"));
            push("strategy", text(strategy));
        }
        ["engine", "str_kernels", kernel] => {
            push("bench", text("str_kernels"));
            push("kernel", text(kernel));
            push("sf", num(0.05));
        }
        ["engine", "profiling_overhead", profiler] => {
            push("bench", text("profiling_overhead"));
            push("profiler", text(profiler));
        }
        _ => push("bench", text("engine_other")),
    }
    fields
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_parallel_speedup, bench_slice_scaling, bench_profiling_overhead,
              bench_metrics_overhead, bench_ablate_candidates, bench_str_kernels
}

fn main() {
    benches();
    // Parallel-vs-serial rows only mean something relative to the CPUs
    // the host actually grants (the ledger's `host_cpus`): on a
    // single-CPU container the parallel rows measure pure scheduling
    // overhead, not speedup.
    ledger::record(|name| Some(describe(name)));
}
