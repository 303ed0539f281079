//! Golden dot text for the named queries.
//!
//! The dot text is what the server sends before execution and what the
//! textual Stethoscope parses, lays out and colors, so its bytes are a
//! contract between the two sides. This test pins
//! `plan_to_dot(plan, style)` of every `stetho_tpch::queries::all()`
//! query at mitosis partitions 1 and 8, in both label styles, one
//! fixture per plan and style under
//! `tests/fixtures/dot/<query>_p<k>.<style>.dot`. The plans are the ones
//! `tests/plan_golden.rs` pins, compiled over the same tiny catalog.
//!
//! `plan_to_dot` writes the text straight from the plan; a second test
//! checks it against the `Graph` path, `write_dot(&plan_to_graph(..))`.
//!
//! Regenerate the files after an *intentional* format change with:
//! `UPDATE_GOLDEN=1 cargo test --test dot_golden`.

use std::path::PathBuf;

use stethoscope::dot::{plan_to_dot, plan_to_graph, write_dot, LabelStyle};
use stethoscope::sql::opt::mitosis::GROUPED_MIN_ROWS;
use stethoscope::sql::opt::Pipeline;
use stethoscope::sql::{compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

const PARTITIONS: [usize; 2] = [1, 8];
const STYLES: [(LabelStyle, &str); 2] = [
    (LabelStyle::FullStatement, "full"),
    (LabelStyle::Short, "short"),
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/dot")
        .join(format!("{name}.dot"))
}

/// Compare `dot` with fixture `name` (or rewrite the fixture under
/// `UPDATE_GOLDEN`); returns the drift, if any.
fn check(name: &str, dot: &str, update: bool) -> Option<String> {
    let path = fixture_path(name);
    if update {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, dot).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{path:?} missing; regenerate with UPDATE_GOLDEN=1"));
    (golden != dot).then(|| {
        let line = golden
            .lines()
            .zip(dot.lines())
            .position(|(g, l)| g != l)
            .map_or_else(|| "line count".to_string(), |i| format!("line {}", i + 1));
        format!("{name}: first difference at {line}")
    })
}

#[test]
fn named_query_dot_text_matches_golden_files() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let catalog = generate_catalog(&TpchConfig::sf(0.0005));
    let mut drifted = Vec::new();
    for (name, sql) in queries::all() {
        for k in PARTITIONS {
            let plan = compile_with(&catalog, sql, &CompileOptions::with_partitions(k))
                .unwrap_or_else(|e| panic!("{name} at {k} partitions: {e}"))
                .plan;
            for (style, tag) in STYLES {
                let dot = plan_to_dot(&plan, style);
                drifted.extend(check(&format!("{name}_p{k}.{tag}"), &dot, update));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "dot text drifted from the golden files:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn direct_dot_text_equals_the_graph_writer() {
    let catalog = generate_catalog(&TpchConfig::sf(0.0005));
    let mut plans = Vec::new();
    for (name, sql) in queries::all() {
        for k in [1, 4, 8, 96] {
            for skip_optimizers in [false, true] {
                let opts = CompileOptions {
                    partitions: k,
                    skip_optimizers,
                    ..CompileOptions::default()
                };
                let q = compile_with(&catalog, sql, &opts)
                    .unwrap_or_else(|e| panic!("{name} at {k} partitions: {e}"));
                plans.push((format!("{name}_p{k}_skip{skip_optimizers}"), q.plan));
            }
        }
    }
    // Q1 with its group chain run per partition, the largest plan shape.
    let unoptimized = compile_with(
        &catalog,
        queries::Q1,
        &CompileOptions {
            skip_optimizers: true,
            ..CompileOptions::default()
        },
    )
    .unwrap()
    .unoptimized;
    let (grouped, _) = Pipeline::default_pipeline(8, GROUPED_MIN_ROWS * 8)
        .run(&unoptimized)
        .unwrap();
    plans.push(("q1_p8_grouped".to_string(), grouped));
    for (name, plan) in &plans {
        for (style, tag) in STYLES {
            assert_eq!(
                plan_to_dot(plan, style),
                write_dot(&plan_to_graph(plan, style)),
                "{name}.{tag}"
            );
        }
    }
}
