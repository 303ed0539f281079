//! Golden MAL plans for the named queries.
//!
//! Every node Stethoscope draws is a statement of a generated plan, so a
//! change to SQL→MAL code generation or to the optimizer pipeline shows
//! up in the dot files, the traces and the SVG scenes. This test pins
//! `Plan::listing()` of every `stetho_tpch::queries::all()` query at
//! mitosis partitions 1 and 8, one fixture per plan under
//! `tests/fixtures/plans/<query>_p<k>.mal`.
//!
//! Plans depend only on the schema (mitosis computes its bounds at run
//! time), so the tiny catalog below stands for any TPC-H scale.
//!
//! Regenerate the files after an *intentional* plan change with:
//! `UPDATE_GOLDEN=1 cargo test --test plan_golden`.

use std::path::PathBuf;

use stethoscope::sql::{compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

const PARTITIONS: [usize; 2] = [1, 8];

fn fixture_path(query: &str, partitions: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/plans")
        .join(format!("{query}_p{partitions}.mal"))
}

#[test]
fn named_query_plans_match_golden_listings() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let catalog = generate_catalog(&TpchConfig::sf(0.0005));
    let all = queries::all();
    for needed in ["busy_shipmodes", "distinct_flags"] {
        assert!(all.iter().any(|(n, _)| *n == needed), "{needed} not pinned");
    }
    let mut drifted = Vec::new();
    for (name, sql) in all {
        for k in PARTITIONS {
            let q = compile_with(&catalog, sql, &CompileOptions::with_partitions(k))
                .unwrap_or_else(|e| panic!("{name} at {k} partitions: {e}"));
            let listing = q.plan.listing();
            let path = fixture_path(name, k);
            if update {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, &listing).unwrap();
            }
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|_| panic!("{path:?} missing; regenerate with UPDATE_GOLDEN=1"));
            if golden != listing {
                let line = golden
                    .lines()
                    .zip(listing.lines())
                    .position(|(g, l)| g != l)
                    .map_or_else(|| "line count".to_string(), |i| format!("line {}", i + 1));
                drifted.push(format!("{name}_p{k}: first difference at {line}"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "plans drifted from their golden listings:\n{}",
        drifted.join("\n")
    );
}
