//! Byte-for-byte pin of the SVG writer and parser on a real plan.
//!
//! `tests/fixtures/q1_mitosis8.svg` is the `write_svg` output for the
//! laid-out dot of TPC-H Q1 compiled with 8 mitosis partitions, and
//! `tests/fixtures/q1_mitosis8.scene.txt` is the `Debug` rendering, one
//! node or edge per line, of the scene `parse_svg` reads back from it
//! (`f64` `Debug` is exact, so equal text means equal values). Both were
//! produced by the writer and parser before they were optimised; any
//! change to the SVG bytes or to the parsed scene fails here.
//!
//! Regenerate after an *intentional* format change with:
//! `UPDATE_GOLDEN=1 cargo test --test svg_fixture`.

use std::path::PathBuf;

use stethoscope::dot::{parse_dot, plan_to_dot, LabelStyle};
use stethoscope::layout::{layout, parse_svg, write_svg, LayoutOptions};
use stethoscope::sql::{compile_with, CompileOptions};
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn q1_mitosis8_svg() -> String {
    let catalog = generate_catalog(&TpchConfig {
        scale_factor: 0.001,
        seed: 1,
    });
    let opts = CompileOptions {
        plan_name: "user.q1".into(),
        partitions: 8,
        skip_optimizers: false,
    };
    let plan = compile_with(&catalog, queries::Q1, &opts).unwrap().plan;
    let dot = plan_to_dot(&plan, LabelStyle::FullStatement);
    let graph = parse_dot(&dot).unwrap();
    write_svg(&layout(&graph, &LayoutOptions::default()))
}

fn check_pinned(name: &str, actual: &str, update: bool) {
    let path = fixture_path(name);
    if update {
        std::fs::write(&path, actual).unwrap();
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name} missing; regenerate with UPDATE_GOLDEN=1"));
    if pinned != actual {
        let line = pinned
            .lines()
            .zip(actual.lines())
            .position(|(p, a)| p != a)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!("{name} drifted from the pinned fixture at {line}");
    }
}

#[test]
fn q1_svg_and_parsed_scene_match_the_pinned_fixtures() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let svg = q1_mitosis8_svg();
    check_pinned("q1_mitosis8.svg", &svg, update);
    let scene = parse_svg(&svg).unwrap();
    assert!(scene.nodes.len() > 100, "{} nodes", scene.nodes.len());
    let mut rendered = format!("{} x {}\n", scene.width, scene.height);
    for n in &scene.nodes {
        rendered.push_str(&format!("{n:?}\n"));
    }
    for e in &scene.edges {
        rendered.push_str(&format!("{e:?}\n"));
    }
    check_pinned("q1_mitosis8.scene.txt", &rendered, update);
}
