//! Golden-GDS byte-identity: the committed benchmark layouts at the
//! repository root pin the flow's output bit for bit, guarding the
//! data-driven `Technology` migration (and any future refactor) against
//! silent output drift.
//!
//! Provenance of the goldens: `adder8.gds` was produced with the
//! paper-default configuration, `decoder.gds` and `apc32.gds` with the
//! `--fast` configuration — all on the built-in `mit-ll-sqf5ee` technology.

use aqfp_layout::LayoutGenerator;
use superflow_suite::prelude::*;

fn golden_bytes(name: &str) -> Vec<u8> {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read golden `{path}`: {e}"))
}

fn assert_matches_golden(config: FlowConfig, benchmark: Benchmark, golden: &str) {
    let mut session = FlowSession::new(config).expect("session opens");
    let checked = session.run(&benchmark_circuit(benchmark)).expect("flow succeeds");
    let produced = checked.layout.to_gds_bytes();
    let expected = golden_bytes(golden);
    assert_eq!(
        produced.len(),
        expected.len(),
        "{golden}: GDS stream length changed ({} vs {} bytes)",
        produced.len(),
        expected.len()
    );
    assert!(produced == expected, "{golden}: GDS bytes diverged from the committed golden");

    // The streaming writer must emit the exact same record stream without
    // ever materializing the in-memory `GdsLibrary`: re-derive the layout
    // record by record from the final (post-repair) placement and routing.
    let mut streamed = Vec::new();
    let summary = LayoutGenerator::new(Technology::mit_ll_sqf5ee())
        .stream_layout(checked.routed.design(), &checked.routed.routing, &mut streamed)
        .expect("writing to a Vec cannot fail");
    assert!(
        streamed == expected,
        "{golden}: streamed GDS bytes diverged from the committed golden"
    );
    assert_eq!(summary.cell_instances, checked.layout.cell_instances);
    assert_eq!(summary.wire_paths, checked.layout.wire_paths);
}

#[test]
fn adder8_matches_the_committed_golden() {
    assert_matches_golden(FlowConfig::paper_default(), Benchmark::Adder8, "adder8.gds");
}

#[test]
fn apc32_matches_the_committed_golden() {
    assert_matches_golden(FlowConfig::fast(), Benchmark::Apc32, "apc32.gds");
}

/// The decoder is the largest golden (~74k routed nets); unoptimized builds
/// take ~30 s on it, so the byte-for-byte check runs in release builds
/// (`cargo test --release`) and is skipped under debug assertions.
#[test]
fn decoder_matches_the_committed_golden() {
    if cfg!(debug_assertions) {
        eprintln!("skipping decoder golden in debug builds (run with --release)");
        return;
    }
    assert_matches_golden(FlowConfig::fast(), Benchmark::Decoder, "decoder.gds");
}

/// The byte-identity also holds for a technology loaded from a dumped file:
/// the whole point of the data-driven PDK is that the built-in and its dump
/// are the same process.
#[test]
fn adder8_golden_reproduces_from_a_dumped_technology_file() {
    let dir = std::env::temp_dir().join("superflow_golden_tech");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mit-ll-sqf5ee.toml");
    std::fs::write(&path, Technology::mit_ll_sqf5ee().to_toml().expect("dumps")).expect("writes");
    let config = FlowConfig::paper_default()
        .with_tech(TechSpec::file(path.to_str().expect("utf-8 temp path")));
    assert_matches_golden(config, Benchmark::Adder8, "adder8.gds");
}
