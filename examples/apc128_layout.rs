//! Fig. 5 reproduction: run the full flow on the `apc128` approximate
//! parallel counter and write its GDSII layout, mirroring the layout figure
//! in the paper.
//!
//! ```text
//! cargo run --release --example apc128_layout [--quick]
//! ```
//!
//! `--quick` substitutes the smaller apc32 counter, which exercises the same
//! code path. The full apc128 flow takes under a second in a release build
//! (about 0.6 s on a 2-core host).

use superflow_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let benchmark = if quick { Benchmark::Apc32 } else { Benchmark::Apc128 };

    let flow = Flow::with_config(FlowConfig::paper_default());
    println!("running the full RTL-to-GDS flow on {benchmark}...");
    let report = flow.run_benchmark(benchmark)?;

    println!("{}", report.summary());
    println!("layout statistics:");
    println!("  cell instances : {}", report.layout.cell_instances);
    println!("  wire paths     : {}", report.layout.wire_paths);
    println!(
        "  chip size      : {:.0} x {:.0} um",
        report.layout.width_um, report.layout.height_um
    );
    println!("  DRC iterations : {}", report.drc_iterations);

    let path = format!("{}.gds", report.design_name);
    std::fs::write(&path, report.layout.to_gds_bytes())?;
    println!("wrote {path} — open it in any GDSII viewer (e.g. KLayout) to see the Fig. 5 layout");
    Ok(())
}
