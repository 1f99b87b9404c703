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

    let mut session = FlowSession::new(FlowConfig::paper_default())?;
    println!("running the full RTL-to-GDS flow on {benchmark}...");
    let checked = session.run(&benchmark_circuit(benchmark))?;

    println!("{}; {:.1}s", checked.summary(), session.timings().total_s());
    let layout = &checked.layout;
    println!("layout statistics:");
    println!("  cell instances : {}", layout.cell_instances);
    println!("  wire paths     : {}", layout.wire_paths);
    println!("  chip size      : {:.0} x {:.0} um", layout.width_um, layout.height_um);
    println!("  DRC iterations : {}", checked.drc_iterations);

    let path = format!("{benchmark}.gds");
    std::fs::write(&path, layout.to_gds_bytes())?;
    println!("wrote {path} — open it in any GDSII viewer (e.g. KLayout) to see the Fig. 5 layout");
    Ok(())
}
