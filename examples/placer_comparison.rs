//! Placer comparison: reproduce one row of the paper's Table III by placing
//! the same synthesized benchmark with the GORDIAN-based baseline, TAAS and
//! SuperFlow and comparing wirelength, buffer lines and worst negative slack.
//!
//! ```text
//! cargo run --release --example placer_comparison [circuit]
//! ```
//!
//! `circuit` is one of `adder8`, `apc32`, `apc128`, `decoder`, `sorter32`,
//! `c432`, `c499`, `c1355`, `c1908` (default `apc32`).

use std::time::Instant;

use aqfp_place::PlacerKind;
use superflow_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requested = std::env::args().nth(1).unwrap_or_else(|| "apc32".to_owned());
    let benchmark = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == requested)
        .ok_or_else(|| format!("unknown circuit `{requested}`"))?;

    let library = Technology::mit_ll_sqf5ee();
    println!("synthesizing {benchmark} for the {} process...", library.rules().name);
    let synthesized = Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark))?;
    println!(
        "  {} JJs, {} nets, {} clock phases\n",
        synthesized.stats.jj_count, synthesized.stats.net_count, synthesized.stats.delay
    );

    let engine = PlacementEngine::new(library);
    println!(
        "{:<15} {:>12} {:>10} {:>10} {:>12}",
        "placer", "HPWL (um)", "buffers", "WNS (ps)", "runtime (s)"
    );
    for placer in PlacerKind::ALL {
        let start = Instant::now();
        let result = engine.place(&synthesized, placer);
        println!(
            "{:<15} {:>12.0} {:>10} {:>10} {:>12.2}",
            placer.name(),
            result.hpwl_um,
            result.buffer_lines,
            result.wns_display(),
            start.elapsed().as_secs_f64(),
        );
    }
    println!("\nExpected shape (paper, Table III): SuperFlow achieves the best or near-best");
    println!("wirelength and timing; the GORDIAN-based placer can win HPWL on small circuits");
    println!("but loses timing; TAAS sits in between.");
    Ok(())
}
