//! Quickstart: drive the SuperFlow RTL-to-GDS pipeline stage by stage on a
//! small hand-written structural-Verilog module and write the resulting
//! layout.
//!
//! The staged [`FlowSession`] API runs the same pipeline as the push-button
//! `FlowSession::run`, but hands back a typed artifact after every stage —
//! synthesis, placement, routing, DRC — so each one can be inspected (or
//! serialized as a resumable JSON checkpoint) before the next stage runs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use superflow_suite::prelude::*;

const FULL_ADDER: &str = r#"
    // A one-bit full adder: the classic AQFP showcase, because the carry
    // function maps onto a single majority gate.
    module full_adder(a, b, cin, sum, cout);
      input a, b, cin;
      output sum, cout;
      wire ab, s1, t1, t2, t3, u1;
      xor g1(ab, a, b);
      xor g2(sum, ab, cin);
      and g3(t1, a, b);
      and g4(t2, b, cin);
      and g5(t3, cin, a);
      or  g6(u1, t1, t2);
      or  g7(cout, u1, t3);
    endmodule
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Configure the flow with the builder API: the built-in MIT-LL
    //    technology (any `TechSpec` works here — a registry name, a dumped
    //    tech file, or an inline `Technology` value), SuperFlow placer,
    //    default knobs — then open a staged session.
    let config = FlowConfig::paper_default()
        .with_tech(TechSpec::builtin(aqfp_cells::MIT_LL_SQF5EE))
        .with_placer(aqfp_place::PlacerKind::SuperFlow);
    let mut session = FlowSession::new(config)?;

    // 2. Synthesis: majority conversion, splitters, path balancing
    //    (Table II columns).
    let netlist = aqfp_netlist::parsers::parse_verilog(FULL_ADDER)?;
    let synthesized = session.synthesize(&netlist)?;
    println!("design          : {}", synthesized.design_name);
    println!("-- synthesis (Table II columns) --");
    println!("  JJs           : {}", synthesized.stats().jj_count);
    println!("  nets          : {}", synthesized.stats().net_count);
    println!("  delay (phases): {}", synthesized.stats().delay);
    println!("  buffers       : {}", synthesized.stats().buffer_count);
    println!("  splitters     : {}", synthesized.stats().splitter_count);

    // 3. Placement: global + legalization + detailed, then buffer rows
    //    (Table III columns). The artifact could be checkpointed here with
    //    `placed.to_json()` and resumed in a later session.
    let placed = session.place(synthesized)?;
    println!("-- placement (Table III columns) --");
    println!("  HPWL          : {:.0} um", placed.placement.hpwl_um);
    println!("  buffer lines  : {}", placed.placement.buffer_lines);
    println!("  WNS           : {} ps", placed.placement.wns_display());

    // 4. Routing: layer-wise channel routing with space expansion
    //    (Table IV columns).
    let routed = session.route(placed)?;
    println!("-- routing (Table IV columns) --");
    println!("  routed nets   : {}", routed.routing.stats.nets_routed);
    println!("  routed length : {:.0} um", routed.routing.stats.total_wirelength_um);
    println!("  vias          : {}", routed.routing.stats.total_vias);

    // 5. Signoff: layout generation + DRC with incremental violation repair
    //    (only channels whose cells moved are rerouted).
    let checked = session.check(routed)?;
    println!("-- signoff --");
    println!(
        "  DRC           : {} ({} repair iterations)",
        if checked.drc.is_clean() { "clean" } else { "violations remain" },
        checked.drc_iterations,
    );

    // 6. Write the GDSII layout and the per-stage timings the session
    //    collected.
    let gds = checked.layout.to_gds_bytes();
    std::fs::write("full_adder.gds", &gds)?;
    println!("  GDS           : full_adder.gds ({} bytes)", gds.len());
    let timings = session.timings();
    println!(
        "  stage times   : synth {:.2}s / place {:.2}s / route {:.2}s / check {:.2}s",
        timings.synthesis_s, timings.placement_s, timings.routing_s, timings.check_s,
    );
    Ok(())
}
