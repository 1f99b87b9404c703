//! Tables II–IV on the path the flow ships.
//!
//! [`fidelity_row`] opens one [`FlowSession`] on
//! [`FlowConfig::paper_default`] per circuit and synthesizes once: that is
//! Table II. It places clones of the one synthesized artifact under each
//! placer, switching [`FlowConfig::placer`] between calls: that is
//! Table III. The SuperFlow placement then goes through `route` and
//! `check`, so Table IV is read twice: from the routed design, and from the
//! checked design the flow writes as GDS.
//!
//! Every value sits next to the paper's ([`mod@crate::reference`]) and
//! their ratio. [`FidelityRow`] is the row type of `BENCH_fidelity.json`.
//! It holds no wall-clock or host field, and the flow is byte-identical
//! across thread counts and processes, so a rerun on any host writes the
//! same bytes.

use std::collections::BTreeMap;

use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
use aqfp_place::{PlacementResult, PlacerKind};
use serde::{Deserialize, Serialize, Value};
use superflow::{FlowConfig, FlowError, FlowSession, Routed};

use crate::reference::{self, PaperPlacerColumns, PaperTable4Row};

/// One of our values next to the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Versus {
    /// Our value.
    pub ours: f64,
    /// The paper's value.
    pub paper: f64,
    /// `ours / paper`; `None` when either is 0 (a WNS that meets timing,
    /// which the paper prints as `-`).
    pub ratio: Option<f64>,
}

impl Versus {
    fn new(ours: f64, paper: f64) -> Self {
        Self { ours, paper, ratio: (ours != 0.0 && paper != 0.0).then(|| ours / paper) }
    }

    fn count(ours: usize, paper: usize) -> Self {
        Self::new(ours as f64, paper as f64)
    }
}

/// Table II: the synthesized netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisColumns {
    /// Josephson junctions after synthesis (buffers and splitters included).
    pub jjs: Versus,
    /// Nets after synthesis.
    pub nets: Versus,
    /// Circuit depth in clock phases.
    pub delay: Versus,
}

/// Table III: one placer's result. Runtime is left out: it is wall-clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacerColumns {
    /// Half-perimeter wirelength in µm.
    pub hpwl_um: Versus,
    /// Inserted buffer lines.
    pub buffer_lines: Versus,
    /// Worst negative slack in ps; 0 when timing is met.
    pub wns_ps: Versus,
}

impl PlacerColumns {
    fn new(placement: &PlacementResult, paper: &PaperPlacerColumns) -> Self {
        let timing = &placement.timing;
        let wns = if timing.meets_timing() { 0.0 } else { timing.wns_ps };
        Self {
            hpwl_um: Versus::new(placement.hpwl_um, paper.hpwl),
            buffer_lines: Versus::count(placement.buffer_lines, paper.buffers),
            wns_ps: Versus::new(wns, paper.wns.unwrap_or(0.0)),
        }
    }
}

/// Table IV: a routed design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedColumns {
    /// Josephson junctions of every placed cell.
    pub jjs: Versus,
    /// Nets of the placed design.
    pub nets: Versus,
    /// Total routed wirelength in µm.
    pub wirelength_um: Versus,
    /// Total via count.
    pub vias: usize,
    /// Space expansions the router needed.
    pub space_expansions: usize,
    /// Nets that failed to route (0 in a healthy run).
    pub failed_nets: usize,
}

impl RoutedColumns {
    fn new(routed: &Routed, paper: &PaperTable4Row) -> Self {
        let stats = &routed.routing.stats;
        Self {
            jjs: Versus::count(routed.routing.jj_count, paper.jjs_after_routing),
            nets: Versus::count(routed.design().net_count(), paper.nets),
            wirelength_um: Versus::new(stats.total_wirelength_um, paper.routed_wirelength),
            vias: stats.total_vias,
            space_expansions: stats.space_expansions,
            failed_nets: stats.failed_nets,
        }
    }
}

/// Table IV after `check`: the design the flow writes as GDS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckedColumns {
    /// The repaired design's Table IV columns.
    pub routed: RoutedColumns,
    /// DRC violations `check` left, by kind.
    pub residual_violations: BTreeMap<String, usize>,
    /// DRC-repair iterations `check` ran.
    pub repair_iterations: usize,
    /// Buffer lines of the repaired design: placement's plus the repair's.
    pub buffer_lines: usize,
}

/// One circuit's Tables II–IV: a row of `BENCH_fidelity.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityRow {
    /// The circuit.
    pub circuit: String,
    /// Table II.
    pub synthesis: SynthesisColumns,
    /// Table III, GORDIAN-based baseline.
    pub gordian: PlacerColumns,
    /// Table III, TAAS baseline.
    pub taas: PlacerColumns,
    /// Table III, SuperFlow.
    pub superflow: PlacerColumns,
    /// Table IV before `check`.
    pub routed: RoutedColumns,
    /// Table IV after `check`.
    pub checked: CheckedColumns,
}

/// Runs `circuit` through one paper-default session: synthesis, placement
/// under every placer, then routing and `check` of the SuperFlow placement.
///
/// # Errors
///
/// Returns the error of the first stage that fails.
pub fn fidelity_row(circuit: Benchmark) -> Result<FidelityRow, FlowError> {
    let paper2 = reference::paper_table2(circuit).expect("every benchmark has a Table II row");
    let paper3 = reference::paper_table3(circuit).expect("every benchmark has a Table III row");
    let paper4 = reference::paper_table4(circuit).expect("every benchmark has a Table IV row");

    let mut session = FlowSession::new(FlowConfig::paper_default())?;
    let synthesized = session.synthesize(&benchmark_circuit(circuit))?;
    let stats = synthesized.stats();
    let synthesis = SynthesisColumns {
        jjs: Versus::count(stats.jj_count, paper2.jjs),
        nets: Versus::count(stats.net_count, paper2.nets),
        delay: Versus::count(stats.delay, paper2.delay),
    };
    let mut place = |placer| {
        session.config_mut().placer = placer;
        session.place(synthesized.clone())
    };
    let gordian = place(PlacerKind::GordianBased)?;
    let taas = place(PlacerKind::Taas)?;
    let superflow = place(PlacerKind::SuperFlow)?;
    let superflow_columns = PlacerColumns::new(&superflow.placement, &paper3.superflow);

    let routed = session.route(superflow)?;
    let routed_columns = RoutedColumns::new(&routed, paper4);
    let checked = session.check(routed)?;
    let mut residual_violations = BTreeMap::new();
    for violation in &checked.drc.violations {
        *residual_violations.entry(format!("{:?}", violation.kind)).or_insert(0) += 1;
    }
    Ok(FidelityRow {
        circuit: circuit.to_string(),
        synthesis,
        gordian: PlacerColumns::new(&gordian.placement, &paper3.gordian),
        taas: PlacerColumns::new(&taas.placement, &paper3.taas),
        superflow: superflow_columns,
        routed: routed_columns,
        checked: CheckedColumns {
            routed: RoutedColumns::new(&checked.routed, paper4),
            residual_violations,
            repair_iterations: checked.drc_iterations,
            buffer_lines: checked.routed.placed.placement.buffer_lines,
        },
    })
}

/// Geometric-mean ratio of a metric between two placers across all rows,
/// mirroring the normalized "Average" row of Table III.
fn geo_mean_ratio<F: Fn(&FidelityRow) -> (f64, f64)>(rows: &[FidelityRow], metric: F) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let sum: f64 = rows
        .iter()
        .map(|row| {
            let (numerator, denominator) = metric(row);
            (numerator / denominator).max(1e-9).ln()
        })
        .sum();
    (sum / rows.len() as f64).exp()
}

/// A count, HPWL or wirelength as the tables print it.
fn whole(value: f64) -> String {
    format!("{value:.0}")
}

/// A WNS the way the paper prints it: `-` when timing is met.
fn wns(value: f64) -> String {
    if value == 0.0 {
        "-".to_owned()
    } else {
        format!("{value:.1}")
    }
}

/// Formats Table II next to the paper's values.
pub fn format_table2(rows: &[FidelityRow]) -> String {
    let header =
        ["Circuit", "#JJs", "#Nets", "#Delay", "paper #JJs", "paper #Nets", "paper #Delay"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let SynthesisColumns { jjs, nets, delay } = &row.synthesis;
            vec![
                row.circuit.clone(),
                whole(jjs.ours),
                whole(nets.ours),
                whole(delay.ours),
                whole(jjs.paper),
                whole(nets.paper),
                whole(delay.paper),
            ]
        })
        .collect();
    crate::format_table(&header, &body)
}

/// Formats Table III next to the paper's SuperFlow values, followed by the
/// geometric-mean ratios of the baselines against SuperFlow.
pub fn format_table3(rows: &[FidelityRow]) -> String {
    let header = [
        "Circuit",
        "GORDIAN HPWL",
        "GORDIAN Buf",
        "GORDIAN WNS",
        "TAAS HPWL",
        "TAAS Buf",
        "TAAS WNS",
        "SF HPWL",
        "SF Buf",
        "SF WNS",
        "paper SF HPWL",
        "paper SF Buf",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.circuit.clone()];
            for placer in [&row.gordian, &row.taas, &row.superflow] {
                cells.extend([
                    whole(placer.hpwl_um.ours),
                    whole(placer.buffer_lines.ours),
                    wns(placer.wns_ps.ours),
                ]);
            }
            cells.extend([
                whole(row.superflow.hpwl_um.paper),
                whole(row.superflow.buffer_lines.paper),
            ]);
            cells
        })
        .collect();
    let mut out = crate::format_table(&header, &body);
    if !rows.is_empty() {
        let buffers = |placer: &PlacerColumns| placer.buffer_lines.ours.max(1.0);
        out.push_str(&format!(
            "\nNormalized averages (ratio vs SuperFlow, geometric mean):\n\
             GORDIAN/SuperFlow HPWL: {:.3}   TAAS/SuperFlow HPWL: {:.3}\n\
             GORDIAN/SuperFlow buffers: {:.3}   TAAS/SuperFlow buffers: {:.3}\n",
            geo_mean_ratio(rows, |r| (r.gordian.hpwl_um.ours, r.superflow.hpwl_um.ours)),
            geo_mean_ratio(rows, |r| (r.taas.hpwl_um.ours, r.superflow.hpwl_um.ours)),
            geo_mean_ratio(rows, |r| (buffers(&r.gordian), buffers(&r.superflow))),
            geo_mean_ratio(rows, |r| (buffers(&r.taas), buffers(&r.superflow))),
        ));
    }
    out
}

/// Formats Table IV twice next to the paper's values: the routed design
/// before `check`, then the checked design the flow writes as GDS with its
/// buffer lines, repair iterations and residual violations.
pub fn format_table4(rows: &[FidelityRow]) -> String {
    let header = [
        "Circuit",
        "#JJs",
        "#Nets",
        "Routed WL (um)",
        "Vias",
        "Expansions",
        "paper #JJs",
        "paper #Nets",
        "paper WL (um)",
    ];
    let routed_cells = |circuit: &str, routed: &RoutedColumns| {
        vec![
            circuit.to_owned(),
            whole(routed.jjs.ours),
            whole(routed.nets.ours),
            whole(routed.wirelength_um.ours),
            routed.vias.to_string(),
            routed.space_expansions.to_string(),
            whole(routed.jjs.paper),
            whole(routed.nets.paper),
            whole(routed.wirelength_um.paper),
        ]
    };
    let before: Vec<Vec<String>> =
        rows.iter().map(|row| routed_cells(&row.circuit, &row.routed)).collect();
    let after: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let checked = &row.checked;
            let residual: Vec<String> = checked
                .residual_violations
                .iter()
                .map(|(kind, count)| format!("{count} {kind}"))
                .collect();
            let mut cells = routed_cells(&row.circuit, &checked.routed);
            cells.extend([
                checked.buffer_lines.to_string(),
                checked.repair_iterations.to_string(),
                if residual.is_empty() { "-".to_owned() } else { residual.join(", ") },
            ]);
            cells
        })
        .collect();
    let mut after_header = header.to_vec();
    after_header.extend(["Buffer lines", "Repairs", "Residual DRC"]);
    format!(
        "Before `check` (routed):\n{}\nAfter `check` (the design the flow writes as GDS):\n{}",
        crate::format_table(&header, &before),
        crate::format_table(&after_header, &after)
    )
}

/// Compares `rows` against the committed `BENCH_fidelity.json` at `path`,
/// printing only the fields that changed, then rewrites the file, unless
/// `quick` is set: a quick run covers [`crate::QUICK_CIRCUITS`] only.
pub fn compare_and_emit(path: &str, rows: Vec<FidelityRow>, quick: bool) {
    let skip = quick.then_some("--quick run");
    crate::compare_and_rewrite(path, "fidelity tables", &rows, skip, |committed, fresh| {
        let mut changed = 0;
        for row in fresh {
            match committed.iter().find(|old| old.circuit == row.circuit) {
                Some(old) => {
                    changed += print_changes(&row.circuit, &old.to_value(), &row.to_value())
                }
                None => println!("  {} (new row, no committed values)", row.circuit),
            }
        }
        if changed == 0 {
            println!("  no field changed");
        }
    });
}

/// Prints every field under `path` whose value differs between `committed`
/// and `fresh` as `path: old -> new`, and returns how many differ.
fn print_changes(path: &str, committed: &Value, fresh: &Value) -> usize {
    static MISSING: Value = Value::Null;
    match (committed, fresh) {
        (Value::Map(old), Value::Map(new)) => {
            let removed = old.iter().filter(|(key, _)| fresh.field(key).is_err());
            new.iter()
                .chain(removed)
                .map(|(key, _)| {
                    print_changes(
                        &format!("{path}.{key}"),
                        committed.field(key).unwrap_or(&MISSING),
                        fresh.field(key).unwrap_or(&MISSING),
                    )
                })
                .sum()
        }
        _ if committed == fresh => 0,
        _ => {
            let leaf = |value: &Value| match value {
                Value::F64(number) => number.to_string(),
                Value::U64(number) => number.to_string(),
                Value::Null => "null".to_owned(),
                other => format!("{other:?}"),
            };
            println!("  {path}: {} -> {}", leaf(committed), leaf(fresh));
            1
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use std::sync::OnceLock;

    use superflow::Flow;

    use super::*;

    /// adder8 and apc32, run once for every test that reads them.
    fn quick_rows() -> &'static [FidelityRow] {
        static ROWS: OnceLock<Vec<FidelityRow>> = OnceLock::new();
        ROWS.get_or_init(|| {
            [Benchmark::Adder8, Benchmark::Apc32]
                .into_iter()
                .map(|circuit| fidelity_row(circuit).unwrap())
                .collect()
        })
    }

    #[test]
    fn quick_rows_have_plausible_magnitudes() {
        for row in quick_rows() {
            let SynthesisColumns { jjs, nets, delay } = &row.synthesis;
            assert!(jjs.ours > 0.0 && nets.ours > 0.0 && delay.ours > 0.0);
            // The regenerated netlists should land within a factor of ~4 of
            // the paper's JJ counts — same order of magnitude.
            let ratio = jjs.ratio.unwrap();
            assert!(
                (0.25..=4.0).contains(&ratio),
                "{}: JJ count {} vs paper {} (ratio {ratio:.2})",
                row.circuit,
                jjs.ours,
                jjs.paper
            );
        }
    }

    #[test]
    fn formatting_includes_every_circuit() {
        let text = format_table2(quick_rows());
        assert!(text.contains("adder8") && text.contains("apc32"));
        assert!(text.contains("paper #JJs"));
    }

    #[test]
    fn superflow_wins_wirelength_on_the_quick_set() {
        let taas_ratio =
            geo_mean_ratio(quick_rows(), |r| (r.taas.hpwl_um.ours, r.superflow.hpwl_um.ours));
        assert!(
            taas_ratio > 1.0,
            "SuperFlow should beat TAAS on HPWL on average (ratio {taas_ratio:.3})"
        );
    }

    #[test]
    fn formatting_mentions_every_placer() {
        let text = format_table3(quick_rows());
        assert!(text.contains("adder8") && text.contains("apc32"));
        assert!(text.contains("GORDIAN"));
        assert!(text.contains("TAAS"));
        assert!(text.contains("SF HPWL"));
        assert!(text.contains("paper SF HPWL"));
        assert!(text.contains("Normalized averages"));
    }

    #[test]
    fn geo_mean_of_equal_metrics_is_one() {
        let ratio =
            geo_mean_ratio(quick_rows(), |r| (r.superflow.hpwl_um.ours, r.superflow.hpwl_um.ours));
        assert!((ratio - 1.0).abs() < 1e-9);
        assert_eq!(geo_mean_ratio(&[], |_| (1.0, 1.0)), 1.0);
    }

    #[test]
    fn quick_rows_route_everything() {
        let row = &quick_rows()[0];
        assert_eq!(row.circuit, "adder8");
        assert_eq!(row.routed.failed_nets, 0);
        assert!(row.routed.jjs.ours > 0.0);
        // Routed wirelength stays within a couple of orders of magnitude of
        // the paper.
        let wirelength = row.routed.wirelength_um;
        assert!(
            (0.05..=50.0).contains(&wirelength.ratio.unwrap()),
            "routed wirelength {:.0} wildly off paper {:.0}",
            wirelength.ours,
            wirelength.paper
        );
    }

    #[test]
    fn formatting_contains_reference_columns() {
        let text = format_table4(quick_rows());
        assert!(text.contains("adder8") && text.contains("apc32"));
        assert!(text.contains("paper WL"));
        assert!(text.contains("Residual DRC"));
    }

    #[test]
    fn checked_columns_are_the_design_the_flow_writes() {
        let row = &quick_rows()[0];
        let report = Flow::with_config(FlowConfig::paper_default())
            .run_benchmark(Benchmark::Adder8)
            .unwrap();
        let checked = &row.checked;
        assert!(checked.routed.jjs.ours >= row.routed.jjs.ours);
        assert_eq!(checked.routed.jjs.ours, report.jj_after_routing() as f64);
        assert_eq!(
            checked.residual_violations.values().sum::<usize>(),
            report.drc.violations.len()
        );
        assert_eq!(checked.repair_iterations, report.drc_iterations);
        assert_eq!(checked.buffer_lines, report.placement.buffer_lines);
    }

    #[test]
    fn fidelity_rows_round_trip_through_serde() {
        let rows = quick_rows().to_vec();
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<FidelityRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn changes_are_counted_per_field() {
        let row = &quick_rows()[0];
        let mut edited = row.clone();
        edited.checked.repair_iterations += 1;
        edited.checked.residual_violations.insert("CellSpacing".into(), 2);
        assert_eq!(print_changes("adder8", &row.to_value(), &row.to_value()), 0);
        assert_eq!(print_changes("adder8", &row.to_value(), &edited.to_value()), 2);
        assert_eq!(print_changes("adder8", &edited.to_value(), &row.to_value()), 2);
    }
}
