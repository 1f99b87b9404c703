//! Metric definitions, the per-run report, and the `--workload all` mode.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use serde::{Deserialize, Serialize};

use crate::host::{SetupSample, REF_NOMINAL_S};
use crate::stats::{median, summary};
use crate::workloads::{LayerRep, Qor, Rep, WORKLOADS};

/// An end-to-end metric. `gated` metrics are defined on every workload and
/// form the result line of an untraced run (the set `BENCHMARK.json`
/// bounds); the others are printed for the workloads they apply to.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub gated: bool,
}

const fn metric(name: &'static str, unit: &'static str, gated: bool) -> Metric {
    Metric { name, unit, gated }
}

/// The end-to-end metrics, in print order.
pub const END_TO_END: [Metric; 15] = [
    metric("setup_s", "s", true),
    metric("flow_s", "s", true),
    metric("verify_s", "s", false),
    metric("resume_s", "s", false),
    metric("peak_rss_mb", "MB", true),
    metric("gds_mb", "MB", false),
    metric("pass_ratio", "ratio", true),
    metric("jj_synth", "count", true),
    metric("phases", "count", true),
    metric("hpwl_um", "um", false),
    metric("buffer_lines", "count", false),
    metric("wns_ps", "ps", false),
    metric("jj_routed", "count", false),
    metric("routed_wl_um", "um", false),
    metric("drc_residual", "count", false),
];

/// The per-layer metrics of a traced run, in print order. A metric whose
/// layer the workload does not exercise is printed as `n/a` and reported
/// as 0 in the result line.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("cells.tech_s", "s"),
    ("synth.table_s", "s"),
    ("netlist.parse_s", "s"),
    ("netlist.gates", "count"),
    ("lint.lint_s", "s"),
    ("predict.predict_s", "s"),
    ("lint.findings", "count"),
    ("synth.synthesize_s", "s"),
    ("synth.maj_s", "s"),
    ("synth.split_s", "s"),
    ("synth.balance_s", "s"),
    ("synth.splitters", "count"),
    ("synth.buffers", "count"),
    ("place.place_s", "s"),
    ("place.global_s", "s"),
    ("place.legalize_s", "s"),
    ("place.detailed_s", "s"),
    ("place.buffer_rows_s", "s"),
    ("place.global_iters", "count"),
    ("place.detailed_moves", "count"),
    ("place.buffer_cells", "count"),
    ("route.route_s", "s"),
    ("route.nets", "count"),
    ("route.failed_nets", "count"),
    ("route.expansions", "count"),
    ("route.vias", "count"),
    ("route.yield", "ratio"),
    ("session.check_s", "s"),
    ("session.repair_iters", "count"),
    ("session.repair_iter_s", "s"),
    ("session.repair_dirty_channels", "count"),
    ("session.repair_violations", "count"),
    ("session.repair_yield", "ratio"),
    ("layout.generate_s", "s"),
    ("layout.drc_s", "s"),
    ("layout.gds_s", "s"),
    ("timing.sta_s", "s"),
    ("timing.tns_ps", "ps"),
    ("verify.lec_s", "s"),
    ("verify.phase_s", "s"),
    ("verify.lvs_s", "s"),
    ("verify.findings", "count"),
    ("session.ckpt_write_s", "s"),
    ("session.ckpt_read_s", "s"),
    ("session.ckpt_mb", "MB"),
    ("batch.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("host.ref_s", "s"),
];

/// One metric in a result line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The JSON object a run prints as its last line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// One end-to-end metric of a run: the median and range of its samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MetricSpread {
    median: f64,
    min: f64,
    max: f64,
    unit: String,
}

/// Every applicable end-to-end metric of a run, which `--workload all`
/// collects from its child runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AllMetrics {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, MetricSpread>,
}

/// Prefix of the line carrying a run's [`AllMetrics`].
const ALL_METRICS_PREFIX: &str = "all-metrics: ";

/// Everything one run measured.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub back_end: bool,
    pub setups: Vec<SetupSample>,
    /// Converts the traced run's wall seconds into reference seconds
    /// (untraced repetitions carry their own process's factor, setup
    /// probes their own block).
    pub factor: f64,
    /// Seconds of every host-speed reference block of the run.
    pub host_blocks: Vec<f64>,
    pub reps: Vec<Rep>,
    pub layer_reps: Vec<LayerRep>,
    /// `VmHWM` of each process that ran the workload.
    pub peak_rss_mb: Vec<f64>,
    pub wall_s: f64,
}

impl Outcome {
    /// Every untraced repetition, including those run beside traced ones.
    fn untraced(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().chain(self.layer_reps.iter().map(|layers| &layers.untraced))
    }

    /// One time of every setup probe, in the reference seconds of the
    /// block the probe ran on its own CPU.
    fn probe_times(&self, pick: fn(&SetupSample) -> f64) -> Vec<f64> {
        self.setups.iter().map(|s| pick(s) * REF_NOMINAL_S / s.block_s).collect()
    }

    fn failures(&self) -> Vec<String> {
        self.untraced().flat_map(|rep| rep.failures.iter().cloned()).collect()
    }

    fn attempted(&self) -> usize {
        self.untraced().map(|rep| rep.attempted).sum()
    }

    /// Samples of each end-to-end metric; `None` where it does not apply.
    fn end_to_end(&self) -> Vec<(Metric, Option<Vec<f64>>)> {
        let times = |pick: fn(&Rep) -> Option<f64>| -> Option<Vec<f64>> {
            self.untraced().map(|rep| pick(rep).map(|t| t * rep.factor)).collect()
        };
        let qor = |pick: fn(&Qor) -> f64, applies: bool| -> Option<Vec<f64>> {
            applies.then(|| self.untraced().map(|rep| pick(&rep.qor)).collect())
        };
        let attempted = self.attempted();
        let passed = attempted.saturating_sub(self.failures().len());
        let back = self.back_end;
        END_TO_END
            .iter()
            .map(|&m| {
                let samples = match m.name {
                    "setup_s" => Some(self.probe_times(|s| s.wall_s)),
                    "flow_s" => times(|rep| Some(rep.flow_s)),
                    "verify_s" => times(|rep| rep.verify_s),
                    "resume_s" => times(|rep| rep.resume_s),
                    "peak_rss_mb" => Some(self.peak_rss_mb.clone()),
                    "pass_ratio" => Some(vec![passed as f64 / attempted.max(1) as f64]),
                    "gds_mb" => qor(|q| q.gds_mb, back),
                    "jj_synth" => qor(|q| q.jj_synth, true),
                    "phases" => qor(|q| q.phases, true),
                    "hpwl_um" => qor(|q| q.hpwl_um, back),
                    "buffer_lines" => qor(|q| q.buffer_lines, back),
                    "wns_ps" => qor(|q| q.wns_ps, back),
                    "jj_routed" => qor(|q| q.jj_routed, back),
                    "routed_wl_um" => qor(|q| q.routed_wl_um, back),
                    "drc_residual" => qor(|q| q.drc_residual, back),
                    other => unreachable!("unlisted end-to-end metric {other}"),
                };
                (m, samples.filter(|s| !s.is_empty()))
            })
            .collect()
    }

    /// Samples of each per-layer metric over the traced repetitions.
    fn per_layer(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let f = self.factor;
        for layers in &self.layer_reps {
            for (name, value) in layer_values(layers, f) {
                samples.entry(name).or_default().push(value);
            }
        }
        samples.insert("cells.tech_s", self.probe_times(|s| s.tech_s));
        samples.insert("synth.table_s", self.probe_times(|s| s.table_s));
        if !self.layer_reps.is_empty() {
            samples.insert(
                "trace.overhead_pct",
                self.layer_reps.iter().map(|l| l.overhead_pct).collect(),
            );
        }
        samples.insert("host.ref_s", self.host_blocks.clone());
        samples
    }

    /// Writes the last traced repetition as Chrome trace-event JSON.
    fn write_trace(&self, path: &Path) -> Result<(), String> {
        let Some(layers) = self.layer_reps.last() else { return Ok(()) };
        let json = layers.tracer.to_chrome_json().map_err(|e| format!("trace: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
    }

    /// Prints the human-readable report and the result line; a traced run
    /// also writes its Chrome trace to `trace_path`.
    pub fn print(&self, trace_path: Option<&Path>) -> Result<(), String> {
        let reps = self.reps.len() + self.layer_reps.len();
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        println!(
            "flowbench: workload {}, seed {}, {} repetition(s){}, {:.1} s, 1 stage thread / \
             1 batch worker on {cpus} available CPU(s)",
            self.workload,
            self.seed,
            reps,
            if trace_path.is_some() { " traced" } else { "" },
            self.wall_s
        );
        let (ref_mid, ref_min, ref_max) = summary(&self.host_blocks);
        println!(
            "host speed reference: {ref_mid:.4} s median over {} blocks ({ref_min:.4}–{ref_max:.4}); \
             times are reference seconds = wall s × {REF_NOMINAL_S} / median block",
            self.host_blocks.len()
        );
        let mid = |pick: fn(&SetupSample) -> f64| {
            median(&mut self.setups.iter().map(pick).collect::<Vec<_>>())
        };
        println!(
            "setup: {} fresh processes, median wall {:.4} s to ready (TechSpec::resolve {:.5} s, \
             FlowSession::new {:.5} s, MappingTable::global {:.5} s)",
            self.setups.len(),
            mid(|s| s.wall_s),
            mid(|s| s.tech_s),
            mid(|s| s.session_s),
            mid(|s| s.table_s),
        );
        let per_rep: Vec<String> = self
            .untraced()
            .map(|rep| format!("{:.4}/{:.4}", rep.flow_s, rep.flow_s * rep.factor))
            .collect();
        println!("flow per repetition, wall/reference seconds: {}", per_rep.join(" "));

        let failures = self.failures();
        for failure in &failures {
            println!("FAIL {}: {failure}", self.workload);
        }
        let mut all = BTreeMap::new();
        let mut gated = BTreeMap::new();
        println!("{:<16} {:<6} {:>14} {:>14} {:>14}", "metric", "unit", "median", "min", "max");
        for (m, samples) in self.end_to_end() {
            let Some(samples) = samples else {
                println!("{:<16} {:<6} {:>14}", m.name, m.unit, "n/a");
                continue;
            };
            let (median, min, max) = summary(&samples);
            println!("{:<16} {:<6} {median:>14.4} {min:>14.4} {max:>14.4}", m.name, m.unit);
            let unit = m.unit.to_owned();
            if m.gated {
                gated.insert(m.name.to_owned(), MetricValue { value: median, unit: unit.clone() });
            }
            all.insert(m.name.to_owned(), MetricSpread { median, min, max, unit });
        }
        let line = |metrics| ResultLine {
            correct: failures.is_empty(),
            attempted: self.attempted(),
            failed: failures.len(),
            metrics,
        };
        let all = AllMetrics {
            correct: failures.is_empty(),
            attempted: self.attempted(),
            failed: failures.len(),
            metrics: all,
        };
        println!("{ALL_METRICS_PREFIX}{}", to_json(&all));

        if let Some(path) = trace_path {
            self.write_trace(path)?;
            let layers = self.per_layer();
            let mut metrics = BTreeMap::new();
            let traced: f64 = self.layer_reps.iter().map(|l| l.traced_flow_s).sum();
            let untraced: f64 = self.layer_reps.iter().map(|l| l.untraced.flow_s).sum();
            let overhead = layers.get("trace.overhead_pct").map_or(0.0, |o| summary(o).0);
            println!(
                "trace: wrote {} (Chrome trace-event JSON); the traced calls on the flow path \
                 took {traced:.4} s wall against {untraced:.4} s untraced, an overhead of \
                 {overhead:+.2}% in reference seconds",
                path.display(),
            );
            println!("per-layer ({} traced repetition(s)):", self.layer_reps.len());
            for (name, unit) in PER_LAYER {
                let value = match layers.get(name) {
                    Some(samples) => {
                        let (mid, min, max) = summary(samples);
                        println!("{name:<30} {unit:<6} {mid:>14.6} {min:>14.6} {max:>14.6}");
                        mid
                    }
                    None => {
                        println!("{name:<30} {unit:<6} {:>14}", "n/a");
                        0.0
                    }
                };
                metrics.insert(name.to_owned(), MetricValue { value, unit: unit.to_owned() });
            }
            println!("{}", to_json(&line(metrics)));
        } else {
            println!("{}", to_json(&line(gated)));
        }
        Ok(())
    }
}

/// Per-layer values of one traced repetition; times in reference seconds.
fn layer_values(layers: &LayerRep, factor: f64) -> BTreeMap<&'static str, f64> {
    let spans = layers.tracer.span_totals();
    let counts = layers.tracer.counter_totals();
    let count = |name: &str| counts.get(name).copied();
    let mut values = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        let value = match (name, unit) {
            ("route.yield", _) => count("route.nets").map(|nets| {
                let failed = count("route.failed_nets").unwrap_or(0.0);
                nets / (nets + failed).max(1.0)
            }),
            ("session.repair_iter_s", _) => {
                let iterations = count("session.repair_iters").unwrap_or(0.0);
                (iterations > 0.0).then(|| {
                    spans.get("session.repair_iter").copied().unwrap_or(0.0) * factor / iterations
                })
            }
            ("session.repair_yield", _) => count("session.repair_entering")
                .filter(|&entering| entering > 0.0)
                .map(|entering| count("session.repair_removed").unwrap_or(0.0) / entering),
            ("batch.overhead_s", _) => count(name).map(|s| s * factor),
            (_, "s") => spans.get(name.trim_end_matches("_s")).map(|seconds| seconds * factor),
            _ => count(name),
        };
        if let Some(value) = value {
            values.insert(name, value);
        }
    }
    values
}

fn to_json<T: Serialize>(line: &T) -> String {
    serde_json::to_string(line).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Runs every workload once, each in its own process, and prints a table
/// of every end-to-end metric per workload (median and min–max over the
/// run's repetitions).
pub fn run_all(child_args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut results: BTreeMap<&str, AllMetrics> = BTreeMap::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run workload {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("workload {workload} exited with {}", output.status));
        }
        let line = stdout
            .lines()
            .find_map(|line| line.strip_prefix(ALL_METRICS_PREFIX))
            .ok_or_else(|| format!("workload {workload} printed no metrics"))?;
        let parsed: AllMetrics = serde_json::from_str(line)
            .map_err(|e| format!("workload {workload} printed bad metrics: {e}"))?;
        results.insert(workload, parsed);
    }

    println!("\nend-to-end metrics per workload, median [min–max] over its repetitions:");
    print!("{:<16} {:<6}", "metric", "unit");
    for workload in WORKLOADS {
        print!(" {workload:>36}");
    }
    println!();
    let mut combined = BTreeMap::new();
    for m in END_TO_END {
        print!("{:<16} {:<6}", m.name, m.unit);
        for workload in WORKLOADS {
            let Some(s) = results[workload].metrics.get(m.name) else {
                print!(" {:>36}", "n/a");
                continue;
            };
            print!(" {:>36}", format!("{:.4} [{:.4}–{:.4}]", s.median, s.min, s.max));
            combined.insert(
                format!("{workload}.{}", m.name),
                MetricValue { value: s.median, unit: s.unit.clone() },
            );
        }
        println!();
    }
    let summary_line = ResultLine {
        correct: results.values().all(|run| run.correct),
        attempted: results.values().map(|run| run.attempted).sum(),
        failed: results.values().map(|run| run.failed).sum(),
        metrics: combined,
    };
    println!("{}", to_json(&summary_line));
    Ok(())
}
