//! The three serial workloads, each in an untimed-setup / timed-repetition
//! shape, plus the traced variant that times every layer's public calls.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use aqfp_layout::{DrcChecker, DrcReport, LayoutGenerator};
use aqfp_netlist::generators::{benchmark_circuit, Benchmark, LargeFamily};
use aqfp_netlist::Netlist;
use aqfp_place::buffer_rows::insert_buffer_rows;
use aqfp_place::detailed::detailed_place;
use aqfp_place::global::global_place;
use aqfp_place::legalize::legalize;
use aqfp_place::PlacedDesign;
use aqfp_synth::truth::MappingTable;
use aqfp_synth::{balance, fanout, maj};
use aqfp_timing::{TimingAnalyzer, TimingBatch};
use superflow::{
    load_netlist, BatchConfig, BatchJob, BatchReport, BatchRunner, Checked, DesignStatus,
    FlowConfig, FlowObserver, FlowSession, Placed, RepairScope, Routed, Synthesized,
};

use serde::{Deserialize, Serialize};

use crate::host::{self, HostRef};
use crate::trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["paper9", "dag-synth", "batch-resume"];

/// Logic gates of each `dag-synth` random DAG.
pub const DAG_SYNTH_GATES: usize = 4_000;
/// Random DAGs per `dag-synth` repetition.
pub const DAG_SYNTH_DESIGNS: u64 = 8;
/// Logic gates of the `batch-resume` tiled multiplier, which sets its
/// memory peak and most of its time.
pub const BATCH_MUL_GATES: usize = 600;
/// Logic gates of the seeded `batch-resume` random DAG, kept small so the
/// seed moves the workload's totals by a few percent at most.
pub const BATCH_DAG_GATES: usize = 200;
/// The committed golden layout `paper9`'s adder8 must reproduce.
const ADDER8_GOLDEN: &str = "adder8.gds";

/// The flow configuration every workload runs with: the paper default on
/// one stage thread.
fn flow_config() -> FlowConfig {
    FlowConfig::paper_default().with_threads(1)
}

/// Quality of results summed over a workload's designs (Tables II–IV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Qor {
    pub jj_synth: f64,
    pub phases: f64,
    pub hpwl_um: f64,
    pub buffer_lines: f64,
    /// Sum of per-design WNS below zero (0 when every design meets timing).
    pub wns_ps: f64,
    pub jj_routed: f64,
    pub routed_wl_um: f64,
    pub drc_residual: f64,
    pub gds_mb: f64,
}

impl Qor {
    fn add_synthesized(&mut self, synthesized: &Synthesized) {
        self.jj_synth += synthesized.stats().jj_count as f64;
        self.phases += synthesized.stats().delay as f64;
    }

    fn add_checked(&mut self, checked: &Checked, gds_bytes: usize) {
        let placement = &checked.routed.placed.placement;
        let routing = &checked.routed.routing;
        self.add_synthesized(&checked.routed.placed.synthesized);
        self.hpwl_um += placement.hpwl_um;
        self.buffer_lines += placement.buffer_lines as f64;
        self.wns_ps += placement.timing.wns_ps.min(0.0);
        self.jj_routed += routing.jj_count as f64;
        self.routed_wl_um += routing.stats.total_wirelength_um;
        self.drc_residual += checked.drc.violations.len() as f64;
        self.gds_mb += gds_bytes as f64 / 1e6;
    }
}

/// Measurements of one timed repetition, times in wall seconds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Rep {
    /// Converts this repetition's wall seconds into reference seconds.
    pub factor: f64,
    pub flow_s: f64,
    pub verify_s: Option<f64>,
    pub resume_s: Option<f64>,
    pub qor: Qor,
    /// Designs attempted in this repetition.
    pub attempted: usize,
    /// One line per failing design, naming it.
    pub failures: Vec<String>,
}

impl Rep {
    /// Records the outcome of one design's output checks.
    fn checked(&mut self, design: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures.push(format!("{design}: {}", problems.join("; ")));
        }
    }
}

/// One traced repetition: the spans and counts it recorded, plus the
/// untraced repetition run beside it.
#[derive(Debug, Default)]
pub struct LayerRep {
    /// The traced repetition's wall time along the calls `flow_s` times.
    pub traced_flow_s: f64,
    /// How much longer those calls took traced than untraced, in percent,
    /// each side in the reference seconds of the blocks that followed it.
    pub overhead_pct: f64,
    /// The untraced repetition run beside it, for the tracing overhead.
    pub untraced: Rep,
    pub tracer: Tracer,
    /// Filled by the observer registered on the traced session.
    repair_log: Rc<RefCell<RepairLog>>,
}

/// A workload with its inputs generated and its session open.
pub struct Prepared {
    kind: Kind,
    session: FlowSession,
}

enum Kind {
    Paper9 { designs: Vec<(String, Netlist)>, golden: Vec<u8> },
    DagSynth { paths: Vec<String> },
    BatchResume { jobs: Vec<BatchJob>, journal: PathBuf, output: PathBuf },
}

/// The seeded `dag-synth` netlists; each benchmark seed owns its own range
/// of generator seeds.
pub fn dag_synth_netlists(seed: u64) -> Vec<Netlist> {
    (0..DAG_SYNTH_DESIGNS)
        .map(|i| {
            let design_seed = seed.wrapping_mul(DAG_SYNTH_DESIGNS).wrapping_add(i);
            LargeFamily::RandomDag.by_cells(DAG_SYNTH_GATES, design_seed)
        })
        .collect()
}

/// The `batch-resume` design specs; only the random DAG takes the seed.
pub fn batch_inputs(seed: u64) -> [String; 2] {
    [format!("gen:tiled_mul:{BATCH_MUL_GATES}"), format!("gen:random_dag:{BATCH_DAG_GATES}:{seed}")]
}

/// The seeded inputs of a workload rendered as Verilog, for the
/// reproducibility self-test. `paper9` has none.
pub fn seeded_verilog(workload: &str, seed: u64) -> Result<Vec<String>, String> {
    let netlists = match workload {
        "dag-synth" => dag_synth_netlists(seed),
        "batch-resume" => batch_inputs(seed)
            .iter()
            .map(|spec| load_netlist(spec).map_err(|e| format!("{spec}: {e}")))
            .collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };
    Ok(netlists.iter().map(aqfp_netlist::writers::to_verilog).collect())
}

/// Whether `workload` runs the physical back end (and emits GDS).
pub fn has_back_end(workload: &str) -> bool {
    workload != "dag-synth"
}

fn session() -> Result<FlowSession, String> {
    FlowSession::new(flow_config()).map_err(|e| format!("cannot open a flow session: {e}"))
}

/// LEC / phase / LVS verdicts of one design, as problem lines.
fn verdict(label: &str, report: &superflow::VerifyReport) -> Option<String> {
    report.has_errors().then(|| format!("{label} not clean: {}", report.render().trim()))
}

impl Prepared {
    /// Generates the workload's inputs from `seed` under `work_dir` and
    /// opens its session. Nothing here is timed.
    pub fn new(workload: &str, seed: u64, work_dir: &Path) -> Result<Self, String> {
        let kind = match workload {
            "paper9" => {
                let golden = std::fs::read(ADDER8_GOLDEN)
                    .map_err(|e| format!("cannot read the golden `{ADDER8_GOLDEN}`: {e}"))?;
                let designs = Benchmark::ALL
                    .iter()
                    .map(|&b| (b.name().to_owned(), benchmark_circuit(b)))
                    .collect();
                Kind::Paper9 { designs, golden }
            }
            "dag-synth" => {
                let mut paths = Vec::new();
                for netlist in dag_synth_netlists(seed) {
                    let path = work_dir.join(format!("{}.v", netlist.name()));
                    std::fs::write(&path, aqfp_netlist::writers::to_verilog(&netlist))
                        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
                    paths.push(path.to_str().ok_or("work directory is not UTF-8")?.to_owned());
                }
                Kind::DagSynth { paths }
            }
            "batch-resume" => Kind::BatchResume {
                jobs: batch_inputs(seed).into_iter().map(BatchJob::from_input).collect(),
                journal: work_dir.join("journal"),
                output: work_dir.join("gds"),
            },
            other => return Err(format!("unknown workload `{other}`")),
        };
        // Lazy set-up belongs to `setup_s`, not to the first repetition.
        MappingTable::global();
        Ok(Self { kind, session: session()? })
    }

    /// One untraced repetition: the timed calls plus every output check.
    pub fn run_rep(&mut self, host: &mut HostRef) -> Result<Rep, String> {
        let session = &mut self.session;
        match &self.kind {
            Kind::Paper9 { designs, golden } => {
                let mut rep = Rep { verify_s: Some(0.0), ..Rep::default() };
                for (name, netlist) in designs {
                    paper9_design(&mut rep, session, name, netlist, golden, host);
                }
                Ok(rep)
            }
            Kind::DagSynth { paths } => {
                let mut rep = Rep { verify_s: Some(0.0), ..Rep::default() };
                for path in paths {
                    dag_synth_design(&mut rep, session, path, host);
                }
                Ok(rep)
            }
            Kind::BatchResume { jobs, journal, output } => {
                let mut rep = Rep::default();
                batch_passes(jobs, journal, output, &mut rep, host)?;
                Ok(rep)
            }
        }
    }

    /// Fills in QoR a repetition could not report while it was timed:
    /// `batch-resume` reads it back from the journal its last repetition
    /// left behind. Call it after sampling peak memory, since the read-back
    /// holds a whole check artifact.
    pub fn complete_qor<'a>(
        &self,
        reps: impl IntoIterator<Item = &'a mut Rep>,
    ) -> Result<(), String> {
        let Kind::BatchResume { jobs, journal, output } = &self.kind else { return Ok(()) };
        let mut qor = Qor::default();
        for job in jobs {
            let checked = journal_checked(journal, job)?;
            qor.add_checked(&checked, read_gds(output, job)?.len());
        }
        for rep in reps {
            rep.qor = qor;
        }
        Ok(())
    }

    /// One untraced repetition followed by one traced repetition of the
    /// same work.
    pub fn run_traced(&mut self, host: &mut HostRef) -> Result<LayerRep, String> {
        let first_block = host.blocks.len();
        let untraced = self.run_rep(host)?;
        let traced_block = host.blocks.len();
        // Observers cannot be removed from a session, so the traced
        // repetition gets its own.
        let mut session = session()?;
        let mut layers = LayerRep { untraced, ..LayerRep::default() };
        session.add_observer(Box::new(RepairObserver(Rc::clone(&layers.repair_log))));
        let start = Instant::now();
        let traced = match &self.kind {
            Kind::Paper9 { designs, .. } => {
                for (name, netlist) in designs {
                    layers.traced_flow_s +=
                        trace_design(&mut layers, &mut session, name, netlist, After::Verify)?;
                }
                Ok(())
            }
            Kind::DagSynth { paths } => {
                for path in paths {
                    layers.traced_flow_s += trace_dag_synth(&mut layers, &mut session, path)?;
                }
                Ok(())
            }
            Kind::BatchResume { jobs, journal, output } => {
                trace_batch(&mut layers, &mut session, jobs, journal, output)
            }
        };
        host.follow(start.elapsed().as_secs_f64());
        traced?;
        let untraced_s =
            layers.untraced.flow_s * host::factor(&host.blocks[first_block..traced_block]);
        let traced_s = layers.traced_flow_s * host::factor(&host.blocks[traced_block..]);
        layers.overhead_pct = (traced_s / untraced_s - 1.0) * 100.0;
        Ok(layers)
    }
}

/// Times `segment` as part of a repetition: adds its wall seconds to
/// `total`, then lets the host-speed reference follow it.
fn timed<T>(total: &mut f64, host: &mut HostRef, segment: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = segment();
    let wall = start.elapsed().as_secs_f64();
    *total += wall;
    host.follow(wall);
    value
}

/// One paper circuit: each stage call and the GDS bytes timed into
/// `flow_s`, then LEC, phase and LVS timed into `verify_s`, then the checks.
fn paper9_design(
    rep: &mut Rep,
    session: &mut FlowSession,
    name: &str,
    netlist: &Netlist,
    golden: &[u8],
    host: &mut HostRef,
) {
    let mut flow = || -> Result<(Checked, Vec<u8>), superflow::FlowError> {
        let synthesized = timed(&mut rep.flow_s, host, || session.synthesize(netlist))?;
        let placed = timed(&mut rep.flow_s, host, || session.place(synthesized))?;
        let routed = timed(&mut rep.flow_s, host, || session.route(placed))?;
        timed(&mut rep.flow_s, host, || {
            let checked = session.check(routed)?;
            let gds = checked.layout.to_gds_bytes();
            Ok((checked, gds))
        })
    };
    let (checked, gds) = match flow() {
        Ok(done) => done,
        Err(e) => {
            rep.checked(name, vec![format!("flow failed: {e}")]);
            return;
        }
    };
    let (lec, post) = timed(rep.verify_s.get_or_insert(0.0), host, || {
        let lec = session.verify_synthesized(netlist, &checked.routed.placed.synthesized);
        (lec, session.verify_checked(&checked))
    });

    let mut problems: Vec<String> =
        [verdict("LEC", &lec), verdict("phase/LVS", &post)].into_iter().flatten().collect();
    if name == "adder8" && gds != golden {
        problems.push(format!("GDS differs from the committed `{ADDER8_GOLDEN}`"));
    }
    rep.qor.add_checked(&checked, gds.len());
    rep.checked(name, problems);
}

/// One `dag-synth` design: parse, pre-flight and synthesis timed into
/// `flow_s`, then LEC timed into `verify_s`, then the checks.
fn dag_synth_design(rep: &mut Rep, session: &mut FlowSession, path: &str, host: &mut HostRef) {
    let flow = timed(&mut rep.flow_s, host, || {
        let netlist = load_netlist(path)?;
        let lint = session.lint(&netlist);
        let synthesized = session.synthesize(&netlist)?;
        Ok::<_, superflow::FlowError>((netlist, lint, synthesized))
    });
    let (netlist, lint, synthesized) = match flow {
        Ok(done) => done,
        Err(e) => {
            rep.checked(path, vec![format!("flow failed: {e}")]);
            return;
        }
    };
    let lec = timed(rep.verify_s.get_or_insert(0.0), host, || {
        session.verify_synthesized(&netlist, &synthesized)
    });

    let mut problems: Vec<String> = verdict("LEC", &lec).into_iter().collect();
    if lint.has_errors() {
        problems.push("pre-flight lint reports errors".to_owned());
    }
    rep.qor.add_synthesized(&synthesized);
    rep.checked(netlist.name(), problems);
}

fn batch_config(journal: &Path, output: &Path) -> BatchConfig {
    BatchConfig::new(flow_config())
        .with_workers(1)
        .with_journal_dir(journal)
        .with_output_dir(output)
}

fn read_gds(output: &Path, job: &BatchJob) -> Result<Vec<u8>, String> {
    let path = output.join(format!("{}.gds", job.name));
    std::fs::read(&path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))
}

/// Problems with one design's row of a batch report.
fn batch_row_problems(
    report: &BatchReport,
    job: &BatchJob,
    pass: &str,
    hits: usize,
) -> Vec<String> {
    match report.designs.iter().find(|d| d.name == job.name) {
        None => vec![format!("{pass} pass reported nothing")],
        Some(row) => {
            let mut problems = Vec::new();
            if row.status != DesignStatus::Succeeded {
                problems.push(format!("{pass} pass {}: {:?}", row.status.label(), row.status));
            }
            if row.checkpoint_hits != hits {
                problems.push(format!(
                    "{pass} pass had {} checkpoint hit(s), expected {hits}",
                    row.checkpoint_hits
                ));
            }
            problems
        }
    }
}

/// Removes a previous repetition's journal and GDS output.
fn clear_dirs(journal: &Path, output: &Path) -> Result<(), String> {
    for dir in [journal, output] {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot clear `{}`: {e}", dir.display()))?;
        }
    }
    Ok(())
}

/// Runs the cold pass and the resume pass over a fresh journal, timing
/// them into `flow_s` and `resume_s`, and checks both.
fn batch_passes(
    jobs: &[BatchJob],
    journal: &Path,
    output: &Path,
    rep: &mut Rep,
    host: &mut HostRef,
) -> Result<(), String> {
    clear_dirs(journal, output)?;
    let runner = BatchRunner::new(batch_config(journal, output));
    let cold = timed(&mut rep.flow_s, host, || runner.run(jobs))
        .map_err(|e| format!("cold batch pass failed: {e}"))?;
    let cold_gds: Vec<Option<Vec<u8>>> =
        jobs.iter().map(|job| read_gds(output, job).ok()).collect();
    let resumed = timed(rep.resume_s.get_or_insert(0.0), host, || runner.run(jobs))
        .map_err(|e| format!("resume batch pass failed: {e}"))?;

    for (job, cold_bytes) in jobs.iter().zip(cold_gds) {
        let mut problems = batch_row_problems(&cold, job, "cold", 0);
        problems.extend(batch_row_problems(&resumed, job, "resume", 4));
        match (cold_bytes, read_gds(output, job)) {
            (Some(before), Ok(after)) if before == after => {}
            (Some(_), Ok(_)) => problems.push("resumed GDS differs from the cold pass".to_owned()),
            (None, _) => problems.push("cold pass wrote no GDS".to_owned()),
            (_, Err(e)) => problems.push(e),
        }
        rep.checked(&job.name, problems);
    }
    Ok(())
}

/// Reads one design's final check artifact back from the journal.
fn journal_checked(journal: &Path, job: &BatchJob) -> Result<Checked, String> {
    let path = journal.join(&job.name).join("check.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    Checked::from_json(&text).map_err(|e| format!("`{}`: {e}", path.display()))
}

/// Repair-loop boundaries reported by [`FlowObserver::drc_iteration`].
#[derive(Debug, Default)]
struct RepairLog {
    /// Per iteration: when it began, violations entering it, dirty channels.
    iterations: Vec<(Instant, usize, usize)>,
}

struct RepairObserver(Rc<RefCell<RepairLog>>);

impl FlowObserver for RepairObserver {
    fn drc_iteration(&mut self, _iteration: usize, report: &DrcReport, scope: RepairScope<'_>) {
        let dirty = match scope {
            RepairScope::Channels(rows) => rows.len(),
            RepairScope::Full | RepairScope::Unchanged => 0,
        };
        self.0.borrow_mut().iterations.push((Instant::now(), report.violations.len(), dirty));
    }
}

/// What a traced design runs after its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// LEC, phase and LVS on the final design.
    Verify,
    /// The four checkpoint writes and reads.
    Checkpoints,
}

/// Traces one design through every stage: each stage call, a replay of
/// the synthesis and placement sub-layers on a copy of the stage input,
/// one layout / DRC / GDS / STA call on the final design, then the calls
/// `after` names. Returns the seconds of the calls `flow_s` also times.
fn trace_design(
    layers: &mut LayerRep,
    session: &mut FlowSession,
    name: &str,
    netlist: &Netlist,
    after: After,
) -> Result<f64, String> {
    let failed = |e: superflow::FlowError| format!("{name}: traced flow failed: {e}");
    let keep = after == After::Checkpoints;
    let tracer = &mut layers.tracer;
    let design_span = tracer.begin("design", name);

    let span = tracer.begin("synth.synthesize", name);
    let synthesized = session.synthesize(netlist).map_err(failed)?;
    let mut flow_s = tracer.end(span);
    trace_synth_replay(tracer, session, name, netlist, &synthesized);

    let replay_input = synthesized.synthesis.clone();
    let synthesized_copy = keep.then(|| synthesized.clone());
    let span = tracer.begin("place.place", name);
    let placed = session.place(synthesized).map_err(failed)?;
    flow_s += tracer.end(span);
    trace_place_replay(tracer, session, name, &replay_input, &placed);

    let placed_copy = keep.then(|| placed.clone());
    let span = tracer.begin("route.route", name);
    let routed = session.route(placed).map_err(failed)?;
    flow_s += tracer.end(span);
    count_routing(tracer, name, &routed);
    let routed_copy = keep.then(|| routed.clone());

    let span = tracer.begin("session.check", name);
    let check = session.check(routed);
    let check_end = Instant::now();
    let iterations = std::mem::take(&mut layers.repair_log.borrow_mut().iterations);
    // The observer fires after an iteration's repair and before its
    // reroute, so an interval holds the reroute, layout and DRC plus the
    // next iteration's repair; the last one runs to the end of the stage.
    for (k, &(start, _, _)) in iterations.iter().enumerate() {
        let end = iterations.get(k + 1).map_or(check_end, |next| next.0);
        tracer.record("session.repair_iter", name, start, end);
    }
    flow_s += tracer.end(span);
    let checked = check.map_err(failed)?;
    count_repairs(tracer, name, &iterations, &checked);

    let design = checked.routed.design();
    let routing = &checked.routed.routing;
    let technology = Arc::clone(session.technology());
    let layout = tracer.span("layout.generate", name, || {
        LayoutGenerator::new(technology).generate(design, routing)
    });
    let drc = tracer.span("layout.drc", name, || {
        DrcChecker::for_technology(session.technology()).check(design, routing)
    });
    if drc != checked.drc || layout != checked.layout {
        eprintln!("note: {name}: layout/DRC replay differs from the check stage's result");
    }
    let span = tracer.begin("layout.gds", name);
    let gds = checked.layout.to_gds_bytes();
    flow_s += tracer.end(span);
    std::hint::black_box(gds);

    let timing = tracer.span("timing.sta", name, || {
        let mut batch = TimingBatch::with_capacity(design.net_count());
        design.fill_timing_batch(&mut batch);
        TimingAnalyzer::for_technology(session.technology())
            .analyze_batch(&batch, design.layer_width().max(1.0))
    });
    tracer.count("timing.tns_ps", name, timing.tns_ps);

    match (synthesized_copy, placed_copy, routed_copy) {
        (Some(synthesized), Some(placed), Some(routed)) => {
            trace_checkpoints(tracer, name, &synthesized, &placed, &routed, &checked)
                .map_err(failed)?
        }
        _ => trace_verify(tracer, session, name, netlist, &checked),
    }
    tracer.end(design_span);
    Ok(flow_s)
}

/// Replays majority conversion, splitter insertion and balancing on a copy
/// of the synthesis input and counts what the stage inserted.
fn trace_synth_replay(
    tracer: &mut Tracer,
    session: &FlowSession,
    name: &str,
    netlist: &Netlist,
    synthesized: &Synthesized,
) {
    let technology = session.technology();
    let arity = session.config().synthesis.max_splitter_arity;
    let (converted, _) =
        tracer.span("synth.maj", name, || maj::convert_to_majority(netlist, technology));
    let (split, _) =
        tracer.span("synth.split", name, || fanout::insert_splitters(&converted, arity));
    let balanced = tracer.span("synth.balance", name, || balance::balance(&split));
    if balanced.netlist != synthesized.synthesis.netlist {
        eprintln!("note: {name}: synthesis replay differs from the synthesis stage's netlist");
    }
    let synthesis = &synthesized.synthesis;
    tracer.count("synth.splitters", name, synthesis.splitter_report.splitters_inserted as f64);
    let buffers =
        synthesis.balance_report.buffers_inserted + synthesis.balance_report.output_buffers;
    tracer.count("synth.buffers", name, buffers as f64);
}

/// Replays global placement, legalization, detailed placement and buffer
/// rows on a copy of the placement input.
fn trace_place_replay(
    tracer: &mut Tracer,
    session: &FlowSession,
    name: &str,
    input: &aqfp_synth::SynthesizedNetlist,
    placed: &Placed,
) {
    let technology = session.technology();
    let options = session.config().placement;
    let mut design = PlacedDesign::from_synthesized(input, technology);
    let global = tracer.span("place.global", name, || global_place(&mut design, &options.global));
    tracer.span("place.legalize", name, || legalize(&mut design));
    let detailed_config = options.detailed.with_technology_timing(technology);
    let detailed =
        tracer.span("place.detailed", name, || detailed_place(&mut design, &detailed_config));
    let buffers = tracer.span("place.buffer_rows", name, || {
        let (report, _) = insert_buffer_rows(&mut design, technology);
        if report.buffer_cells > 0 {
            legalize(&mut design);
        }
        report
    });
    if design != placed.placement.design {
        eprintln!("note: {name}: placement replay differs from the placement stage's design");
    }
    tracer.count("place.global_iters", name, global.iterations as f64);
    let moves = detailed.swaps_accepted + detailed.slides_accepted;
    tracer.count("place.detailed_moves", name, moves as f64);
    tracer.count("place.buffer_cells", name, buffers.buffer_cells as f64);
}

fn count_routing(tracer: &mut Tracer, name: &str, routed: &Routed) {
    let stats = &routed.routing.stats;
    tracer.count("route.nets", name, stats.nets_routed as f64);
    tracer.count("route.failed_nets", name, stats.failed_nets as f64);
    tracer.count("route.expansions", name, stats.space_expansions as f64);
    tracer.count("route.vias", name, stats.total_vias as f64);
}

fn count_repairs(
    tracer: &mut Tracer,
    name: &str,
    iterations: &[(Instant, usize, usize)],
    checked: &Checked,
) {
    tracer.count("session.repair_iters", name, iterations.len() as f64);
    let violations: usize = iterations.iter().map(|&(_, v, _)| v).sum();
    let dirty: usize = iterations.iter().map(|&(_, _, d)| d).sum();
    tracer.count("session.repair_violations", name, violations as f64);
    tracer.count("session.repair_dirty_channels", name, dirty as f64);
    let entering = iterations.first().map_or(0, |&(_, v, _)| v);
    let residual = if entering == 0 { 0 } else { checked.drc.violations.len() };
    tracer.count("session.repair_entering", name, entering as f64);
    tracer.count("session.repair_removed", name, entering.saturating_sub(residual) as f64);
}

fn trace_verify(
    tracer: &mut Tracer,
    session: &FlowSession,
    name: &str,
    netlist: &Netlist,
    checked: &Checked,
) {
    let config = &session.config().verify;
    let synthesized = &checked.routed.placed.synthesized.synthesis.netlist;
    let lec = tracer
        .span("verify.lec", name, || aqfp_verify::check_equivalence(netlist, synthesized, config));
    let design = checked.routed.design();
    let routing = &checked.routed.routing;
    let phase = tracer.span("verify.phase", name, || {
        let mut findings =
            aqfp_verify::check_placed(design, session.config().synthesis.max_splitter_arity);
        findings.extend(aqfp_verify::check_routed(
            design,
            routing,
            session.config().router.grid_step_um,
        ));
        findings
    });
    let lvs = tracer.span("verify.lvs", name, || {
        aqfp_verify::check_gds(
            &checked.layout.to_gds_bytes(),
            design,
            routing,
            session.technology(),
        )
    });
    tracer.count("verify.findings", name, (lec.len() + phase.len() + lvs.len()) as f64);
}

/// Traces one `dag-synth` design and returns the wall seconds of the calls
/// `flow_s` also times.
fn trace_dag_synth(
    layers: &mut LayerRep,
    session: &mut FlowSession,
    path: &str,
) -> Result<f64, String> {
    let tracer = &mut layers.tracer;
    let span = tracer.begin("netlist.parse", path);
    let netlist = load_netlist(path).map_err(|e| format!("{path}: {e}"))?;
    let mut flow_s = tracer.end(span);
    let name = netlist.name().to_owned();
    tracer.count("netlist.gates", &name, netlist.gate_count() as f64);

    let config = session.config().clone();
    let technology = Arc::clone(session.technology());
    let span = tracer.begin("lint.lint", &name);
    let lint = aqfp_lint::lint(&name, &netlist, &technology, &config.lint_settings(), &config.lint);
    flow_s += tracer.end(span);
    let span = tracer.begin("predict.predict", &name);
    let prediction = aqfp_predict::predict(&name, &netlist, &technology, &config.predict_options());
    flow_s += tracer.end(span);
    tracer.count(
        "lint.findings",
        &name,
        (lint.diagnostics.len() + prediction.diagnostics.len()) as f64,
    );

    let span = tracer.begin("synth.synthesize", &name);
    let synthesized = session.synthesize(&netlist).map_err(|e| format!("{name}: {e}"))?;
    flow_s += tracer.end(span);
    trace_synth_replay(tracer, session, &name, &netlist, &synthesized);

    let lec = tracer.span("verify.lec", &name, || {
        aqfp_verify::check_equivalence(&netlist, &synthesized.synthesis.netlist, &config.verify)
    });
    tracer.count("verify.findings", &name, lec.len() as f64);
    Ok(flow_s)
}

/// Times the four checkpoint writes and reads of one design's artifacts.
fn trace_checkpoints(
    tracer: &mut Tracer,
    name: &str,
    synthesized: &Synthesized,
    placed: &Placed,
    routed: &Routed,
    checked: &Checked,
) -> Result<(), superflow::FlowError> {
    let span = tracer.begin("session.ckpt_write", name);
    let texts = [synthesized.to_json()?, placed.to_json()?, routed.to_json()?, checked.to_json()?];
    tracer.end(span);
    let bytes: usize = texts.iter().map(String::len).sum();
    tracer.count("session.ckpt_mb", name, bytes as f64 / 1e6);

    let span = tracer.begin("session.ckpt_read", name);
    let restored = Synthesized::from_json(&texts[0])? == *synthesized
        && Placed::from_json(&texts[1])? == *placed
        && Routed::from_json(&texts[2])? == *routed
        && Checked::from_json(&texts[3])? == *checked;
    tracer.end(span);
    if !restored {
        eprintln!("note: {name}: a checkpoint did not read back to an equal artifact");
    }
    Ok(())
}

/// Traces both batch passes, then each design through a session with its
/// four checkpoint writes and reads.
fn trace_batch(
    layers: &mut LayerRep,
    session: &mut FlowSession,
    jobs: &[BatchJob],
    journal: &Path,
    output: &Path,
) -> Result<(), String> {
    clear_dirs(journal, output)?;
    let runner = BatchRunner::new(batch_config(journal, output));
    let failed = |e: superflow::FlowError| format!("traced batch pass failed: {e}");
    let span = layers.tracer.begin("batch.cold", "batch");
    let cold = runner.run(jobs).map_err(failed)?;
    layers.traced_flow_s = layers.tracer.end(span);
    let resumed =
        layers.tracer.span("batch.resume", "batch", || runner.run(jobs)).map_err(failed)?;
    for report in [&cold, &resumed] {
        let stages: f64 =
            report.designs.iter().filter_map(|d| d.actual_stage_s.map(|t| t.total_s())).sum();
        layers.tracer.count("batch.overhead_s", "batch", report.wall_s - stages);
    }
    for job in jobs {
        let netlist = load_netlist(&job.input).map_err(|e| format!("{}: {e}", job.input))?;
        trace_design(layers, session, &job.name, &netlist, After::Checkpoints)?;
    }
    Ok(())
}
