//! Fault-isolated multi-design batch driver.
//!
//! [`BatchRunner`] pushes N designs through the full RTL-to-GDS flow on M
//! worker threads, sharing one resolved [`Technology`] across every design.
//! What distinguishes it from a shell loop over `superflow <design>` is the
//! *fault boundary* drawn around each design:
//!
//! - **Panic isolation.** Every stage call runs under
//!   [`std::panic::catch_unwind`], so a placer assertion or an injected
//!   panic in one design becomes a classified [`DesignStatus::Failed`]
//!   entry in the [`BatchReport`] while the remaining designs keep running.
//! - **Deadlines.** An optional per-stage wall-clock budget is enforced
//!   through the cooperative [`CancelToken`] threaded into the hot loops of
//!   the placers, the router and the DRC-repair loop — a stage that blows
//!   its budget actually stops working (at its next loop boundary), rather
//!   than being abandoned on a zombie thread. `--stage-timeout`
//!   ([`BatchConfig::stage_timeout`]) is one flat deadline for every stage
//!   of every design; the forecast below never shortens it.
//! - **Prediction-driven scheduling.** Before any worker starts, the
//!   predictive feasibility analysis ([`aqfp_predict`]) runs over every
//!   design (static bounds only — no stage engines), and the work queue is
//!   ordered longest-predicted-first so the slowest design starts first and
//!   the batch's wall-clock approaches `max` rather than `sum` shape. The
//!   per-design forecast and the measured reality land side by side in the
//!   report ([`DesignReport::predicted_stage_s`] /
//!   [`DesignReport::actual_stage_s`]), making the cost model auditable
//!   from CI. `--no-predict` (or [`BatchConfig::predict`] = false) skips
//!   the forecast: submission order and no predicted ledger.
//! - **Degraded retry.** A failed or timed-out design is re-run once, from
//!   scratch and with strictly serial stages
//!   ([`FlowConfig::with_threads`]`(1)`), before it is classified `Failed`;
//!   a design rescued this way is classified [`DesignStatus::Degraded`].
//!   Every stage writes the same bytes at any thread count, so a rescued
//!   design's GDS and checkpoints are those of an uninterrupted run.
//! - **Crash-safe resume.** With a journal directory configured, every
//!   completed stage checkpoints its artifact JSON atomically under
//!   `<journal>/<design>/<stage>.json` ([`Artifact::write_checkpoint`]:
//!   streamed to `<stage>.tmp`, then renamed; removed if the write fails).
//!   Resume loads the newest one straight from its file through
//!   [`FlowSession::load_checkpoint`], the loader `superflow verify` uses
//!   too, without ever holding the checkpoint's text.
//!   A killed batch re-run over the same journal resumes each design from
//!   its newest intact checkpoint, and the flow's determinism makes the
//!   resumed GDS byte-identical to an uninterrupted run. A checkpoint that
//!   is truncated, corrupt, or from a different technology fails that
//!   design loudly at the checkpoint's own stage
//!   ([`FlowError::Checkpoint`] / [`FlowError::TechnologyMismatch`] with
//!   the file path) instead of silently recomputing or — worse — resuming
//!   garbage; the degraded retry, which always starts from scratch, can
//!   still rescue it.
//!
//! One attempt is one loop over [`Artifact`]s: resume the newest
//! checkpoint, or lint and synthesize the netlist; then, for each
//! remaining stage, [`FlowSession::advance`] inside the fault boundary,
//! the injected-corruption check through [`FlowSession::verify_artifact`],
//! and the checkpoint write ([`Artifact::write_checkpoint`]).
//!
//! # Fault model
//!
//! The failure modes the boundary is designed around, and how each is
//! surfaced:
//!
//! | fault                        | detection                        | classification |
//! |------------------------------|----------------------------------|----------------|
//! | stage panic                  | `catch_unwind` per stage         | `Failed` (stage, panic message) |
//! | stage over deadline          | `CancelToken` deadline           | `Failed` (stage, deadline error) |
//! | corrupt / truncated journal  | strict checkpoint validation     | `Failed` (checkpoint stage, path + cause) |
//! | journal from another PDK     | technology fingerprint check     | `Failed` (checkpoint stage, path + `TechnologyMismatch`) |
//! | unreadable input / bad parse | typed [`crate::input`] errors    | `Failed` (no stage, error chain) |
//! | infeasible design            | pre-flight lint (stage 0)        | `Failed` (stage [`LINT_STAGE`], rule ids); no degraded retry |
//! | corrupt stage artifact       | post-stage verification          | `Failed` (stage [`VERIFY_STAGE`], rule ids); no degraded retry |
//!
//! Each of these is reproducible on demand through the [`FaultPlan`]
//! injection hook — `panic:adder8:placement` panics at the placement stage
//! of `adder8`, `deadline:c432:routing` arms a zero-second deadline,
//! `truncate:apc32:synthesis` truncates the synthesis checkpoint after it
//! is written (so the *next* run over the journal hits a torn file), and
//! `corrupt:adder8:routing` damages the routing artifact *after* the stage
//! completed so the post-stage verifier — not the stage's own gate — must
//! catch it. Injected faults fire on the first attempt only, which is what
//! makes the degraded-retry path testable: the retry runs fault-free and
//! rescues the design.
//!
//! An allocation failure is not isolated: Rust aborts the process when an
//! allocation fails, so the whole batch exits 134 and no `--report` is
//! written. Every stage checkpoint already journaled survives it (each is
//! renamed into place only once complete), so rerunning with the same
//! `--journal` resumes each design from its newest checkpoint. Resuming
//! decoder from its journal needs about 110,000 kB of `ulimit -v`, and
//! aborts at 100,000 kB.
//!
//! With [`FlowConfig::verify`] enabled, every stage boundary additionally
//! re-verifies its artifact (LEC, phase-legality, LVS-lite — the
//! `aqfp-verify` crate); findings classify the design as failed at the
//! [`VERIFY_STAGE`] with the rule ids in the error. Verification failures
//! are deterministic — retrying with fewer threads cannot fix a
//! non-equivalent netlist — so, like lint rejections, they skip the
//! degraded retry.
//!
//! ```no_run
//! use superflow::{BatchConfig, BatchJob, BatchRunner, FlowConfig};
//!
//! let config = BatchConfig::new(FlowConfig::fast())
//!     .with_journal_dir("runs/nightly")
//!     .with_stage_timeout_s(120.0);
//! let jobs = [BatchJob::from_input("adder8"), BatchJob::from_input("designs/alu.v")];
//! let report = BatchRunner::new(config).run(&jobs)?;
//! println!("{}", report.render());
//! assert!(report.failed() == 0);
//! # Ok::<(), superflow::FlowError>(())
//! ```

use std::cell::Cell;
use std::fs::File;
use std::io::BufReader;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use aqfp_cells::{CancelToken, Technology};
use aqfp_layout::Layout;
use aqfp_netlist::Netlist;
use aqfp_place::parallel::{effective_threads, run_in_order, ThreadBudget};
use serde::{Deserialize, Serialize};

use crate::config::FlowConfig;
use crate::error::FlowError;
use crate::input::{design_name, load_design};
use crate::session::{write_atomic, Artifact, Checked, FlowSession, FlowStage, StageTimings};

/// One design in a batch: a display name and the input it loads from (a
/// benchmark name or a netlist file path — see [`crate::input`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchJob {
    /// Display name; also the journal subdirectory and GDS file stem.
    pub name: String,
    /// The input spec passed to [`load_design`].
    pub input: String,
}

impl BatchJob {
    /// A job named after its input (`designs/alu.v` → `alu`).
    pub fn from_input(input: impl Into<String>) -> Self {
        let input = input.into();
        BatchJob { name: design_name(&input), input }
    }
}

/// What an injected fault does. See the [module docs](self) for the fault
/// model each kind exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the start of the stage (exercises `catch_unwind`
    /// isolation).
    Panic,
    /// Arm a zero-second deadline for the stage (exercises cooperative
    /// cancellation; the stage aborts at its first token poll).
    ZeroDeadline,
    /// Truncate the stage's checkpoint file to half its bytes after it is
    /// written (exercises strict resume validation on the *next* run).
    TruncateCheckpoint,
    /// Corrupt the stage's in-memory artifact *after* the stage (and its
    /// own verification gate) completed, then re-verify it (exercises the
    /// post-stage verifiers: the damage must be classified at
    /// [`VERIFY_STAGE`], not slip into the next stage).
    CorruptArtifact,
}

impl FaultKind {
    fn parse(text: &str) -> Option<FaultKind> {
        match text {
            "panic" => Some(FaultKind::Panic),
            "deadline" => Some(FaultKind::ZeroDeadline),
            "truncate" => Some(FaultKind::TruncateCheckpoint),
            "corrupt" => Some(FaultKind::CorruptArtifact),
            _ => None,
        }
    }
}

/// One deterministic injected fault: `kind` fires at `stage` of the design
/// named `design`, on the first attempt only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The [`BatchJob::name`] the fault targets.
    pub design: String,
    /// The stage the fault fires at.
    pub stage: FlowStage,
    /// What the fault does.
    pub kind: FaultKind,
}

impl Fault {
    /// Parses a `kind:design:stage` spec, e.g. `panic:adder8:placement`,
    /// `deadline:c432:routing`, `truncate:apc32:synthesis`.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the malformed part.
    pub fn parse(spec: &str) -> Result<Fault, String> {
        let mut parts = spec.splitn(3, ':');
        let (kind, design, stage) = match (parts.next(), parts.next(), parts.next()) {
            (Some(kind), Some(design), Some(stage)) => (kind, design, stage),
            _ => {
                return Err(format!(
                    "fault spec `{spec}` is not of the form kind:design:stage \
                     (e.g. panic:adder8:placement)"
                ))
            }
        };
        let kind = FaultKind::parse(kind).ok_or_else(|| {
            format!(
                "unknown fault kind `{kind}` in `{spec}`: expected panic, deadline, truncate or \
                 corrupt"
            )
        })?;
        let stage = FlowStage::parse(stage).ok_or_else(|| {
            format!(
                "unknown stage `{stage}` in `{spec}`: expected {}",
                FlowStage::ALL.map(|s| s.name()).join(", ")
            )
        })?;
        Ok(Fault { design: design.to_owned(), stage, kind })
    }
}

/// A deterministic fault-injection plan: the set of [`Fault`]s a batch run
/// fires on first attempts. Empty by default (production runs inject
/// nothing); built from CLI `--fault` specs or directly in tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault to the plan.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Whether a fault of `kind` is planned for `stage` of `design`.
    pub fn matches(&self, design: &str, stage: FlowStage, kind: FaultKind) -> bool {
        self.faults.iter().any(|f| f.design == design && f.stage == stage && f.kind == kind)
    }
}

/// Configuration of a batch run; start from [`BatchConfig::new`] and chain
/// the builders.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// The per-design flow configuration (technology, placer, stage
    /// options). When the batch runs more than one worker and this config
    /// leaves the stage thread count on auto (`0`), the machine's core
    /// budget is divided evenly among the workers (8 cores / 4 workers = 2
    /// stage threads per design) so designs parallelize across workers
    /// without oversubscribing every core per design.
    pub flow: FlowConfig,
    /// Worker threads pulling designs off the shared queue; `0` uses every
    /// available core (capped at the job count).
    pub workers: usize,
    /// Per-stage wall-clock deadline, the same for every stage of every
    /// design; `None` runs without deadlines.
    pub stage_timeout: Option<Duration>,
    /// Re-run a failed design once, from scratch on one thread, before
    /// classifying it [`DesignStatus::Failed`]. On by default.
    pub retry_degraded: bool,
    /// Journal directory for per-design stage checkpoints; `None` disables
    /// journaling (and therefore resume).
    pub journal_dir: Option<PathBuf>,
    /// Directory final GDS files are written to (`<name>.gds`); `None`
    /// keeps the layouts in memory only.
    pub output_dir: Option<PathBuf>,
    /// Deterministic fault injection (testing hook); empty in production.
    pub faults: FaultPlan,
    /// Run the predictive feasibility analysis over every design before the
    /// workers start, order the queue longest-predicted-first and record
    /// the forecast in [`DesignReport::predicted_stage_s`] (see the
    /// [module docs](self)). On by default; `false` keeps submission order
    /// and records no forecast. Deadlines are [`BatchConfig::stage_timeout`]
    /// either way.
    pub predict: bool,
}

impl BatchConfig {
    /// A batch configuration around a flow configuration: auto worker
    /// count, no deadlines, degraded retry on, no journal, no GDS output,
    /// no faults.
    pub fn new(flow: FlowConfig) -> Self {
        BatchConfig {
            flow,
            workers: 0,
            stage_timeout: None,
            retry_degraded: true,
            journal_dir: None,
            output_dir: None,
            faults: FaultPlan::none(),
            predict: true,
        }
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-stage wall-clock budget in seconds.
    pub fn with_stage_timeout_s(mut self, seconds: f64) -> Self {
        self.stage_timeout = Some(Duration::from_secs_f64(seconds.max(0.0)));
        self
    }

    /// Enables or disables the degraded retry.
    pub fn with_retry_degraded(mut self, retry: bool) -> Self {
        self.retry_degraded = retry;
        self
    }

    /// Sets the journal directory for stage checkpoints and resume.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Sets the directory final GDS files are written to.
    pub fn with_output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output_dir = Some(dir.into());
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables or disables the predictive scheduling pass.
    pub fn with_predict(mut self, predict: bool) -> Self {
        self.predict = predict;
        self
    }
}

/// How one design ended up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DesignStatus {
    /// The flow completed on the first attempt.
    Succeeded,
    /// The first attempt failed, but the degraded retry completed.
    Degraded,
    /// Every attempt failed.
    Failed {
        /// The failure, rendered with its full `source()` chain. When the
        /// degraded retry also failed, both failures are included.
        error: String,
        /// The [`FlowStage::name`] the failure is attributed to; `None`
        /// when it struck outside any stage (e.g. loading the input).
        stage: Option<String>,
        /// How many attempts were made (1, or 2 with degraded retry).
        attempts: usize,
    },
}

impl DesignStatus {
    /// Short lowercase label (`succeeded` / `degraded` / `failed`).
    pub fn label(&self) -> &'static str {
        match self {
            DesignStatus::Succeeded => "succeeded",
            DesignStatus::Degraded => "degraded",
            DesignStatus::Failed { .. } => "failed",
        }
    }
}

/// One design's row in the [`BatchReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// The design ([`BatchJob::name`]).
    pub name: String,
    /// How it ended up.
    pub status: DesignStatus,
    /// Attempts made (1, or 2 when the degraded retry ran).
    pub attempts: usize,
    /// Wall-clock seconds spent on this design across all attempts.
    pub wall_s: f64,
    /// The [`FlowStage::name`] of the newest journal checkpoint the design
    /// resumed from; `None` when it ran from the netlist.
    pub resumed_from: Option<String>,
    /// Stages skipped thanks to journal checkpoints (0–4).
    pub checkpoint_hits: usize,
    /// Per-stage wall-clock the predictive analysis forecast before any
    /// engine ran; `None` when prediction was disabled or the design could
    /// not be analysed (e.g. it failed to load).
    pub predicted_stage_s: Option<StageTimings>,
    /// Per-stage wall-clock the design actually took on its successful
    /// attempt (stages resumed from the journal contribute 0); `None` when
    /// every attempt failed.
    pub actual_stage_s: Option<StageTimings>,
}

/// The structured result of a batch run. Serde round-trippable
/// ([`BatchReport::to_json`] / [`BatchReport::from_json`]), so CI and
/// scripts can assert on classifications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Per-design outcomes, in job order (independent of which worker
    /// finished first).
    pub designs: Vec<DesignReport>,
    /// Worker threads the batch ran with.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
    /// Total stages skipped thanks to journal checkpoints.
    pub checkpoint_hits: usize,
}

impl BatchReport {
    /// Designs that completed on the first attempt.
    pub fn succeeded(&self) -> usize {
        self.designs.iter().filter(|d| d.status == DesignStatus::Succeeded).count()
    }

    /// Designs rescued by the degraded retry.
    pub fn degraded(&self) -> usize {
        self.designs.iter().filter(|d| d.status == DesignStatus::Degraded).count()
    }

    /// Designs that failed every attempt.
    pub fn failed(&self) -> usize {
        self.designs.iter().filter(|d| matches!(d.status, DesignStatus::Failed { .. })).count()
    }

    /// Serializes the report to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] when serialization fails.
    pub fn to_json(&self) -> Result<String, FlowError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| FlowError::Checkpoint(format!("cannot serialize batch report: {e}")))
    }

    /// Restores a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] when the text does not parse.
    pub fn from_json(text: &str) -> Result<Self, FlowError> {
        serde_json::from_str(text)
            .map_err(|e| FlowError::Checkpoint(format!("cannot parse batch report: {e}")))
    }

    /// Renders the report as the human-readable table the CLI prints.
    pub fn render(&self) -> String {
        let width = self.designs.iter().map(|d| d.name.len()).max().unwrap_or(4).max(4);
        let mut out = format!(
            "batch: {} design(s) on {} worker(s) in {:.1}s — {} succeeded, {} degraded, {} \
             failed, {} checkpoint hit(s)\n",
            self.designs.len(),
            self.workers,
            self.wall_s,
            self.succeeded(),
            self.degraded(),
            self.failed(),
            self.checkpoint_hits,
        );
        for design in &self.designs {
            let resumed = match &design.resumed_from {
                Some(stage) => format!(", resumed from {stage}"),
                None => String::new(),
            };
            let forecast = match (&design.predicted_stage_s, &design.actual_stage_s) {
                (Some(predicted), Some(actual)) => {
                    format!(
                        ", predicted {:.1}s / measured {:.1}s",
                        predicted.total_s(),
                        actual.total_s()
                    )
                }
                (Some(predicted), None) => format!(", predicted {:.1}s", predicted.total_s()),
                _ => String::new(),
            };
            out.push_str(&format!(
                "  {:<width$}  {:<9}  {} attempt(s), {:.1}s{resumed}{forecast}\n",
                design.name,
                design.status.label(),
                design.attempts,
                design.wall_s,
            ));
            if let DesignStatus::Failed { error, stage, .. } = &design.status {
                // Pre-flight lint rejections are called out distinctly from
                // runtime stage failures: the design never entered the flow,
                // so there is no partial work, no journal, and no point in a
                // degraded retry — fix the netlist and resubmit.
                let at = match stage.as_deref() {
                    Some(LINT_STAGE) => " (rejected by pre-flight lint, flow not started)".into(),
                    Some(VERIFY_STAGE) => {
                        " (stage artifact rejected by post-stage verification)".into()
                    }
                    Some(stage) => format!(" at {stage}"),
                    None => String::new(),
                };
                out.push_str(&format!("  {:<width$}  error{at}: {error}\n", ""));
            }
        }
        out
    }
}

/// Renders an error with its full `source()` chain, one `caused by:` hop
/// per line-less segment. Shared by the batch classifier and the CLI.
pub fn error_chain(error: &dyn std::error::Error) -> String {
    let mut out = error.to_string();
    let mut source = error.source();
    while let Some(cause) = source {
        out.push_str(&format!("; caused by: {cause}"));
        source = cause.source();
    }
    out
}

/// The stage label under which pre-flight lint rejections are classified.
/// Lint is "stage 0": [`FlowSession::synthesize`] runs it before the
/// synthesizer, so a rejected design fails in milliseconds without running
/// any stage engine.
pub const LINT_STAGE: &str = "lint";

/// The stage label under which post-stage verification failures are
/// classified: a stage engine completed, but its artifact failed LEC,
/// phase-legality or LVS-lite re-verification. Like [`LINT_STAGE`]
/// failures, these are deterministic and skip the degraded retry.
pub const VERIFY_STAGE: &str = "verify";

/// A failure inside one attempt, attributed to a stage when one was
/// running. The stage is a label rather than a [`FlowStage`] because the
/// pre-flight lint gate ([`LINT_STAGE`]) fails designs before any engine
/// stage exists.
#[derive(Debug, Clone)]
struct StageFailure {
    stage: Option<String>,
    error: String,
}

impl StageFailure {
    /// A failure attributed to an engine stage.
    fn at(stage: FlowStage, error: String) -> Self {
        Self { stage: Some(stage.name().to_owned()), error }
    }

    /// A failure with no stage attribution (input loading, output writing).
    fn unattributed(error: String) -> Self {
        Self { stage: None, error }
    }
}

/// What a successful attempt reports back.
struct AttemptSuccess {
    /// The stage of the journal checkpoint the attempt resumed from.
    resumed_from: Option<FlowStage>,
    /// Measured per-stage wall-clock of this attempt, from the session's
    /// accumulators (stages resumed from the journal contribute 0).
    timings: StageTimings,
}

thread_local! {
    /// Set while an expected (fault-boundary) `catch_unwind` region runs on
    /// this worker, so the panic hook stays quiet: the payload is captured
    /// and classified in the report instead of spamming stderr mid-batch.
    static SILENT_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace for panics the batch fault boundary is about to catch,
/// chaining to the previous hook for every other panic.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SILENT_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` under `catch_unwind`, returning the panic payload as a string.
fn catch_stage_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_panic_hook();
    SILENT_PANICS.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SILENT_PANICS.with(|s| s.set(false));
    result.map_err(|payload| {
        if let Some(message) = payload.downcast_ref::<&str>() {
            (*message).to_owned()
        } else if let Some(message) = payload.downcast_ref::<String>() {
            message.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    })
}

/// The checkpoint file name of a stage artifact.
fn checkpoint_file(stage: FlowStage) -> String {
    format!("{}.json", stage.name())
}

/// Executes [`BatchConfig`] over a slice of [`BatchJob`]s; see the
/// [module docs](self) for the fault boundary it maintains around each
/// design.
#[derive(Debug)]
pub struct BatchRunner {
    config: BatchConfig,
}

impl BatchRunner {
    /// Creates a runner for a batch configuration.
    pub fn new(config: BatchConfig) -> Self {
        BatchRunner { config }
    }

    /// The runner's configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Runs every job to a classification. Each design is one job of
    /// [`run_in_order`] on `workers` workers (one worker is the calling
    /// thread), taken longest-predicted-first, over one shared resolved
    /// technology; the report lists the designs in job order. A design
    /// failing (panic, deadline, corrupt checkpoint, bad input) never stops
    /// the others.
    ///
    /// # Errors
    ///
    /// Returns an error only for batch-level problems that make every
    /// design unrunnable: an unresolvable technology
    /// ([`FlowError::Technology`]) or an uncreatable journal/output
    /// directory ([`FlowError::Io`]). Per-design failures are
    /// classifications in the report, not errors.
    pub fn run(&self, jobs: &[BatchJob]) -> Result<BatchReport, FlowError> {
        let start = Instant::now();
        let technology = self.config.flow.resolve_technology()?;
        let workers = effective_threads(self.config.workers, jobs.len());
        for dir in [&self.config.journal_dir, &self.config.output_dir].into_iter().flatten() {
            std::fs::create_dir_all(dir).map_err(|e| FlowError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
        }
        // With several designs in flight and the stage knob on auto, each
        // design gets an equal slice of the core budget: the batch
        // parallelizes across designs first, and N workers × all-cores
        // stage threads would oversubscribe every core.
        let flow = if workers > 1 && self.config.flow.threads() == 0 {
            self.config.flow.clone().with_threads(ThreadBudget::machine().share(workers))
        } else {
            self.config.flow.clone()
        };

        // Predictive pass: static bounds only — no stage engine runs — so
        // it costs O(gates) per design. A design that fails to load or
        // analyse stays unpredicted (`None`); its own attempt will classify
        // the error.
        let predictions: Vec<Option<StageTimings>> = if self.config.predict {
            jobs.iter().map(|job| predict_stages(job, &flow, &technology)).collect()
        } else {
            vec![None; jobs.len()]
        };
        let order = schedule_order(&predictions);

        let mut reports = run_in_order(jobs.len(), &mut vec![(); workers], |_, next| {
            let index = order[next];
            (index, self.run_design(&jobs[index], &flow, &technology, predictions[index]))
        });
        reports.sort_unstable_by_key(|&(index, _)| index);
        let designs: Vec<DesignReport> = reports.into_iter().map(|(_, design)| design).collect();
        let checkpoint_hits = designs.iter().map(|d| d.checkpoint_hits).sum();
        Ok(BatchReport { designs, workers, wall_s: start.elapsed().as_secs_f64(), checkpoint_hits })
    }

    /// Runs one design to a classification: attempt 1 (faults armed,
    /// journal resume), then — if that failed and retry is on — the
    /// degraded attempt 2 (fault-free, from scratch).
    fn run_design(
        &self,
        job: &BatchJob,
        flow: &FlowConfig,
        technology: &Arc<Technology>,
        predicted: Option<StageTimings>,
    ) -> DesignReport {
        let start = Instant::now();
        let first = self.run_attempt(job, flow.clone(), technology, 1);
        let (status, attempts, resumed_from, actual) = match first {
            Ok(success) => {
                (DesignStatus::Succeeded, 1, success.resumed_from, Some(success.timings))
            }
            // Lint rejections and verification failures are deterministic —
            // the degraded retry changes the thread count, not the netlist
            // or the verifier's verdict — so retrying would waste a full
            // flow attempt on a design that fails the same check again.
            Err(failure)
                if self.config.retry_degraded
                    && failure.stage.as_deref() != Some(LINT_STAGE)
                    && failure.stage.as_deref() != Some(VERIFY_STAGE) =>
            {
                match self.run_attempt(job, flow.clone().with_threads(1), technology, 2) {
                    Ok(success) => (DesignStatus::Degraded, 2, None, Some(success.timings)),
                    Err(retry_failure) => (
                        DesignStatus::Failed {
                            error: format!(
                                "{}; degraded retry also failed: {}",
                                failure.error, retry_failure.error
                            ),
                            stage: failure.stage,
                            attempts: 2,
                        },
                        2,
                        None,
                        None,
                    ),
                }
            }
            Err(failure) => (
                DesignStatus::Failed { error: failure.error, stage: failure.stage, attempts: 1 },
                1,
                None,
                None,
            ),
        };
        DesignReport {
            name: job.name.clone(),
            status,
            attempts,
            wall_s: start.elapsed().as_secs_f64(),
            resumed_from: resumed_from.map(|s| s.name().to_owned()),
            // A resumed design skipped its checkpoint's stage and every
            // earlier one.
            checkpoint_hits: resumed_from.map_or(0, |stage| stage as usize + 1),
            predicted_stage_s: predicted,
            actual_stage_s: actual,
        }
    }

    /// One attempt at one design: resume from the newest intact journal
    /// checkpoint (attempt 1 only) or lint and synthesize the netlist, then
    /// advance through the remaining stages inside the fault boundary,
    /// checkpointing each, and write the final GDS.
    fn run_attempt(
        &self,
        job: &BatchJob,
        flow: FlowConfig,
        technology: &Arc<Technology>,
        attempt: usize,
    ) -> Result<AttemptSuccess, StageFailure> {
        let mut session = FlowSession::with_technology(flow, Arc::clone(technology));
        let journal = self.config.journal_dir.as_ref().map(|dir| dir.join(&job.name));
        if let Some(dir) = &journal {
            std::fs::create_dir_all(dir).map_err(|e| {
                StageFailure::unattributed(format!(
                    "cannot create journal directory `{}`: {e}",
                    dir.display()
                ))
            })?;
        }
        // The degraded retry diagnoses "did the *flow* fail" — it always
        // recomputes from scratch rather than resuming the journal that may
        // itself be the problem (it still refreshes the checkpoints it
        // passes).
        let resumed =
            if attempt == 1 { self.load_resume(journal.as_deref(), &session)? } else { None };
        let resumed_from = resumed.as_ref().map(Artifact::stage);
        let mut artifact = match resumed {
            Some(artifact) => artifact,
            None => {
                let design = load_design(&job.input)
                    .map_err(|e| StageFailure::unattributed(error_chain(&e)))?;
                let netlist = design.netlist;
                let mut synthesized = self.run_stage(
                    &mut session,
                    &job.name,
                    FlowStage::Synthesis,
                    attempt,
                    |session| session.synthesize(&netlist).map(Artifact::Synthesized),
                )?;
                // The input netlist is needed only for LEC of the synthesis
                // artifact; it is dropped once that artifact is journaled.
                self.seal(
                    &session,
                    &job.name,
                    attempt,
                    journal.as_deref(),
                    &mut synthesized,
                    Some(&netlist),
                )?;
                synthesized
            }
        };
        while let Some(stage) = artifact.stage().next() {
            artifact =
                self.run_stage(&mut session, &job.name, stage, attempt, |s| s.advance(artifact))?;
            self.seal(&session, &job.name, attempt, journal.as_deref(), &mut artifact, None)?;
        }
        let Artifact::Checked(Checked { routed, layout, drc, .. }) = artifact else {
            unreachable!("the stage loop ends at the check stage")
        };
        // Only the layout is left to write: free the design, its routing and
        // the DRC report before the GDS byte image is built.
        drop((routed, drc));
        self.write_gds(&job.name, &layout)?;
        Ok(AttemptSuccess { resumed_from, timings: session.timings() })
    }

    /// The cancellation token a stage runs under: an injected zero
    /// deadline, else the configured `stage_timeout`, else none.
    fn stage_token(&self, design: &str, stage: FlowStage, attempt: usize) -> CancelToken {
        if attempt == 1 && self.config.faults.matches(design, stage, FaultKind::ZeroDeadline) {
            return CancelToken::with_deadline(Duration::ZERO);
        }
        self.config.stage_timeout.map_or_else(CancelToken::none, CancelToken::with_deadline)
    }

    /// Runs one stage inside the fault boundary: deadline armed, injected
    /// panic fired, and any unwind caught and attributed to the stage.
    fn run_stage(
        &self,
        session: &mut FlowSession,
        design: &str,
        stage: FlowStage,
        attempt: usize,
        body: impl FnOnce(&mut FlowSession) -> Result<Artifact, FlowError>,
    ) -> Result<Artifact, StageFailure> {
        session.set_cancel_token(self.stage_token(design, stage, attempt));
        let inject_panic =
            attempt == 1 && self.config.faults.matches(design, stage, FaultKind::Panic);
        let result = catch_stage_panic(move || {
            if inject_panic {
                panic!("injected fault: panic at the {stage} stage");
            }
            body(session)
        });
        match result {
            Ok(Ok(artifact)) => Ok(artifact),
            // Synthesis opens with the pre-flight lint gate: an infeasible
            // design is rejected there, before any stage engine runs.
            Ok(Err(error @ FlowError::Lint(_))) => {
                Err(StageFailure { stage: Some(LINT_STAGE.to_owned()), error: error_chain(&error) })
            }
            // The stage engine finished; it was the artifact that failed
            // re-verification. Classify at the verify stage so the report
            // (and the retry policy) can tell "the placer crashed" apart
            // from "the placer produced an illegal design".
            Ok(Err(error @ FlowError::Verify(_))) => Err(StageFailure {
                stage: Some(VERIFY_STAGE.to_owned()),
                error: error_chain(&error),
            }),
            Ok(Err(error)) => Err(StageFailure::at(stage, error_chain(&error))),
            Err(panic_message) => {
                Err(StageFailure::at(stage, format!("stage panicked: {panic_message}")))
            }
        }
    }

    /// Closes a stage this attempt ran: fires the corrupt fault planned for
    /// it — the damaged artifact is re-verified and the attempt fails at
    /// [`VERIFY_STAGE`] — or else journals the artifact. `input` is the
    /// flow's netlist, given for the synthesis artifact so LEC judges its
    /// corruption.
    fn seal(
        &self,
        session: &FlowSession,
        design: &str,
        attempt: usize,
        journal: Option<&Path>,
        artifact: &mut Artifact,
        input: Option<&Netlist>,
    ) -> Result<(), StageFailure> {
        let stage = artifact.stage();
        if attempt == 1 && self.config.faults.matches(design, stage, FaultKind::CorruptArtifact) {
            corrupt(artifact);
            let report = session.verify_artifact(artifact, input);
            // A corruption the verifier misses is a failure too: a corrupt
            // fault exists to prove the verifier catches it.
            let error = if report.has_errors() {
                error_chain(&FlowError::Verify(report))
            } else {
                format!(
                    "injected corrupt fault at the {stage} stage was not detected by \
                     post-stage verification"
                )
            };
            return Err(StageFailure { stage: Some(VERIFY_STAGE.to_owned()), error });
        }
        self.write_checkpoint(journal, design, attempt, artifact)
    }

    /// Journals a stage artifact (atomically), applying the truncation
    /// fault when one is planned.
    fn write_checkpoint(
        &self,
        journal: Option<&Path>,
        design: &str,
        attempt: usize,
        artifact: &Artifact,
    ) -> Result<(), StageFailure> {
        let Some(dir) = journal else { return Ok(()) };
        let stage = artifact.stage();
        let attribute = |error: FlowError| StageFailure::at(stage, error_chain(&error));
        let path = dir.join(checkpoint_file(stage));
        artifact.write_checkpoint(&path).map_err(attribute)?;
        if attempt == 1 && self.config.faults.matches(design, stage, FaultKind::TruncateCheckpoint)
        {
            // Simulate a torn write (the atomic rename protocol prevents
            // real ones): the *next* run over this journal must detect the
            // damage instead of resuming garbage.
            let halve = || {
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(file.metadata()?.len() / 2)
            };
            halve().map_err(|e| {
                attribute(FlowError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            })?;
        }
        Ok(())
    }

    /// Writes the final GDS to the output directory (atomically), when one
    /// is configured.
    fn write_gds(&self, design: &str, layout: &Layout) -> Result<(), StageFailure> {
        let Some(dir) = &self.config.output_dir else { return Ok(()) };
        let path = dir.join(format!("{design}.gds"));
        write_atomic(&path, |out| {
            layout.gds.write_to(out).map_err(|e| FlowError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })
        })
        .map_err(|e| StageFailure::unattributed(error_chain(&e)))
    }

    /// Finds the newest intact checkpoint in a design's journal and loads
    /// it through [`FlowSession::load_checkpoint`], straight from the file:
    /// the text is never held whole. A missing file means no checkpoint
    /// of that stage. A checkpoint that exists but fails to read, parse,
    /// validate, or match the session's technology fails the attempt at its
    /// stage, naming the file — resuming a damaged journal silently would
    /// defeat the byte-identity guarantee.
    fn load_resume(
        &self,
        journal: Option<&Path>,
        session: &FlowSession,
    ) -> Result<Option<Artifact>, StageFailure> {
        let Some(dir) = journal else { return Ok(None) };
        for stage in FlowStage::ALL.into_iter().rev() {
            let path = dir.join(checkpoint_file(stage));
            let file = match File::open(&path) {
                Ok(file) => file,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    return Err(StageFailure::at(
                        stage,
                        format!("cannot read checkpoint `{}`: {e}", path.display()),
                    ))
                }
            };
            let located = |e: FlowError| {
                StageFailure::at(stage, format!("`{}`: {}", path.display(), error_chain(&e)))
            };
            let artifact = session.load_checkpoint(BufReader::new(file)).map_err(located)?;
            if artifact.stage() != stage {
                return Err(StageFailure::at(
                    stage,
                    format!("`{}` holds the {} checkpoint", path.display(), artifact.stage()),
                ));
            }
            return Ok(Some(artifact));
        }
        Ok(None)
    }
}

/// Damages an artifact the way its stage's verifier must catch: a gate of
/// the synthesized netlist, the phase of a placed net, a routed segment or
/// the emitted layout.
fn corrupt(artifact: &mut Artifact) {
    match artifact {
        Artifact::Synthesized(synthesized) => {
            aqfp_verify::mutate::corrupt_netlist_gate(&mut synthesized.synthesis.netlist);
        }
        Artifact::Placed(placed) => {
            aqfp_verify::mutate::corrupt_design_phase(&mut placed.placement.design);
        }
        Artifact::Routed(routed) => {
            aqfp_verify::mutate::corrupt_routing(&mut routed.routing);
        }
        Artifact::Checked(checked) => {
            aqfp_verify::mutate::corrupt_layout(&mut checked.layout);
        }
    }
}

/// The per-stage wall-clock forecast for one job: loads the design (a
/// parse, no engine) and maps the predictor's calibrated cost model onto
/// [`StageTimings`]. Any failure — unreadable input, cyclic netlist —
/// yields `None`, leaving the design unscheduled-by-cost; its own attempt
/// will classify the error.
fn predict_stages(
    job: &BatchJob,
    flow: &FlowConfig,
    technology: &Technology,
) -> Option<StageTimings> {
    let design = load_design(&job.input).ok()?;
    let report =
        aqfp_predict::predict(&job.name, &design.netlist, technology, &flow.predict_options());
    let cost = &report.bounds.as_ref()?.cost;
    Some(StageTimings {
        synthesis_s: cost.synthesis_s,
        placement_s: cost.placement_s,
        routing_s: cost.routing_s,
        check_s: cost.check_s,
    })
}

/// The order workers pull jobs in: indices sorted longest-predicted-first.
/// The sort is stable, so designs with equal forecasts keep submission
/// order and unpredicted designs run last, also in submission order.
fn schedule_order(predictions: &[Option<StageTimings>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..predictions.len()).collect();
    order.sort_by(|&a, &b| {
        let total =
            |i: usize| predictions[i].as_ref().map(|t| t.total_s()).unwrap_or(f64::NEG_INFINITY);
        total(b).partial_cmp(&total(a)).unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs_parse_and_reject_malformed_input() {
        let fault = Fault::parse("panic:adder8:placement").expect("valid spec");
        assert_eq!(
            fault,
            Fault {
                design: "adder8".to_owned(),
                stage: FlowStage::Placement,
                kind: FaultKind::Panic
            }
        );
        assert_eq!(
            Fault::parse("deadline:c432:routing").expect("valid").kind,
            FaultKind::ZeroDeadline
        );
        assert_eq!(
            Fault::parse("truncate:apc32:synthesis").expect("valid").kind,
            FaultKind::TruncateCheckpoint
        );
        assert_eq!(
            Fault::parse("corrupt:adder8:routing").expect("valid").kind,
            FaultKind::CorruptArtifact
        );
        assert!(Fault::parse("panic:adder8").expect_err("missing stage").contains("kind:design"));
        assert!(Fault::parse("explode:adder8:check").expect_err("bad kind").contains("explode"));
        assert!(Fault::parse("panic:adder8:teardown").expect_err("bad stage").contains("teardown"));
    }

    #[test]
    fn fault_plans_match_exactly() {
        let plan = FaultPlan::none().with(Fault::parse("panic:adder8:placement").unwrap());
        assert!(plan.matches("adder8", FlowStage::Placement, FaultKind::Panic));
        assert!(!plan.matches("adder8", FlowStage::Placement, FaultKind::ZeroDeadline));
        assert!(!plan.matches("adder8", FlowStage::Routing, FaultKind::Panic));
        assert!(!plan.matches("c432", FlowStage::Placement, FaultKind::Panic));
    }

    #[test]
    fn jobs_take_their_name_from_the_input() {
        assert_eq!(BatchJob::from_input("adder8").name, "adder8");
        assert_eq!(BatchJob::from_input("designs/alu.v").name, "alu");
    }

    #[test]
    fn batch_reports_round_trip_through_json() {
        let report = BatchReport {
            designs: vec![
                DesignReport {
                    name: "adder8".to_owned(),
                    status: DesignStatus::Succeeded,
                    attempts: 1,
                    wall_s: 1.25,
                    resumed_from: Some("routing".to_owned()),
                    checkpoint_hits: 3,
                    predicted_stage_s: Some(StageTimings {
                        synthesis_s: 0.05,
                        placement_s: 0.4,
                        routing_s: 0.2,
                        check_s: 0.1,
                    }),
                    actual_stage_s: Some(StageTimings {
                        synthesis_s: 0.04,
                        placement_s: 0.6,
                        routing_s: 0.3,
                        check_s: 0.05,
                    }),
                },
                DesignReport {
                    name: "c432".to_owned(),
                    status: DesignStatus::Degraded,
                    attempts: 2,
                    wall_s: 4.0,
                    resumed_from: None,
                    checkpoint_hits: 0,
                    predicted_stage_s: None,
                    actual_stage_s: Some(StageTimings::default()),
                },
                DesignReport {
                    name: "apc32".to_owned(),
                    status: DesignStatus::Failed {
                        error: "stage panicked: injected".to_owned(),
                        stage: Some("placement".to_owned()),
                        attempts: 1,
                    },
                    attempts: 1,
                    wall_s: 0.5,
                    resumed_from: None,
                    checkpoint_hits: 0,
                    predicted_stage_s: Some(StageTimings {
                        synthesis_s: 0.1,
                        placement_s: 1.0,
                        routing_s: 0.5,
                        check_s: 0.2,
                    }),
                    actual_stage_s: None,
                },
            ],
            workers: 2,
            wall_s: 5.75,
            checkpoint_hits: 3,
        };
        let json = report.to_json().expect("serializes");
        let back = BatchReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.succeeded(), 1);
        assert_eq!(back.degraded(), 1);
        assert_eq!(back.failed(), 1);
        // The predicted-vs-actual pair survives the round trip.
        let first = &back.designs[0];
        assert_eq!(first.predicted_stage_s.map(|t| t.total_s()), Some(0.75));
        assert_eq!(first.actual_stage_s.map(|t| t.placement_s), Some(0.6));
        assert!(BatchReport::from_json("{\"designs\": [").is_err());
    }

    /// A checkpoint that fails to serialize partway through (a non-finite
    /// number) fails its stage and leaves neither `<stage>.json` nor the
    /// `<stage>.tmp` it was streamed into.
    #[test]
    fn a_failed_checkpoint_write_leaves_no_file_behind() {
        let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
        let netlist = aqfp_netlist::generators::benchmark_circuit(
            aqfp_netlist::generators::Benchmark::Adder8,
        );
        let mut placed = session
            .synthesize(&netlist)
            .and_then(|synthesized| session.place(synthesized))
            .expect("adder8 places");
        placed.placement.hpwl_um = f64::NAN;
        let artifact = Artifact::Placed(placed);
        assert!(matches!(artifact.to_json(), Err(FlowError::Checkpoint(_))));

        let dir = std::env::temp_dir().join(format!("superflow_nan_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let runner = BatchRunner::new(BatchConfig::new(FlowConfig::fast()));
        let failure =
            runner.write_checkpoint(Some(&dir), "adder8", 1, &artifact).expect_err("NaN refused");
        assert_eq!(failure.stage.as_deref(), Some("placement"));
        assert!(failure.error.contains("non-finite"), "{}", failure.error);
        let path = dir.join("placement.json");
        assert!(failure.error.contains(&format!("`{}`", path.display())), "{}", failure.error);
        assert!(!path.exists(), "no checkpoint under the final name");
        assert!(!dir.join("placement.tmp").exists(), "the temporary file is removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_stage_timeout_is_every_stages_deadline() {
        let runner = |timeout: Option<Duration>| {
            let mut config = BatchConfig::new(FlowConfig::fast());
            config.stage_timeout = timeout;
            let deadline = Fault::parse("deadline:adder8:routing").unwrap();
            config.faults = FaultPlan::none().with(deadline);
            BatchRunner::new(config)
        };
        // Every stage runs under the whole timeout, whatever its forecast: a
        // check stage forecast at 0.04 s once got 2.3 s of a 10 s timeout.
        let timed = runner(Some(Duration::from_secs(10)));
        let tokens: Vec<CancelToken> =
            FlowStage::ALL.into_iter().map(|stage| timed.stage_token("c432", stage, 1)).collect();
        std::thread::sleep(Duration::from_millis(2500));
        assert!(tokens.iter().all(|token| !token.is_cancelled()));
        let zero = runner(Some(Duration::ZERO));
        assert!(zero.stage_token("c432", FlowStage::Check, 1).is_cancelled());
        // The injected zero deadline fires on the first attempt only.
        assert!(timed.stage_token("adder8", FlowStage::Routing, 1).is_cancelled());
        assert!(!timed.stage_token("adder8", FlowStage::Routing, 2).is_cancelled());
        // Without a timeout no deadline is armed: the token never fires.
        let unbounded = runner(None).stage_token("c432", FlowStage::Check, 1);
        unbounded.cancel();
        assert!(!unbounded.is_cancelled());
    }

    #[test]
    fn schedule_orders_longest_predicted_first_with_unpredicted_last() {
        let stage = |s: f64| StageTimings { synthesis_s: s, ..StageTimings::default() };
        let predictions = vec![
            Some(stage(1.0)),  // 0
            None,              // 1 — unpredicted, must run last
            Some(stage(10.0)), // 2 — longest, must run first
            Some(stage(1.0)),  // 3 — tie with 0, submission order preserved
            None,              // 4 — unpredicted, after 1
        ];
        assert_eq!(schedule_order(&predictions), vec![2, 0, 3, 1, 4]);
        // Without predictions the queue is submission order.
        assert_eq!(schedule_order(&[None, None, None]), vec![0, 1, 2]);
    }

    #[test]
    fn predict_stages_maps_the_cost_forecast_onto_stage_timings() {
        let flow = FlowConfig::fast();
        let technology = flow.resolve_technology().expect("resolves");
        let job = BatchJob::from_input("adder8");
        let predicted = predict_stages(&job, &flow, &technology).expect("benchmark predicts");
        assert!(predicted.total_s() > 0.0);
        assert!(predicted.placement_s > 0.0);
        // An unloadable input yields no forecast instead of an error.
        let missing = BatchJob::from_input("/no/such/design.v");
        assert!(predict_stages(&missing, &flow, &technology).is_none());
    }

    #[test]
    fn reports_render_the_predicted_vs_measured_pair() {
        let report = BatchReport {
            designs: vec![DesignReport {
                name: "adder8".to_owned(),
                status: DesignStatus::Succeeded,
                attempts: 1,
                wall_s: 1.0,
                resumed_from: None,
                checkpoint_hits: 0,
                predicted_stage_s: Some(StageTimings {
                    synthesis_s: 0.5,
                    ..StageTimings::default()
                }),
                actual_stage_s: Some(StageTimings { placement_s: 0.25, ..StageTimings::default() }),
            }],
            workers: 1,
            wall_s: 1.0,
            checkpoint_hits: 0,
        };
        let rendered = report.render();
        assert!(rendered.contains("predicted 0.5s / measured 0.2s"), "{rendered}");
    }

    #[test]
    fn reports_render_failures_with_their_stage() {
        let report = BatchReport {
            designs: vec![DesignReport {
                name: "apc32".to_owned(),
                status: DesignStatus::Failed {
                    error: "stage panicked: injected".to_owned(),
                    stage: Some("placement".to_owned()),
                    attempts: 1,
                },
                attempts: 1,
                wall_s: 0.5,
                resumed_from: None,
                checkpoint_hits: 0,
                predicted_stage_s: None,
                actual_stage_s: None,
            }],
            workers: 1,
            wall_s: 0.5,
            checkpoint_hits: 0,
        };
        let rendered = report.render();
        assert!(rendered.contains("apc32"), "{rendered}");
        assert!(rendered.contains("failed"), "{rendered}");
        assert!(rendered.contains("at placement"), "{rendered}");
        assert!(rendered.contains("1 failed"), "{rendered}");
    }

    #[test]
    fn error_chains_render_every_source_hop() {
        let error = FlowError::from(aqfp_netlist::parsers::ParseNetlistError {
            line: 7,
            column: 0,
            message: "bad token".to_owned(),
        });
        let chain = error_chain(&error);
        assert!(chain.contains("failed to parse"), "{chain}");
        assert!(chain.contains("caused by:"), "{chain}");
        assert!(chain.contains("bad token"), "{chain}");
    }

    #[test]
    fn error_chains_name_each_cause_once() {
        use aqfp_netlist::{GateId, NetlistError};
        let parse = FlowError::from(aqfp_netlist::parsers::ParseNetlistError {
            line: 4,
            column: 13,
            message: "undeclared signal `a b`".to_owned(),
        });
        let cycle = || NetlistError::Cycle { gate: GateId(3) };
        let synthesis = FlowError::from(aqfp_synth::SynthesisError::InvalidInput(cycle()));
        for (error, inner) in [
            (parse, "undeclared signal `a b`".to_owned()),
            (FlowError::from(cycle()), cycle().to_string()),
            (synthesis, cycle().to_string()),
        ] {
            let chain = error_chain(&error);
            assert_eq!(chain.matches(inner.as_str()).count(), 1, "{chain}");
        }
    }
}
