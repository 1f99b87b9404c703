//! `superflow` command-line interface.
//!
//! Runs the RTL-to-GDS flow on a structural-Verilog or BLIF file, or on one
//! of the built-in benchmark circuits, and writes the resulting GDSII (and
//! optionally an SVG rendering and the resumable JSON checkpoint of the
//! last stage run). The subcommands run many designs at once (`batch`), run
//! the static checks on their own (`lint`, `predict`, `verify`), emit large
//! generated designs (`generate`) and inspect the technology (PDK)
//! descriptions the flow can target (`tech`).
//!
//! Every subcommand reads its flags through one option table: a flag means
//! the same thing wherever it is accepted, and a flag a subcommand does not
//! take is a usage error.
//!
//! ```text
//! superflow [OPTIONS] <input>
//!
//!   <input>                 path to a .v / .sv / .blif file, or a benchmark
//!                           name (adder8, apc32, apc128, decoder, sorter32,
//!                            c432, c499, c1355, c1908)
//!   --placer <name>         superflow | gordian | taas        [superflow]
//!   --tech <name|file>      technology to target: a built-in name
//!                           (mit-ll-sqf5ee, aist-stp2) or a technology
//!                           file (.toml, or .json)            [mit-ll-sqf5ee]
//!   --threads <n>           worker threads for parallel stages; 0 = all
//!                           cores                             [0]
//!   --stop-after <stage>    stop after synthesis | placement | routing |
//!                           check; no GDS or SVG is written
//!   --report <file.json>    write the resumable JSON checkpoint of the last
//!                           stage run (check, or the --stop-after stage),
//!                           which `superflow verify` reads
//!   --output <file.gds>     GDSII output path                 [<design>.gds]
//!   --svg <file.svg>        also write an SVG rendering
//!   --fast                  use the reduced-effort placement configuration
//!   --verify                gate every stage boundary with the post-stage
//!                           verifiers (LEC, phase-legality, LVS-lite)
//!   --fanout-threshold <n>  fan-out above which the pre-flight lint rule
//!                           AQFP-W009 fires
//!   --quiet                 print only the one-line summary
//!
//! superflow batch [OPTIONS] <input>...
//!
//!   runs many designs through the flow on a pool of worker threads with a
//!   fault boundary around each design (panic isolation, per-stage
//!   deadlines, degraded retry, crash-safe journaling — see the
//!   superflow::batch module docs).
//!
//!   --workers <n>           designs in flight at once; 0 = all cores [0]
//!   --stage-timeout <s>     per-stage wall-clock ceiling in seconds. When
//!                           the predictive cost model has a forecast for a
//!                           design, each stage's deadline is scaled from
//!                           its predicted cost, clamped between 10% of
//!                           this value (floor) and this value (ceiling);
//!                           designs without a forecast get the flat value
//!   --no-predict            skip the predictive pass: submission order and
//!                           flat per-stage deadlines
//!   --no-retry              skip the degraded retry of failed designs
//!   --journal <dir>         stage-checkpoint directory; re-running with the
//!                           same journal resumes each design from its last
//!                           completed stage
//!   --output-dir <dir>      write each design's final GDS here
//!   --report <file.json>    write the structured batch report as JSON
//!   --fault <k:d:s>         inject a deterministic fault (testing):
//!                           panic|deadline|truncate|corrupt : design : stage
//!   plus --placer/--tech/--threads/--fast/--verify/--fanout-threshold/
//!   --quiet as above
//!
//! superflow lint [OPTIONS] <input>...
//!
//!   runs the pre-flight static-analysis rules (the same gate the flow and
//!   the batch driver apply before any stage engine) over one or more
//!   designs without running the flow. Inputs parse leniently, so every
//!   undriven net is reported with its source span instead of failing at
//!   the first.
//!
//!   --tech <name|file>      technology to lint against, as above
//!   --format <text|json>    output format                     [text]
//!   --deny <rule>           treat a rule (or `all`) as an error; repeatable
//!   --warn <rule>           demote a rule (or `all`) to a warning; repeatable
//!   --allow <rule>          suppress a rule (or `all`); repeatable
//!   --fanout-threshold <n>  fan-out above which AQFP-W009 fires
//!   --rules                 print the rule catalog and exit
//!
//! superflow predict [OPTIONS] <input>...
//!
//!   runs the predictive feasibility analysis over one or more designs
//!   without running any stage engine: phase-depth intervals, splitter and
//!   buffer bounds, a die-size and row estimate, a channel-congestion
//!   forecast and a calibrated per-stage cost model. Findings carry stable
//!   AQFP-P0xx rule ids and also fire inside `superflow lint` and the
//!   flow/batch pre-flight gate.
//!
//!   --tech <name|file>      technology to predict against, as above
//!   --format <text|json>    output format; json includes the numeric
//!                           bounds and the cost forecast         [text]
//!   --deny/--warn/--allow <rule>   severity overrides, as for lint
//!   --rules                 print the prediction rule catalog and exit
//!
//! superflow verify [OPTIONS] <artifact>...
//!
//!   re-checks finished flow outputs from first principles: logic
//!   equivalence between input and synthesized netlists (LEC),
//!   phase-legality of the placed/routed design, and LVS-lite extraction
//!   of the GDS byte stream against the routed netlist. Each artifact is
//!   either a `.gds` layout (the flow is re-run on the matching input and
//!   the committed bytes are checked against the re-derived design) or a
//!   `.json` stage checkpoint written by `--report`/`--journal` (the
//!   verifiers applicable to that stage run directly on it).
//!
//!   --tech <name|file>      technology to verify under, as above
//!   --placer <name>         re-derive with this placer, as above
//!   --fast                  re-derive with the reduced-effort placement
//!                           configuration
//!   --threads <n>           worker threads for the re-derivation     [0]
//!   --against <input>       the original design input (file, benchmark
//!                           name or gen: spec) for LEC; defaults to the
//!                           artifact's design name / file stem
//!   --format <text|json>    output format                         [text]
//!   --inject-defect <kind>  corrupt one wire | cell | phase before
//!                           verifying, to prove the defect is caught
//!   --rules                 print the verification rule catalog and exit
//!
//!   --tech, --placer and --fast decide the re-derived layout, so a `.gds`
//!   artifact verifies only under the values it was built with.
//!
//!   lint, predict and verify exit 0 when every input is clean or has only
//!   warnings, 1 when any input has error-severity findings or fails to
//!   load, 2 on usage errors.
//!
//! superflow generate <family> [OPTIONS]
//!
//!   emits a parameterized large design (tiled_mul, apc_array, random_dag)
//!   as a netlist file — the same generators the flow reaches directly via
//!   `gen:<family>:<cells>[:<seed>]` input specs — for scale testing with
//!   external tools or committed fixtures.
//!
//!   --cells <n>             requested gate count (the generator rounds to
//!                           its tiling)                        [10000]
//!   --seed <n>              PRNG seed (random_dag only)        [0]
//!   --output <file>, -o     output path; `.blif` selects BLIF, anything
//!                           else structural Verilog        [stdout, Verilog]
//!
//! superflow tech list [--quiet]     list known technologies (--quiet:
//!                                   names only, one per line)
//! superflow tech show <name|file>   validate a technology and print its
//!                                   summary
//! superflow tech dump <name> [--output <file>]
//!                                   write a built-in technology as an
//!                                   editable TOML file (stdout by default)
//! ```
//!
//! Every subcommand takes `--help`. Exit codes: 0 success, 1 flow error, 2
//! usage error, 3 partial batch failure (the batch completed, but at least
//! one design failed — including designs rejected by the pre-flight lint
//! stage, which the batch report distinguishes from runtime failures).

#![warn(clippy::unwrap_used)]

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::ExitCode;

use aqfp_cells::{EnergyModel, Technology, TechnologyRegistry};
use aqfp_layout::{render_svg, DrcReport, SvgOptions};
use aqfp_netlist::generators::LargeFamily;
use aqfp_netlist::Netlist;
use aqfp_place::PlacerKind;
use serde::Serialize;
use superflow::lint::RuleInfo;
use superflow::session::write_atomic;
use superflow::verify::{mutate, Defect};
use superflow::{
    error_chain, Artifact, BatchConfig, BatchJob, BatchRunner, Checked, Fault, FaultPlan,
    FlowConfig, FlowError, FlowObserver, FlowSession, FlowStage, LintConfig, LintReport,
    PredictReport, RepairScope, StageTimings, TechSpec, VerifyConfig, VerifyReport,
};

/// Exit code for usage errors (bad flags, malformed specs).
const EXIT_USAGE: u8 = 2;
/// Exit code for a batch that completed but classified at least one design
/// as failed.
const EXIT_PARTIAL_FAILURE: u8 = 3;

// ---------------------------------------------------------------------------
// The option table
// ---------------------------------------------------------------------------

/// The subcommand a command line selects. `Run` is the bare
/// `superflow <input>` form; `Tech` is `tech` without a known action, which
/// only parses as `--help` or a usage error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Command {
    #[default]
    Run,
    Batch,
    Lint,
    Predict,
    Verify,
    Generate,
    Tech,
    TechList,
    TechShow,
    TechDump,
}

impl Command {
    /// Splits the subcommand words off the front of the arguments.
    fn split(args: &[String]) -> (Command, &[String]) {
        let word = |index: usize| args.get(index).map(String::as_str);
        let command = match word(0) {
            Some("batch") => Command::Batch,
            Some("lint") => Command::Lint,
            Some("predict") => Command::Predict,
            Some("verify") => Command::Verify,
            Some("generate") => Command::Generate,
            Some("tech") => match word(1) {
                Some("list") => return (Command::TechList, &args[2..]),
                Some("show") => return (Command::TechShow, &args[2..]),
                Some("dump") => return (Command::TechDump, &args[2..]),
                _ => Command::Tech,
            },
            _ => return (Command::Run, args),
        };
        (command, &args[1..])
    }

    /// The subcommand's name in messages.
    fn name(self) -> &'static str {
        match self {
            Command::Run => "flow",
            Command::Batch => "batch",
            Command::Lint => "lint",
            Command::Predict => "predict",
            Command::Verify => "verify",
            Command::Generate => "generate",
            Command::Tech => "tech",
            Command::TechList => "tech list",
            Command::TechShow => "tech show",
            Command::TechDump => "tech dump",
        }
    }

    /// The flags the subcommand takes besides `--help`; any other flag is a
    /// usage error.
    fn flags(self) -> &'static [Flag] {
        use Flag::*;
        match self {
            Command::Run => &[
                Placer,
                Tech,
                Threads,
                Fast,
                Verify,
                FanoutThreshold,
                Quiet,
                StopAfter,
                Report,
                Output,
                Svg,
            ],
            Command::Batch => &[
                Placer,
                Tech,
                Threads,
                Fast,
                Verify,
                FanoutThreshold,
                Quiet,
                Workers,
                StageTimeout,
                NoPredict,
                NoRetry,
                Journal,
                OutputDir,
                Report,
                FaultSpec,
            ],
            Command::Lint => &[Tech, Format, Deny, Warn, Allow, FanoutThreshold, Rules],
            Command::Predict => &[Tech, Format, Deny, Warn, Allow, Rules],
            Command::Verify => &[Tech, Placer, Fast, Threads, Against, Format, InjectDefect, Rules],
            Command::Generate => &[Cells, Seed, Output, ShortOutput],
            Command::TechList => &[Quiet],
            Command::TechDump => &[Output],
            Command::Tech | Command::TechShow => &[],
        }
    }
}

/// Every command-line flag. [`Flag::parse`] is the one place a flag is
/// spelled, and [`Command::flags`] lists the ones each subcommand takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flag {
    Placer,
    Tech,
    Threads,
    Fast,
    Verify,
    FanoutThreshold,
    Quiet,
    StopAfter,
    Report,
    Output,
    ShortOutput,
    Svg,
    Workers,
    StageTimeout,
    NoPredict,
    NoRetry,
    Journal,
    OutputDir,
    FaultSpec,
    Format,
    Deny,
    Warn,
    Allow,
    Rules,
    Against,
    InjectDefect,
    Cells,
    Seed,
    Help,
}

impl Flag {
    /// The flag `arg` spells, if any.
    fn parse(arg: &str) -> Option<Flag> {
        Some(match arg {
            "--placer" => Flag::Placer,
            "--tech" => Flag::Tech,
            "--threads" => Flag::Threads,
            "--fast" => Flag::Fast,
            "--verify" => Flag::Verify,
            "--fanout-threshold" => Flag::FanoutThreshold,
            "--quiet" => Flag::Quiet,
            "--stop-after" => Flag::StopAfter,
            "--report" => Flag::Report,
            "--output" => Flag::Output,
            "-o" => Flag::ShortOutput,
            "--svg" => Flag::Svg,
            "--workers" => Flag::Workers,
            "--stage-timeout" => Flag::StageTimeout,
            "--no-predict" => Flag::NoPredict,
            "--no-retry" => Flag::NoRetry,
            "--journal" => Flag::Journal,
            "--output-dir" => Flag::OutputDir,
            "--fault" => Flag::FaultSpec,
            "--format" => Flag::Format,
            "--deny" => Flag::Deny,
            "--warn" => Flag::Warn,
            "--allow" => Flag::Allow,
            "--rules" => Flag::Rules,
            "--against" => Flag::Against,
            "--inject-defect" => Flag::InjectDefect,
            "--cells" => Flag::Cells,
            "--seed" => Flag::Seed,
            "--help" | "-h" => Flag::Help,
            _ => return None,
        })
    }
}

/// Why a command line did not parse into [`Options`].
#[derive(Debug)]
enum Usage {
    /// `--help`: print the usage text and exit 0.
    Help,
    /// A usage error: print it with the usage text and exit 2.
    Error(String),
}

impl From<String> for Usage {
    fn from(message: String) -> Self {
        Usage::Error(message)
    }
}

/// A parsed command line. Flags the subcommand does not take keep their
/// defaults.
#[derive(Debug, Default)]
struct Options {
    command: Command,
    /// The positional arguments: inputs, artifacts, the generator family or
    /// the technology name or file.
    inputs: Vec<String>,
    placer: Option<PlacerKind>,
    tech: Option<String>,
    threads: Option<usize>,
    fast: bool,
    verify: bool,
    quiet: bool,
    /// The `--deny/--warn/--allow/--fanout-threshold` lint policy.
    lint: LintConfig,
    stop_after: Option<FlowStage>,
    report: Option<String>,
    output: Option<String>,
    svg: Option<String>,
    workers: usize,
    stage_timeout_s: Option<f64>,
    no_predict: bool,
    no_retry: bool,
    journal: Option<String>,
    output_dir: Option<String>,
    faults: Vec<Fault>,
    json: bool,
    rules: bool,
    against: Option<String>,
    inject: Option<Defect>,
    family: Option<LargeFamily>,
    cells: usize,
    seed: u64,
}

impl Options {
    /// Parses a whole command line, subcommand words included.
    fn parse(args: &[String]) -> Result<Options, Usage> {
        let (command, args) = Command::split(args);
        let mut options = Options { command, cells: 10_000, ..Options::default() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = match Flag::parse(arg) {
                Some(flag) if flag == Flag::Help || command.flags().contains(&flag) => flag,
                None if !arg.starts_with("--") => {
                    options.inputs.push(arg.clone());
                    continue;
                }
                _ => return Err(format!("unknown {} option `{arg}`", command.name()).into()),
            };
            let mut value = || args.next().cloned().ok_or_else(|| format!("{arg} needs a value"));
            match flag {
                Flag::Help => return Err(Usage::Help),
                Flag::Placer => {
                    options.placer = Some(match value()?.as_str() {
                        "superflow" => PlacerKind::SuperFlow,
                        "gordian" => PlacerKind::GordianBased,
                        "taas" => PlacerKind::Taas,
                        other => return Err(format!("unknown placer `{other}`").into()),
                    })
                }
                Flag::Tech => once(&mut options.tech, arg, value()?)?,
                Flag::Threads => options.threads = Some(number(arg, &value()?)?),
                Flag::Fast => options.fast = true,
                Flag::Verify => options.verify = true,
                Flag::FanoutThreshold => {
                    options.lint.fanout_threshold = Some(number(arg, &value()?)?)
                }
                Flag::Quiet => options.quiet = true,
                Flag::StopAfter => {
                    options.stop_after = Some(match value()?.as_str() {
                        "synthesis" | "synth" => FlowStage::Synthesis,
                        "placement" | "place" => FlowStage::Placement,
                        "routing" | "route" => FlowStage::Routing,
                        "check" | "drc" => FlowStage::Check,
                        other => return Err(format!("unknown stage `{other}`").into()),
                    })
                }
                Flag::Report => options.report = Some(value()?),
                Flag::Output | Flag::ShortOutput => once(&mut options.output, arg, value()?)?,
                Flag::Svg => options.svg = Some(value()?),
                Flag::Workers => options.workers = number(arg, &value()?)?,
                Flag::StageTimeout => {
                    let value = value()?;
                    let seconds: f64 = number(arg, &value)?;
                    if !seconds.is_finite() || seconds < 0.0 {
                        return Err(format!(
                            "{arg} needs a non-negative finite number, got `{value}`"
                        )
                        .into());
                    }
                    options.stage_timeout_s = Some(seconds);
                }
                Flag::NoPredict => options.no_predict = true,
                Flag::NoRetry => options.no_retry = true,
                Flag::Journal => options.journal = Some(value()?),
                Flag::OutputDir => options.output_dir = Some(value()?),
                Flag::FaultSpec => options.faults.push(Fault::parse(&value()?)?),
                Flag::Format => {
                    options.json = match value()?.as_str() {
                        "json" => true,
                        "text" => false,
                        other => return Err(format!("unknown format `{other}`").into()),
                    }
                }
                Flag::Deny => options.lint.deny.push(value()?),
                Flag::Warn => options.lint.warn.push(value()?),
                Flag::Allow => options.lint.allow.push(value()?),
                Flag::Rules => options.rules = true,
                Flag::Against => once(&mut options.against, arg, value()?)?,
                Flag::InjectDefect => {
                    let value = value()?;
                    options.inject = Some(Defect::parse(&value).ok_or_else(|| {
                        format!("unknown defect `{value}` (available: wire, cell, phase)")
                    })?);
                }
                Flag::Cells => options.cells = number(arg, &value()?)?,
                Flag::Seed => options.seed = number(arg, &value()?)?,
            }
        }
        options.check_inputs()?;
        Ok(options)
    }

    /// Checks the positional arguments against what the subcommand takes.
    fn check_inputs(&mut self) -> Result<(), String> {
        let name = self.command.name();
        match self.command {
            Command::Run => {
                self.single("an input")?;
                if self.stop_after.is_some() && (self.output.is_some() || self.svg.is_some()) {
                    return Err("--output/--svg write final layout artifacts, which --stop-after \
                         skips; drop --stop-after (or use --report to keep that stage's \
                         checkpoint)"
                        .to_owned());
                }
            }
            Command::Batch => {
                if self.inputs.is_empty() {
                    return Err("batch needs at least one input".to_owned());
                }
                let mut names: Vec<String> = Vec::new();
                for input in &self.inputs {
                    let name = BatchJob::from_input(input).name;
                    if names.contains(&name) {
                        return Err(format!(
                            "two batch inputs reduce to the design name `{name}`; journals and \
                             GDS outputs are keyed by name, so each design needs a distinct one"
                        ));
                    }
                    names.push(name);
                }
            }
            Command::Lint | Command::Predict | Command::Verify => {
                if self.inputs.is_empty() && !self.rules {
                    return Err(format!("{name} needs at least one input (or --rules)"));
                }
            }
            Command::Generate => {
                let available = LargeFamily::ALL.map(|f| f.name()).join(", ");
                let family = self.single(&format!("a family (available: {available})"))?;
                let family = LargeFamily::parse(family).ok_or_else(|| {
                    format!("unknown generator family `{family}` (available: {available})")
                })?;
                if self.cells > LargeFamily::MAX_CELLS {
                    return Err(format!(
                        "--cells {} exceeds the generator limit of {} cells",
                        self.cells,
                        LargeFamily::MAX_CELLS
                    ));
                }
                self.family = Some(family);
            }
            Command::Tech => {
                return Err(match self.inputs.first() {
                    Some(action) => {
                        format!("unknown tech action `{action}` (available: list, show, dump)")
                    }
                    None => "tech needs an action: list, show or dump".to_owned(),
                })
            }
            Command::TechList => {
                if let Some(extra) = self.inputs.first() {
                    return Err(format!("unexpected argument `{extra}`"));
                }
            }
            Command::TechShow => {
                self.single("a technology name or file")?;
            }
            Command::TechDump => {
                self.single("a built-in technology name")?;
            }
        }
        Ok(())
    }

    /// The one positional argument (`what`) the subcommand takes.
    fn single(&self, what: &str) -> Result<&str, String> {
        match self.inputs.as_slice() {
            [input] => Ok(input),
            [] => Err(format!("{} needs {what}", self.command.name())),
            [_, extra, ..] => Err(format!("unexpected argument `{extra}`")),
        }
    }

    /// The flow configuration the command line selects. Subcommands that do
    /// not take a flag get its default: lint and predict run under the paper
    /// default on the chosen technology, and verify re-derives with the
    /// per-stage gates off because it runs the verifiers itself.
    fn flow_config(&self) -> FlowConfig {
        let config = if self.fast { FlowConfig::fast() } else { FlowConfig::paper_default() };
        let mut config = config.with_lint(self.lint.clone());
        if let Some(value) = &self.tech {
            config = config.with_tech(tech_spec(value));
        }
        if let Some(placer) = self.placer {
            config = config.with_placer(placer);
        }
        if let Some(threads) = self.threads {
            config = config.with_threads(threads);
        }
        if self.verify {
            config = config.with_verify(VerifyConfig { enabled: true, ..VerifyConfig::default() });
        }
        config
    }

    /// The batch configuration: the flow configuration plus the batch flags.
    fn batch_config(&self) -> BatchConfig {
        let mut config = BatchConfig::new(self.flow_config())
            .with_workers(self.workers)
            .with_retry_degraded(!self.no_retry)
            .with_predict(!self.no_predict)
            .with_faults(FaultPlan { faults: self.faults.clone() });
        if let Some(seconds) = self.stage_timeout_s {
            config = config.with_stage_timeout_s(seconds);
        }
        if let Some(dir) = &self.journal {
            config = config.with_journal_dir(dir);
        }
        if let Some(dir) = &self.output_dir {
            config = config.with_output_dir(dir);
        }
        config
    }
}

/// Stores a flag value that may be given only once.
fn once(slot: &mut Option<String>, flag: &str, value: String) -> Result<(), String> {
    match slot.replace(value) {
        Some(_) => Err(format!("{flag} given more than once")),
        None => Ok(()),
    }
}

/// Parses a numeric flag value.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

fn usage() -> &'static str {
    "usage: superflow [--placer superflow|gordian|taas] [--tech name|file.toml] [--threads n] \
     [--stop-after synthesis|placement|routing|check] [--report checkpoint.json] \
     [--output out.gds] [--svg out.svg] [--fast] [--verify] \
     [--fanout-threshold n] [--quiet] \
     <input.v|input.sv|input.blif|benchmark>\n\
     \x20      superflow batch [--workers n] [--stage-timeout seconds] [--no-predict] \
     [--no-retry] [--journal dir] [--output-dir dir] [--report out.json] \
     [--fault panic|deadline|truncate|corrupt:design:stage] [flow options] <input>...\n\
     \x20      superflow lint [--tech name|file.toml] \
     [--format text|json] [--deny rule] [--warn rule] [--allow rule] \
     [--fanout-threshold n] [--rules] <input>...\n\
     \x20      superflow predict [--tech name|file.toml] \
     [--format text|json] [--deny rule] [--warn rule] [--allow rule] \
     [--rules] <input>...\n\
     \x20      superflow verify [--tech name|file.toml] [--placer superflow|gordian|taas] \
     [--fast] [--threads n] [--against input] [--format text|json] \
     [--inject-defect wire|cell|phase] [--rules] <artifact.gds|checkpoint.json>...\n\
     \x20      superflow generate tiled_mul|apc_array|random_dag [--cells n] \
     [--seed n] [--output file.v|-o file.v]\n\
     \x20      superflow tech list [--quiet]\n\
     \x20      superflow tech show <name|file>\n\
     \x20      superflow tech dump <name> [--output file.toml]"
}

/// Interprets a `--tech` value: a known registry name resolves to the
/// built-in; anything that looks like a path — it contains a separator or
/// an extension dot — is a technology file. A bare name that matches
/// nothing still resolves as `Builtin`, so the error lists the available
/// registry names instead of a confusing missing-file message.
fn tech_spec(value: &str) -> TechSpec {
    if TechnologyRegistry::global().get(value).is_some() || !value.contains(['/', '\\', '.']) {
        TechSpec::builtin(value)
    } else {
        TechSpec::file(value)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(Usage::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(Usage::Error(message)) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match options.command {
        Command::Run => run_flow(&options),
        Command::Batch => run_batch(&options),
        Command::Lint | Command::Predict | Command::Verify => run_checks(&options),
        Command::Generate => run_generate(&options),
        Command::Tech | Command::TechList | Command::TechShow | Command::TechDump => {
            match run_tech(&options) {
                Ok(output) => {
                    println!("{output}");
                    ExitCode::SUCCESS
                }
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The flow
// ---------------------------------------------------------------------------

/// Loads the input netlist through the shared [`superflow::input`] loader
/// (benchmark names resolve to generated circuits, file paths dispatch on
/// their extension), rendering errors with their full source chain.
fn load_netlist(input: &str) -> Result<Netlist, String> {
    superflow::load_netlist(input).map_err(|e| error_chain(&e))
}

/// Prints stage progress unless `--quiet` is given.
struct StageLog;

impl FlowObserver for StageLog {
    fn stage_finished(&mut self, stage: FlowStage, elapsed_s: f64) {
        println!("[{:<9}] finished in {elapsed_s:.2}s", stage.name());
    }

    fn drc_iteration(&mut self, iteration: usize, report: &DrcReport, scope: RepairScope<'_>) {
        println!(
            "[{:<9}] repair iteration {iteration}: {} violation(s), {scope}",
            "check",
            report.violations.len(),
        );
    }
}

/// Runs the flow on the one input through `--stop-after` (the check stage
/// by default), printing stage progress unless `--quiet`, and returns the
/// last stage's artifact with the session's stage timings.
fn run(options: &Options) -> Result<(Artifact, StageTimings), String> {
    let netlist = load_netlist(&options.inputs[0])?;
    let mut session = FlowSession::new(options.flow_config()).map_err(|e| error_chain(&e))?;
    if !options.quiet {
        println!(
            "[{:<9}] technology {} ({})",
            "tech",
            session.technology().name,
            session.config().tech.describe()
        );
        session.add_observer(Box::new(StageLog));
    }
    let last = options.stop_after.unwrap_or(FlowStage::Check);
    let mut artifact =
        Artifact::Synthesized(session.synthesize(&netlist).map_err(|e| error_chain(&e))?);
    while artifact.stage() != last {
        artifact = session.advance(artifact).map_err(|e| error_chain(&e))?;
    }
    Ok((artifact, session.timings()))
}

/// The one-line summary of the artifact a run ends at.
fn summary(artifact: &Artifact) -> String {
    let name = artifact.design_name();
    match artifact {
        Artifact::Synthesized(synthesized) => {
            let stats = synthesized.stats();
            format!(
                "{name}: {} JJs / {} nets / {} phases after synthesis",
                stats.jj_count, stats.net_count, stats.delay
            )
        }
        Artifact::Placed(placed) => format!(
            "{name}: HPWL {:.0} µm, {} buffer lines, WNS {}",
            placed.placement.hpwl_um,
            placed.placement.buffer_lines,
            placed.placement.wns_display()
        ),
        Artifact::Routed(routed) => format!(
            "{name}: routed {} nets, {:.0} µm, {} vias",
            routed.routing.stats.nets_routed,
            routed.routing.stats.total_wirelength_um,
            routed.routing.stats.total_vias
        ),
        Artifact::Checked(checked) => checked.summary(),
    }
}

fn run_flow(options: &Options) -> ExitCode {
    match run(options).and_then(|(artifact, timings)| write_outputs(options, &artifact, timings)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the summary of the artifact a run ended at and writes what the
/// flags ask for: its stage checkpoint with `--report`, and the GDS (plus
/// the `--svg` rendering) unless `--stop-after` ended the run early.
fn write_outputs(
    options: &Options,
    artifact: &Artifact,
    timings: StageTimings,
) -> Result<(), String> {
    println!("{}; {:.1}s", summary(artifact), timings.total_s());
    let write = |path: &str, bytes: &[u8]| {
        std::fs::write(path, bytes).map_err(|e| format!("cannot write `{path}`: {e}"))
    };
    if let Some(path) = &options.report {
        artifact.write_checkpoint(Path::new(path)).map_err(|e| error_chain(&e))?;
    }
    let mut gds_path = None;
    if let (None, Artifact::Checked(checked)) = (options.stop_after, artifact) {
        let path =
            options.output.clone().unwrap_or_else(|| format!("{}.gds", artifact.design_name()));
        // Stream record by record instead of materializing the byte image —
        // at a million cells the image alone is tens of MB.
        write_atomic(Path::new(&path), |out| {
            checked
                .layout
                .gds
                .write_to(out)
                .map_err(|e| FlowError::Io { path: path.clone(), message: e.to_string() })
        })
        .map_err(|e| error_chain(&e))?;
        if let Some(svg_path) = &options.svg {
            let routed = &checked.routed;
            write(
                svg_path,
                render_svg(routed.design(), &routed.routing, &SvgOptions::default()).as_bytes(),
            )?;
        }
        gds_path = Some(path);
    }
    if options.quiet {
        return Ok(());
    }
    if let Artifact::Checked(checked) = artifact {
        let energy = EnergyModel::default();
        let jjs = checked.routed.routing.jj_count;
        println!("placer            : {}", checked.routed.placed.placement.placer);
        println!("clock phases      : {}", checked.routed.placed.synthesized.stats().delay);
        println!("JJs after routing : {jjs}");
        println!(
            "energy estimate   : {:.1} aJ/cycle ({:.2} nW at 5 GHz)",
            energy.cycle_energy_aj(jjs),
            energy.average_power_nw(jjs, aqfp_cells::FourPhaseClock::PAPER_DEFAULT),
        );
    }
    println!(
        "stage timings     : synth {:.2}s / place {:.2}s / route {:.2}s / check {:.2}s",
        timings.synthesis_s, timings.placement_s, timings.routing_s, timings.check_s,
    );
    match (&options.report, options.stop_after) {
        (Some(path), _) => println!("report written to : {path}"),
        (None, Some(stage)) => {
            println!("stopped after {stage}; pass --report to keep its checkpoint")
        }
        (None, None) => {}
    }
    if let Some(path) = gds_path {
        println!("GDS written to    : {path}");
        if let Some(svg_path) = &options.svg {
            println!("SVG written to    : {svg_path}");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// `superflow batch`
// ---------------------------------------------------------------------------

fn run_batch(options: &Options) -> ExitCode {
    let jobs: Vec<BatchJob> = options.inputs.iter().map(BatchJob::from_input).collect();
    let report = match BatchRunner::new(options.batch_config()).run(&jobs) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {}", error_chain(&e));
            return ExitCode::FAILURE;
        }
    };
    if options.quiet {
        // First line of the render is the one-line summary.
        println!("{}", report.render().lines().next().unwrap_or_default());
    } else {
        print!("{}", report.render());
    }
    if let Some(path) = &options.report {
        let json = match report.to_json() {
            Ok(json) => json,
            Err(e) => {
                eprintln!("error: {}", error_chain(&e));
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        if !options.quiet {
            println!("batch report written to {path}");
        }
    }
    if report.failed() > 0 {
        ExitCode::from(EXIT_PARTIAL_FAILURE)
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// `superflow lint|predict|verify`
// ---------------------------------------------------------------------------

/// The shared front end of the three static checks: `--rules` prints the
/// subcommand's rule catalog; otherwise every input gets one report.
fn run_checks(options: &Options) -> ExitCode {
    if options.rules {
        let catalog = match options.command {
            Command::Lint => superflow::lint::catalog(),
            Command::Predict => superflow::predict::catalog(),
            _ => superflow::verify::catalog(),
        };
        println!("{}", render_catalog(&catalog));
        return ExitCode::SUCCESS;
    }
    let config = options.flow_config();
    // Verify opens a session per artifact, and the session resolves the
    // technology; lint and predict take a resolved technology directly.
    if options.command == Command::Verify {
        let verify = |input: &str| verify_one(input, options, &config);
        return report_each(options, verify, VerifyReport::has_errors, VerifyReport::render);
    }
    let technology = match config.resolve_technology() {
        Ok(technology) => technology,
        Err(e) => {
            eprintln!("error: {}", error_chain(&e));
            return ExitCode::FAILURE;
        }
    };
    if options.command == Command::Lint {
        let lint = |input: &str| lint_one(input, &technology, &config);
        report_each(options, lint, LintReport::has_errors, LintReport::render)
    } else {
        let predict = |input: &str| predict_one(input, &technology, &config);
        report_each(options, predict, PredictReport::has_errors, PredictReport::render)
    }
}

/// Reports on every input and prints the reports as text or as one JSON
/// array. Exits 0 when no report has error findings, 1 when any does or an
/// input fails to load.
fn report_each<R: Serialize>(
    options: &Options,
    report_one: impl Fn(&str) -> Result<R, String>,
    has_errors: fn(&R) -> bool,
    render: fn(&R) -> String,
) -> ExitCode {
    let mut reports = Vec::new();
    let mut failed = false;
    for input in &options.inputs {
        match report_one(input) {
            Ok(report) => {
                failed |= has_errors(&report);
                reports.push(report);
            }
            Err(message) => {
                failed = true;
                eprintln!("error: `{input}`: {message}");
            }
        }
    }
    if options.json {
        match serde_json::to_string_pretty(&reports) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: cannot serialize {} reports: {e}", options.command.name());
                return ExitCode::FAILURE;
            }
        }
    } else {
        for report in &reports {
            print!("{}", render(report));
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The rule catalog table `--rules` prints.
fn render_catalog(catalog: &[RuleInfo]) -> String {
    let mut out = String::from("rule       default  summary\n");
    for info in catalog {
        out.push_str(&format!("{:<10} {:<8} {}\n", info.id, info.severity.keyword(), info.summary));
    }
    out.trim_end().to_owned()
}

/// Lints one input with the flow's own pre-flight gate: the structural lint
/// rules plus the predictive AQFP-P0xx feasibility rules. The design loads
/// leniently, so undriven nets become AQFP-E002 findings with their source
/// spans instead of a parse error at the first one.
fn lint_one(input: &str, technology: &Technology, flow: &FlowConfig) -> Result<LintReport, String> {
    let design = superflow::load_design(input).map_err(|e| error_chain(&e))?;
    let name = superflow::input::design_name(input);
    Ok(superflow::lint_design(&name, &design.netlist, technology, flow))
}

/// Runs the predictive analysis on one input: the design loads leniently
/// (so a netlist with undriven nets still gets its feasibility forecast),
/// and the prediction itself never runs a stage engine.
fn predict_one(
    input: &str,
    technology: &Technology,
    flow: &FlowConfig,
) -> Result<PredictReport, String> {
    let design = superflow::load_design(input).map_err(|e| error_chain(&e))?;
    let name = superflow::input::design_name(input);
    Ok(superflow::predict::predict(&name, &design.netlist, technology, &flow.predict_options()))
}

/// Injects one deliberate defect into the artifact of verify input `input`,
/// so a subsequent verification run must report it: a phase defect needs a
/// placed artifact, a cell or wire defect a routed one. Returns a
/// human-readable description of what was damaged.
fn inject_defect(defect: Defect, artifact: &mut Artifact, input: &str) -> Result<String, String> {
    let stage = artifact.stage();
    let (design, routing) = match artifact {
        Artifact::Synthesized(_) => (None, None),
        Artifact::Placed(placed) => (Some(&mut placed.placement.design), None),
        Artifact::Routed(routed) | Artifact::Checked(Checked { routed, .. }) => {
            (Some(&mut routed.placed.placement.design), Some(&mut routed.routing))
        }
    };
    let note = match (defect, design, routing) {
        (Defect::Phase, Some(design), _) => mutate::corrupt_design_phase(design)
            .map(|net| format!("repointed a sink of net n{net} two phases past its driver")),
        (Defect::Cell, Some(design), Some(_)) => mutate::corrupt_design_cell(design)
            .map(|cell| format!("nudged cell `{cell}` half a micron off its placement site")),
        (Defect::Wire, _, Some(routing)) => mutate::corrupt_routing(routing)
            .map(|net| format!("dropped one routed segment of net n{net}")),
        (_, design, _) => {
            let needs = if design.is_none() { "placed" } else { "routed" };
            return Err(format!(
                "--inject-defect {} needs a {needs} artifact; `{input}` stops at {stage}",
                defect.name()
            ));
        }
    };
    note.ok_or_else(|| format!("the design is too small to inject a {} defect", defect.name()))
}

/// Loads the `--against` input, naming the flag in the error.
fn load_against(spec: &str) -> Result<Netlist, String> {
    load_netlist(spec).map_err(|e| format!("--against `{spec}`: {e}"))
}

/// Resolves the original input netlist for LEC: `--against` when given,
/// otherwise the design name (which resolves for benchmark circuits but not
/// for generated or file-based designs). `required` turns an unresolvable
/// input into an error instead of a skipped check.
fn lec_input(
    options: &Options,
    design_name: &str,
    required: bool,
) -> Result<Option<Netlist>, String> {
    match &options.against {
        Some(spec) => load_against(spec).map(Some),
        None => match superflow::load_netlist(design_name) {
            Ok(netlist) => Ok(Some(netlist)),
            Err(_) if !required => Ok(None),
            Err(_) => Err(format!(
                "cannot resolve the original input for `{design_name}` to run logic \
                 equivalence; pass --against <input>"
            )),
        },
    }
}

/// Verifies a committed `.gds` layout: re-runs the flow on the matching
/// input, then checks logic equivalence, phase-legality and an LVS-lite
/// comparison of the committed bytes against the re-derived design.
fn verify_gds_input(
    input: &str,
    options: &Options,
    config: &FlowConfig,
) -> Result<VerifyReport, String> {
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read `{input}`: {e}"))?;
    let netlist = match &options.against {
        Some(spec) => load_against(spec)?,
        None => load_netlist(
            std::path::Path::new(input)
                .file_stem()
                .and_then(|stem| stem.to_str())
                .ok_or_else(|| format!("cannot infer a design name from `{input}`"))?,
        )?,
    };
    let mut session = FlowSession::new(config.clone()).map_err(|e| error_chain(&e))?;
    let mut artifact = Artifact::Checked(session.run(&netlist).map_err(|e| error_chain(&e))?);
    if let Some(defect) = options.inject {
        let note = inject_defect(defect, &mut artifact, input)?;
        eprintln!("note: injected {} defect into `{input}`: {note}", defect.name());
    }
    let Artifact::Checked(checked) = artifact else {
        unreachable!("the flow runs through the check stage")
    };
    let mut report = session.verify_synthesized(&netlist, &checked.routed.placed.synthesized);
    report.merge(session.verify_routed(&checked.routed));
    report.record_check("lvs");
    report.extend(superflow::verify::check_gds(
        &bytes,
        &checked.routed.placed.placement.design,
        &checked.routed.routing,
        session.technology().as_ref(),
    ));
    report.normalize();
    Ok(report)
}

/// Verifies a `.json` stage checkpoint, loaded as a batch resume loads it
/// ([`FlowSession::load_checkpoint`]), with the verifiers of its stage
/// (phase legality from placement on, LVS-lite for checked artifacts, which
/// embed their layout), plus LEC whenever the original input resolves.
fn verify_checkpoint_input(
    input: &str,
    options: &Options,
    config: &FlowConfig,
) -> Result<VerifyReport, String> {
    let file = File::open(input).map_err(|e| format!("cannot read `{input}`: {e}"))?;
    let session = FlowSession::new(config.clone()).map_err(|e| error_chain(&e))?;
    // The batch's resume loader: comparing an artifact against another
    // technology's rules or cell widths would produce nonsense findings,
    // not a useful report.
    let mut artifact =
        session.load_checkpoint(BufReader::new(file)).map_err(|e| error_chain(&e))?;
    if let Some(defect) = options.inject {
        let note = inject_defect(defect, &mut artifact, input)?;
        eprintln!("note: injected {} defect into `{input}`: {note}", defect.name());
    }
    // LEC is the only verifier of a synthesis artifact, so there an
    // unresolvable input is an error: a report with no checks run would
    // read as a pass.
    let required = artifact.stage() == FlowStage::Synthesis;
    let netlist = lec_input(options, artifact.design_name(), required)?;
    Ok(session.verify_artifact(&artifact, netlist.as_ref()))
}

/// Dispatches one verify input on its extension.
fn verify_one(input: &str, options: &Options, config: &FlowConfig) -> Result<VerifyReport, String> {
    if input.ends_with(".gds") {
        verify_gds_input(input, options, config)
    } else if input.ends_with(".json") {
        verify_checkpoint_input(input, options, config)
    } else {
        Err(format!("verify inputs are .gds layouts or .json stage checkpoints, got `{input}`"))
    }
}

// ---------------------------------------------------------------------------
// `superflow generate`
// ---------------------------------------------------------------------------

fn run_generate(options: &Options) -> ExitCode {
    let Some(family) = options.family else {
        unreachable!("the parser requires a generator family")
    };
    let netlist = family.by_cells(options.cells, options.seed);
    let blif = options.output.as_deref().is_some_and(|path| path.ends_with(".blif"));
    let text = if blif {
        aqfp_netlist::writers::to_blif(&netlist)
    } else {
        aqfp_netlist::writers::to_verilog(&netlist)
    };
    match &options.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "generated {}: {} gates / {} inputs / {} outputs, written to {path}",
                netlist.name(),
                netlist.cell_count(),
                netlist.primary_inputs().len(),
                netlist.primary_outputs().len(),
            );
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// `superflow tech list|show|dump`
// ---------------------------------------------------------------------------

/// The header `tech dump` prepends to the pure-TOML body; the parser treats
/// it as comments, so a dumped file loads back unchanged.
fn dump_header(technology: &Technology) -> String {
    format!(
        "# SuperFlow technology description — dumped from `{}`.\n\
         # Edit any value and pass the file back with `superflow --tech <file>`;\n\
         # loading re-validates every field.\n",
        technology.name
    )
}

/// A multi-line human-readable summary of a technology.
fn tech_summary(technology: &Technology) -> String {
    let rules = technology.rules();
    let layers = technology.layers();
    let cell_count = technology.iter().count();
    format!(
        "technology    : {}\n\
         description   : {}\n\
         fingerprint   : {}\n\
         rules         : {} (grid {} µm, spacing {} µm, W_max {} µm, {} routing layers)\n\
         clock         : {} GHz ({} ps phase budget)\n\
         timing        : gate {} ps, wire {} ps/µm, skew {} ps/µm, α = {}\n\
         layers        : outline {} / jj {} / pin {} / metal1 {} / metal2 {} / label {}\n\
         cells         : {} kinds, {} total JJs in the table",
        technology.name,
        technology.description,
        technology.fingerprint(),
        rules.name,
        rules.grid,
        rules.min_spacing,
        rules.max_wirelength,
        rules.routing_layers,
        technology.clock().frequency_ghz,
        technology.clock().phase_budget_ps(),
        technology.timing.gate_delay_ps,
        technology.timing.wire_delay_ps_per_um,
        technology.timing.clock_skew_ps_per_um,
        technology.timing.alpha,
        layers.outline,
        layers.jj,
        layers.pin,
        layers.metal1,
        layers.metal2,
        layers.label,
        cell_count,
        technology.iter().map(|c| c.jj_count).sum::<usize>(),
    )
}

/// Runs a `tech` action, returning the text to print.
fn run_tech(options: &Options) -> Result<String, String> {
    let target = options.inputs.first().map(String::as_str).unwrap_or_default();
    match options.command {
        Command::TechShow => {
            // The same dispatch `--tech` uses, so the two never diverge.
            let technology = tech_spec(target).resolve().map_err(|e| e.to_string())?;
            // Files were validated by the loader; re-validate registry
            // entries too so `tech show` is always a full check.
            technology.validate().map_err(|e| format!("technology `{target}` invalid: {e}"))?;
            Ok(tech_summary(&technology))
        }
        Command::TechDump => {
            let technology = TechnologyRegistry::global().get(target).ok_or_else(|| {
                format!(
                    "no built-in technology named `{target}` (available: {})",
                    TechnologyRegistry::global().names().collect::<Vec<_>>().join(", ")
                )
            })?;
            let body = technology.to_toml().map_err(|e| format!("cannot dump `{target}`: {e}"))?;
            let text = format!("{}{body}", dump_header(&technology));
            match &options.output {
                Some(path) => {
                    std::fs::write(path, &text)
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    Ok(format!("technology `{target}` written to {path}"))
                }
                None => Ok(text.trim_end().to_owned()),
            }
        }
        _ => {
            let mut out = String::new();
            for technology in TechnologyRegistry::global().iter() {
                if options.quiet {
                    out.push_str(&technology.name);
                    out.push('\n');
                } else {
                    out.push_str(&format!("{:<16} {}\n", technology.name, technology.description));
                }
            }
            Ok(out.trim_end().to_owned())
        }
    }
}

/// Parses a command line given as string slices, for the tests.
#[cfg(test)]
fn cli(list: &[&str]) -> Result<Options, Usage> {
    Options::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

/// The usage-error message a command line is rejected with, for the tests.
#[cfg(test)]
fn usage_error(list: &[&str]) -> String {
    match cli(list) {
        Err(Usage::Error(message)) => message,
        other => panic!("expected a usage error for {list:?}, got {other:?}"),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_cells::{AIST_STP2, MIT_LL_SQF5EE};

    /// Runs a `tech` command line.
    fn tech(list: &[&str]) -> Result<String, String> {
        run_tech(&cli(list).expect("parses"))
    }

    #[test]
    fn parses_a_full_command_line() {
        let options = cli(&[
            "--placer",
            "taas",
            "--tech",
            "aist-stp2",
            "--threads",
            "3",
            "--report",
            "out.json",
            "--output",
            "out.gds",
            "--svg",
            "out.svg",
            "--fast",
            "--quiet",
            "adder8",
        ])
        .expect("parses");
        assert_eq!(options.command, Command::Run);
        assert_eq!(options.placer, Some(PlacerKind::Taas));
        assert_eq!(options.tech.as_deref(), Some("aist-stp2"));
        assert_eq!(options.threads, Some(3));
        assert_eq!(options.report.as_deref(), Some("out.json"));
        assert_eq!(options.output.as_deref(), Some("out.gds"));
        assert_eq!(options.svg.as_deref(), Some("out.svg"));
        assert!(options.fast && options.quiet);
        assert_eq!(options.inputs, vec!["adder8".to_owned()]);
        // --stop-after composes with --report (the checkpoint sink).
        let stopped =
            cli(&["--stop-after", "routing", "--report", "r.json", "a.v"]).expect("parses");
        assert_eq!(stopped.stop_after, Some(FlowStage::Routing));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["--placer"]).is_err());
        assert!(cli(&["--placer", "magic", "adder8"]).is_err());
        assert!(cli(&["--threads", "many", "adder8"]).is_err());
        assert!(cli(&["--stop-after", "teardown", "adder8"]).is_err());
        assert!(cli(&["--frobnicate", "adder8"]).is_err());
        assert!(cli(&["a.v", "b.v"]).is_err());
        assert!(cli(&["--tech", "x.toml", "--tech", "aist-stp2", "adder8"]).is_err());
        // `--process` is an unknown flag like any other.
        assert!(usage_error(&["--process", "stp2", "adder8"]).contains("--process"));
        // Flags of other subcommands are not flow flags.
        assert!(cli(&["--workers", "2", "adder8"]).is_err());
        assert!(cli(&["--format", "json", "adder8"]).is_err());
        assert!(cli(&["-o", "out.gds", "adder8"]).is_err());
        // --stop-after skips the layout outputs, so combining it with
        // --output/--svg is a contradiction, not a silent no-op.
        let error = usage_error(&["--stop-after", "route", "--output", "o.gds", "adder8"]);
        assert!(error.contains("--stop-after"), "unhelpful message: {error}");
        assert!(cli(&["--stop-after", "route", "--svg", "o.svg", "adder8"]).is_err());
    }

    #[test]
    fn config_builders_reflect_the_flags() {
        let options =
            cli(&["--tech", "aist-stp2", "--threads", "2", "--fast", "adder8"]).expect("parses");
        let config = options.flow_config();
        assert_eq!(config.tech, TechSpec::builtin(AIST_STP2));
        assert_eq!(config.threads(), 2);
        // --fast lowers the placement effort.
        assert!(
            config.placement.global.iterations
                < FlowConfig::paper_default().placement.global.iterations
        );
        // A non-registry value with an extension is treated as a file path.
        let file = cli(&["--tech", "custom.toml", "adder8"]).expect("parses");
        assert_eq!(file.flow_config().tech, TechSpec::file("custom.toml"));
        // A bare unknown name — `mit-ll` and `stp2` included — resolves as
        // Builtin, so its error lists the registry instead of complaining
        // about a missing file.
        for name in ["mit-ll-sqfee", "mit-ll", "stp2"] {
            assert_eq!(tech_spec(name), TechSpec::builtin(name));
            let err = tech_spec(name).resolve().expect_err("unknown name");
            assert!(err.to_string().contains(MIT_LL_SQF5EE), "{err}");
        }
        // Without flags every subcommand runs the paper default.
        let paper = serde_json::to_string(&FlowConfig::paper_default()).unwrap();
        for list in [&["adder8"][..], &["lint", "a.v"], &["predict", "a.v"], &["verify", "a.gds"]] {
            let config = cli(list).expect("parses").flow_config();
            assert_eq!(serde_json::to_string(&config).unwrap(), paper, "{list:?}");
        }
    }

    #[test]
    fn benchmark_names_resolve_without_touching_the_filesystem() {
        let options = cli(&["--fast", "--quiet", "adder8"]).expect("parses");
        let (artifact, timings) = run(&options).expect("flow runs");
        assert_eq!(artifact.stage(), FlowStage::Check, "no --stop-after given");
        assert_eq!(artifact.design_name(), "adder8");
        assert!(timings.total_s() > 0.0);
    }

    #[test]
    fn stop_after_produces_a_resumable_checkpoint() {
        let options = cli(&[
            "--fast",
            "--quiet",
            "--stop-after",
            "place",
            "--report",
            "unused.json",
            "adder8",
        ])
        .expect("parses");
        let (artifact, _) = run(&options).expect("flow runs");
        assert_eq!(artifact.stage(), FlowStage::Placement, "--stop-after placement stops early");
        let json = artifact.to_json().expect("checkpoint serializes");
        let placed = superflow::Placed::from_json(&json).expect("checkpoint parses");
        assert_eq!(placed.synthesized.design_name, "adder8");
    }

    #[test]
    fn unknown_extensions_get_a_clear_error() {
        let error = load_netlist("design.vhdl").expect_err("vhdl is unsupported");
        assert!(error.contains("extension"), "unhelpful message: {error}");
        assert!(error.contains(".blif"), "should name the supported formats: {error}");
        // Benchmark names keep working without a file.
        assert!(load_netlist("adder8").is_ok());
        // A supported extension on a missing file reports the I/O problem,
        // not a parse failure.
        let missing = load_netlist("no_such_file.v").expect_err("missing file");
        assert!(missing.contains("io error"), "unhelpful message: {missing}");
        assert!(missing.contains("no_such_file.v"), "names the path: {missing}");
    }

    #[test]
    fn batch_args_parse_into_a_batch_config() {
        let options = cli(&[
            "batch",
            "--workers",
            "2",
            "--stage-timeout",
            "30",
            "--no-retry",
            "--journal",
            "runs/j",
            "--output-dir",
            "runs/gds",
            "--report",
            "batch.json",
            "--fault",
            "panic:adder8:placement",
            "--fast",
            "adder8",
            "c432",
        ])
        .expect("parses");
        assert_eq!(options.command, Command::Batch);
        assert_eq!(options.inputs, vec!["adder8".to_owned(), "c432".to_owned()]);
        let config = options.batch_config();
        assert_eq!(config.workers, 2);
        assert_eq!(config.stage_timeout, Some(std::time::Duration::from_secs(30)));
        assert!(!config.retry_degraded);
        assert_eq!(config.journal_dir.as_deref(), Some(std::path::Path::new("runs/j")));
        assert_eq!(config.output_dir.as_deref(), Some(std::path::Path::new("runs/gds")));
        assert!(config.faults.matches("adder8", FlowStage::Placement, superflow::FaultKind::Panic));
        // --fast flows through to the per-design flow configuration.
        assert!(
            config.flow.placement.global.iterations
                < FlowConfig::paper_default().placement.global.iterations
        );
    }

    #[test]
    fn batch_args_reject_bad_input() {
        assert!(cli(&["batch"]).is_err());
        assert!(cli(&["batch", "--workers", "two", "adder8"]).is_err());
        assert!(cli(&["batch", "--stage-timeout", "-5", "adder8"]).is_err());
        assert!(cli(&["batch", "--fault", "panic:adder8", "adder8"]).is_err());
        assert!(cli(&["batch", "--frobnicate", "adder8"]).is_err());
        assert!(cli(&["batch", "--stop-after", "place", "adder8"]).is_err());
        // Two inputs reducing to one design name would share a journal.
        let error = usage_error(&["batch", "adder8", "designs/adder8.v"]);
        assert!(error.contains("adder8"), "{error}");
    }

    #[test]
    fn tech_list_names_every_registry_entry() {
        let listing = tech(&["tech", "list"]).expect("lists");
        assert!(listing.contains(MIT_LL_SQF5EE) && listing.contains(AIST_STP2), "{listing}");
        let quiet = tech(&["tech", "list", "--quiet"]).expect("lists");
        assert_eq!(quiet.lines().collect::<Vec<_>>(), vec![MIT_LL_SQF5EE, AIST_STP2]);
    }

    #[test]
    fn tech_show_summarizes_builtins_and_files() {
        let shown = tech(&["tech", "show", MIT_LL_SQF5EE]).expect("shows");
        assert!(shown.contains("MIT-LL SQF5ee"), "{shown}");
        assert!(shown.contains("fingerprint"), "{shown}");

        let dir = std::env::temp_dir().join("superflow_cli_tech_show");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("dumped.toml");
        let technology = Technology::aist_stp2();
        std::fs::write(
            &path,
            format!("{}{}", dump_header(&technology), technology.to_toml().unwrap()),
        )
        .expect("writes");
        let shown = tech(&["tech", "show", path.to_str().unwrap()]).expect("shows file");
        assert!(shown.contains("AIST STP2"), "{shown}");

        assert!(tech(&["tech", "show", "missing.toml"]).is_err());
        assert!(cli(&["tech", "bogus"]).is_err());
        assert!(cli(&["tech"]).is_err());
    }

    /// `tech` follows the usage-error contract of every other subcommand: a
    /// missing or unknown action, an unknown flag or an extra argument is a
    /// usage error (exit 2), never silently ignored.
    #[test]
    fn tech_usage_errors_are_rejected() {
        assert!(usage_error(&["tech"]).contains("list, show or dump"));
        assert!(usage_error(&["tech", "bogus"]).contains("`bogus`"));
        assert!(usage_error(&["tech", "--frobnicate"]).contains("--frobnicate"));
        assert!(usage_error(&["tech", "list", "--bogus"]).contains("--bogus"));
        assert!(usage_error(&["tech", "list", "extra"]).contains("`extra`"));
        assert!(usage_error(&["tech", "show", MIT_LL_SQF5EE, "extra"]).contains("`extra`"));
        assert!(usage_error(&["tech", "show"]).contains("tech show needs"));
        assert!(usage_error(&["tech", "show", MIT_LL_SQF5EE, "--quiet"]).contains("--quiet"));
        assert!(usage_error(&["tech", "dump", MIT_LL_SQF5EE, "--quiet"]).contains("--quiet"));
        assert!(usage_error(&["tech", "dump"]).contains("tech dump needs"));
    }

    #[test]
    fn tech_dump_round_trips_through_the_loader() {
        let dumped = tech(&["tech", "dump", MIT_LL_SQF5EE]).expect("dumps");
        let loaded = Technology::from_toml(&dumped).expect("dump parses (header is comments)");
        assert_eq!(loaded, Technology::mit_ll_sqf5ee());
        assert!(tech(&["tech", "dump", "no-such-tech"]).is_err());
    }

    /// The acceptance path: dump a built-in, edit one number, run the full
    /// flow on the edited file via `--tech`.
    #[test]
    fn edited_tech_dump_drives_the_full_flow() {
        let dir = std::env::temp_dir().join("superflow_cli_tech_flow");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tight.toml");
        let dumped = tech(&["tech", "dump", MIT_LL_SQF5EE]).expect("dumps");
        let edited = dumped
            .replace("max_wirelength = 400.0", "max_wirelength = 300.0")
            .replace("name = \"mit-ll-sqf5ee\"", "name = \"mit-ll-tight\"");
        assert_ne!(edited, dumped);
        std::fs::write(&path, &edited).expect("writes");

        let buffer_lines = |list: &[&str]| match run(&cli(list).unwrap()).expect("flow runs") {
            (Artifact::Checked(checked), _) => {
                assert_eq!(checked.routed.placed.synthesized.design_name, "adder8");
                checked.routed.placed.placement.buffer_lines
            }
            (artifact, _) => panic!("no --stop-after given, stopped at {}", artifact.stage()),
        };
        let tight =
            buffer_lines(&["--fast", "--quiet", "--tech", path.to_str().unwrap(), "adder8"]);
        // The tighter W_max forces at least as many buffer lines as the
        // stock process.
        let stock = buffer_lines(&["--fast", "--quiet", "adder8"]);
        assert!(tight >= stock, "tighter W_max cannot need fewer buffer lines ({tight} < {stock})");
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod lint_cli_tests {
    use super::*;

    #[test]
    fn parses_a_full_lint_command_line() {
        let options = cli(&[
            "lint",
            "--tech",
            "aist-stp2",
            "--format",
            "json",
            "--deny",
            "AQFP-W009",
            "--deny",
            "AQFP-W006",
            "--warn",
            "AQFP-E005",
            "--allow",
            "AQFP-W007",
            "--fanout-threshold",
            "8",
            "a.v",
            "b.blif",
        ])
        .expect("parses");
        assert_eq!(options.command, Command::Lint);
        assert_eq!(options.inputs, vec!["a.v".to_owned(), "b.blif".to_owned()]);
        assert_eq!(options.tech.as_deref(), Some("aist-stp2"));
        assert!(options.json);
        assert_eq!(options.lint.deny, vec!["AQFP-W009".to_owned(), "AQFP-W006".to_owned()]);
        assert_eq!(options.lint.warn, vec!["AQFP-E005".to_owned()]);
        assert_eq!(options.lint.allow, vec!["AQFP-W007".to_owned()]);
        assert_eq!(options.lint.fanout_threshold, Some(8));
        assert!(!options.rules);
        // The policy reaches the flow configuration lint runs under.
        assert_eq!(options.flow_config().lint, options.lint);
    }

    #[test]
    fn lint_defaults_are_text_format_and_empty_policy() {
        let options = cli(&["lint", "adder8"]).expect("parses");
        assert!(!options.json);
        assert_eq!(options.lint, LintConfig::default());
        assert!(options.tech.is_none());
    }

    #[test]
    fn lint_usage_errors_are_rejected() {
        assert!(cli(&["lint"]).is_err(), "no input");
        assert!(cli(&["lint", "--format", "xml", "a.v"]).is_err(), "bad format");
        assert!(cli(&["lint", "--deny"]).is_err(), "missing rule id");
        assert!(
            cli(&["lint", "--fanout-threshold", "lots", "a.v"]).is_err(),
            "non-numeric threshold"
        );
        assert!(cli(&["lint", "--frobnicate", "a.v"]).is_err(), "unknown flag");
        assert!(cli(&["lint", "--tech", "a", "--tech", "b", "a.v"]).is_err(), "two technologies");
        assert!(cli(&["lint", "--process", "stp2", "a.v"]).is_err(), "not a flag");
        assert!(cli(&["lint", "--fast", "a.v"]).is_err(), "flow-only flag");
    }

    #[test]
    fn generate_args_parse_with_defaults_and_overrides() {
        let options = cli(&["generate", "random_dag"]).expect("parses");
        assert_eq!(options.family, Some(LargeFamily::RandomDag));
        assert_eq!(options.cells, 10_000);
        assert_eq!(options.seed, 0);
        assert!(options.output.is_none());

        let options =
            cli(&["generate", "tiled-mul", "--cells", "50000", "--seed", "9", "-o", "big.v"])
                .expect("parses");
        assert_eq!(options.family, Some(LargeFamily::TiledMultiplier));
        assert_eq!(options.cells, 50_000);
        assert_eq!(options.seed, 9);
        assert_eq!(options.output.as_deref(), Some("big.v"));
    }

    #[test]
    fn generate_usage_errors_are_rejected() {
        assert!(cli(&["generate"]).is_err(), "no family");
        assert!(cli(&["generate", "no_such_family"]).is_err(), "unknown family");
        assert!(cli(&["generate", "random_dag", "apc_array"]).is_err(), "two families");
        assert!(cli(&["generate", "random_dag", "--cells", "lots"]).is_err());
        assert!(cli(&["generate", "random_dag", "--cells", "100000000000"]).is_err(), "over limit");
        assert!(cli(&["generate", "random_dag", "--seed"]).is_err(), "missing value");
        assert!(cli(&["generate", "random_dag", "--frobnicate"]).is_err());
        assert!(cli(&["generate", "random_dag", "-o", "a.v", "--output", "b.v"]).is_err());
    }

    #[test]
    fn rules_flag_needs_no_input_and_catalog_renders_every_rule() {
        let options = cli(&["lint", "--rules"]).expect("parses");
        assert!(options.rules);
        let catalog = render_catalog(&superflow::lint::catalog());
        for info in superflow::lint::catalog() {
            assert!(catalog.contains(info.id), "{} missing from:\n{catalog}", info.id);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod predict_cli_tests {
    use super::*;

    #[test]
    fn parses_a_full_predict_command_line() {
        let options = cli(&[
            "predict",
            "--tech",
            "aist-stp2",
            "--format",
            "json",
            "--deny",
            "AQFP-P002",
            "--warn",
            "AQFP-P001",
            "--allow",
            "AQFP-P005",
            "a.v",
            "b.blif",
        ])
        .expect("parses");
        assert_eq!(options.command, Command::Predict);
        assert_eq!(options.inputs, vec!["a.v".to_owned(), "b.blif".to_owned()]);
        assert_eq!(options.tech.as_deref(), Some("aist-stp2"));
        assert!(options.json);
        assert_eq!(options.lint.deny, vec!["AQFP-P002".to_owned()]);
        assert_eq!(options.lint.warn, vec!["AQFP-P001".to_owned()]);
        assert_eq!(options.lint.allow, vec!["AQFP-P005".to_owned()]);
        assert!(!options.rules);
    }

    #[test]
    fn predict_usage_errors_are_rejected() {
        assert!(cli(&["predict"]).is_err(), "no input");
        assert!(cli(&["predict", "--format", "xml", "a.v"]).is_err(), "bad format");
        assert!(cli(&["predict", "--deny"]).is_err(), "missing rule id");
        assert!(cli(&["predict", "--frobnicate", "a.v"]).is_err(), "unknown flag");
        assert!(
            cli(&["predict", "--tech", "a", "--tech", "b", "a.v"]).is_err(),
            "two technologies"
        );
        // predict never took a fan-out threshold.
        assert!(cli(&["predict", "--fanout-threshold", "4", "a.v"]).is_err());
    }

    #[test]
    fn predict_rules_catalog_names_every_predict_rule() {
        let options = cli(&["predict", "--rules"]).expect("parses");
        assert!(options.rules);
        let catalog = render_catalog(&superflow::predict::catalog());
        for info in superflow::predict::catalog() {
            assert!(catalog.contains(info.id), "{} missing from:\n{catalog}", info.id);
        }
    }

    /// The acceptance path: a committed benchmark predicts feasible, with
    /// numeric bounds, without running any stage engine.
    #[test]
    fn a_benchmark_predicts_feasible_with_bounds() {
        let flow = FlowConfig::paper_default();
        let technology = flow.resolve_technology().expect("resolves");
        let report = predict_one("adder8", &technology, &flow).expect("predicts");
        assert_eq!(report.design, "adder8");
        assert!(!report.has_errors(), "{}", report.render());
        let bounds = report.bounds.as_ref().expect("a clean benchmark has bounds");
        assert!(bounds.structure.cells.min >= 1);
        assert!(bounds.cost.total_s() > 0.0);
    }

    /// `--fanout-threshold` reaches the lint gate through `FlowConfig` on
    /// both the main command and the batch driver.
    #[test]
    fn fanout_threshold_flows_into_the_flow_and_batch_configs() {
        let options = cli(&["--fanout-threshold", "5", "--fast", "adder8"]).expect("parses");
        assert_eq!(options.flow_config().lint.fanout_threshold, Some(5));
        let plain = cli(&["adder8"]).expect("parses");
        assert_eq!(plain.flow_config().lint.fanout_threshold, None);

        let batch = cli(&["batch", "--fanout-threshold", "7", "adder8"]).expect("parses");
        assert_eq!(batch.batch_config().flow.lint.fanout_threshold, Some(7));
        assert!(cli(&["--fanout-threshold", "lots", "adder8"]).is_err());
        assert!(cli(&["batch", "--fanout-threshold", "lots", "adder8"]).is_err());
    }

    /// `--no-predict` turns the batch prediction pass off; it is on by
    /// default.
    #[test]
    fn no_predict_disables_the_batch_prediction_pass() {
        let default = cli(&["batch", "adder8"]).expect("parses");
        assert!(default.batch_config().predict);
        let off = cli(&["batch", "--no-predict", "adder8"]).expect("parses");
        assert!(!off.batch_config().predict);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod verify_cli_tests {
    use super::*;

    /// Writes the fast-config adder8 GDS placed with `placer` to a scratch
    /// file and returns its path.
    fn adder8_gds(dir: &str, placer: PlacerKind) -> String {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("adder8.gds");
        let mut session =
            FlowSession::new(FlowConfig::fast().with_placer(placer)).expect("session opens");
        let checked = session.run(&load_netlist("adder8").expect("resolves")).expect("flow runs");
        std::fs::write(&path, checked.layout.to_gds_bytes()).expect("writes");
        path.to_str().expect("utf-8 path").to_owned()
    }

    /// Verifies one artifact under a `superflow verify` command line.
    fn verify(list: &[&str]) -> VerifyReport {
        let options = cli(list).expect("parses");
        verify_one(&options.inputs[0], &options, &options.flow_config()).expect("verifies")
    }

    #[test]
    fn parses_a_full_verify_command_line() {
        let options = cli(&[
            "verify",
            "--tech",
            "aist-stp2",
            "--placer",
            "gordian",
            "--fast",
            "--threads",
            "2",
            "--against",
            "gen:random_dag:1000:7",
            "--format",
            "json",
            "--inject-defect",
            "phase",
            "a.gds",
            "b.json",
        ])
        .expect("parses");
        assert_eq!(options.command, Command::Verify);
        assert_eq!(options.inputs, vec!["a.gds".to_owned(), "b.json".to_owned()]);
        assert_eq!(options.tech.as_deref(), Some("aist-stp2"));
        assert_eq!(options.threads, Some(2));
        assert!(options.fast && options.json);
        assert_eq!(options.against.as_deref(), Some("gen:random_dag:1000:7"));
        assert_eq!(options.inject, Some(Defect::Phase));
        assert!(!options.rules);
        // The re-derivation config reflects the flags.
        let config = options.flow_config();
        assert_eq!(config.tech, TechSpec::builtin(aqfp_cells::AIST_STP2));
        assert_eq!(config.placer, PlacerKind::GordianBased);
        assert_eq!(config.threads(), 2);
        // The subcommand drives the verifiers itself; the per-stage gates
        // stay off so the re-derivation cannot double-report.
        assert!(!config.verify.enabled);
    }

    #[test]
    fn verify_usage_errors_are_rejected() {
        assert!(cli(&["verify"]).is_err(), "no input");
        assert!(cli(&["verify", "--format", "xml", "a.gds"]).is_err(), "bad format");
        assert!(cli(&["verify", "--inject-defect", "bitflip", "a.gds"]).is_err(), "unknown defect");
        assert!(cli(&["verify", "--against", "a", "--against", "b", "x.gds"]).is_err());
        assert!(cli(&["verify", "--frobnicate", "a.gds"]).is_err(), "unknown flag");
        assert!(
            cli(&["verify", "--tech", "a", "--tech", "b", "a.gds"]).is_err(),
            "two technologies"
        );
        assert!(cli(&["verify", "--verify", "a.gds"]).is_err(), "flow-only flag");
        // Inputs that are neither GDS nor checkpoints are rejected at
        // dispatch, with the supported kinds named.
        let options = cli(&["verify", "design.v"]).expect("parses");
        let error =
            verify_one("design.v", &options, &options.flow_config()).expect_err("not an artifact");
        assert!(error.contains(".gds") && error.contains(".json"), "{error}");
    }

    #[test]
    fn verify_rules_catalog_names_every_verify_rule() {
        let options = cli(&["verify", "--rules"]).expect("parses");
        assert!(options.rules);
        let catalog = render_catalog(&superflow::verify::catalog());
        for info in superflow::verify::catalog() {
            assert!(catalog.contains(info.id), "{} missing from:\n{catalog}", info.id);
        }
    }

    #[test]
    fn verify_flag_gates_the_flow_and_batch_configs() {
        let options = cli(&["--verify", "--fast", "adder8"]).expect("parses");
        assert!(options.flow_config().verify.enabled);
        let plain = cli(&["adder8"]).expect("parses");
        assert!(!plain.flow_config().verify.enabled);
        let batch = cli(&["batch", "--verify", "adder8"]).expect("parses");
        assert!(batch.batch_config().flow.verify.enabled);
    }

    /// The acceptance path: write a GDS with the flow, verify it clean,
    /// then prove an injected defect is caught with its catalogued rule.
    #[test]
    fn a_fresh_gds_verifies_clean_and_an_injected_defect_is_caught() {
        let path = adder8_gds("superflow_cli_verify_gds", PlacerKind::SuperFlow);
        let clean = verify(&["verify", "--fast", &path]);
        assert!(clean.ran("lec") && clean.ran("phase") && clean.ran("lvs"), "{:?}", clean.checks);
        assert!(!clean.has_errors(), "{}", clean.render());

        for defect in [Defect::Wire, Defect::Cell, Defect::Phase] {
            let report = verify(&["verify", "--fast", "--inject-defect", defect.name(), &path]);
            assert!(
                report.mentions(defect.expected_rule()),
                "{} defect must trip {}:\n{}",
                defect.name(),
                defect.expected_rule(),
                report.render()
            );
            assert!(report.has_errors());
        }
    }

    /// `--placer` decides the re-derived layout just like `--fast`: a
    /// TAAS-placed GDS verifies clean under `--placer taas`, and the default
    /// placer's re-derivation rejects the same bytes.
    #[test]
    fn a_gds_verifies_clean_only_under_the_placer_it_was_built_with() {
        let path = adder8_gds("superflow_cli_verify_taas", PlacerKind::Taas);
        let clean = verify(&["verify", "--fast", "--placer", "taas", "--against", "adder8", &path]);
        assert!(clean.ran("lvs"), "{:?}", clean.checks);
        assert!(!clean.has_errors(), "{}", clean.render());

        let mismatched = verify(&["verify", "--fast", "--against", "adder8", &path]);
        assert!(mismatched.mentions("AQFP-V022"), "{}", mismatched.render());
        assert!(mismatched.has_errors());
    }

    /// A `--against` input that fails to load is named in the error of a
    /// `.gds` and a `.json` verify alike, and its parse error appears once.
    #[test]
    fn an_against_input_that_fails_to_load_is_named_once() {
        let dir = std::env::temp_dir().join("superflow_cli_verify_bad_against");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let bad = dir.join("bad.v");
        let source = "module m(a, y);\ninput a;\noutput y;\nbuf g1(y, a b);\nendmodule\n";
        std::fs::write(&bad, source).expect("writes");
        let gds = dir.join("any.gds");
        std::fs::write(&gds, b"never parsed").expect("writes");
        let json = dir.join("adder8_synthesized.json");
        let options = cli(&[
            "--fast",
            "--quiet",
            "--stop-after",
            "synthesis",
            "--report",
            "unused.json",
            "adder8",
        ])
        .expect("parses");
        let (artifact, _) = run(&options).expect("flow runs");
        std::fs::write(&json, artifact.to_json().expect("serializes")).expect("writes");

        let bad = bad.to_str().expect("utf-8 path");
        for input in [&gds, &json] {
            let input = input.to_str().expect("utf-8 path");
            let options = cli(&["verify", "--fast", "--against", bad, input]).expect("parses");
            let error =
                verify_one(input, &options, &options.flow_config()).expect_err("bad --against");
            assert!(error.starts_with(&format!("--against `{bad}`: ")), "{error}");
            assert_eq!(error.matches("expected `,` between `a` and `b`").count(), 1, "{error}");
        }
    }

    /// Stage checkpoints verify with the checks applicable to their stage.
    #[test]
    fn a_placement_checkpoint_verifies_with_phase_and_lec() {
        let dir = std::env::temp_dir().join("superflow_cli_verify_ckpt");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("adder8_placed.json");
        let options = cli(&[
            "--fast",
            "--quiet",
            "--stop-after",
            "place",
            "--report",
            "unused.json",
            "adder8",
        ])
        .expect("parses");
        let (artifact, _) = run(&options).expect("flow runs");
        assert_eq!(artifact.stage(), FlowStage::Placement);
        std::fs::write(&path, artifact.to_json().expect("serializes")).expect("writes");
        let path = path.to_str().expect("utf-8 path");

        let report = verify(&["verify", "--fast", "--against", "adder8", path]);
        assert!(report.ran("phase") && report.ran("lec"), "{:?}", report.checks);
        assert!(!report.ran("lvs"), "no layout exists before the check stage");
        assert!(!report.has_errors(), "{}", report.render());
    }
}
