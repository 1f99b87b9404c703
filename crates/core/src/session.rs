//! The staged flow driver: one session, four inspectable stages.
//!
//! [`FlowSession`] runs the RTL-to-GDS pipeline of Fig. 3 of the paper as
//! explicit, resumable stages:
//!
//! ```text
//! synthesize() → Synthesized
//!     place()  → Placed
//!     route()  → Routed
//!     check()  → Checked       (DRC + incremental violation repair)
//! ```
//!
//! [`FlowSession::run`] is the push-button call through all four; the
//! [`Checked`] artifact it returns is the flow's one result, and its
//! checkpoint is what `superflow --report` writes.
//!
//! Each stage returns a typed artifact that is **inspectable** (public
//! fields), **serializable** (`to_json`/`from_json` checkpoints) and
//! **resumable**: a deserialized artifact continues through the remaining
//! stages of any session with the same configuration and produces the same
//! final GDS. Every artifact embeds the fingerprint of the technology it
//! was produced under, and the stage methods refuse (with
//! [`FlowError::TechnologyMismatch`]) to resume an artifact into a session
//! targeting a different technology, and (with [`FlowError::Checkpoint`])
//! a placed design whose cells are not as wide as the technology's — a
//! checkpoint can never silently mix process data. Stage options may be edited between stages through
//! [`FlowSession::config_mut`].
//!
//! The session shares one [`Technology`] across all stages via `Arc`
//! (instead of cloning it per stage). The check stage repairs DRC
//! violations *on the placement*: the rules its repairs act on (cell
//! spacing, max wirelength) read only the placed design, so its loop runs
//! [`DrcChecker::check_design`] and never routes. No repair records what
//! it changed; the loop finds that itself: it copies every cell's x before
//! a repair, and the cells whose x the repair changed, plus the cells it
//! inserted, name the rows of the [`RepairScope`] its observers see; a
//! repair that changed nothing ends the loop. After the loop the stage
//! routes once: it hands the final design and the routing it was given to
//! [`Router::route_partial`], which finds the channels whose nets or pin
//! columns changed, routes only those and re-keys every other one onto its
//! (possibly renumbered) row (unless the repairs changed the routing grid's
//! column count; then it reroutes every channel). The result is
//! byte-identical to a from-scratch route, even across buffer-row
//! insertions, and the full DRC reads it. The loop keeps no timing state
//! either: after it, the check stage analyzes the repaired design once, so
//! the final placement report carries the post-repair timing.
//!
//! # Examples
//!
//! ```
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//! use superflow::{FlowConfig, FlowSession};
//!
//! let mut session = FlowSession::new(FlowConfig::fast())?;
//! let synthesized = session.synthesize(&benchmark_circuit(Benchmark::Adder8))?;
//! println!("{} JJs after synthesis", synthesized.stats().jj_count);
//!
//! let placed = session.place(synthesized)?;
//! let checkpoint = placed.to_json()?; // resumable JSON snapshot
//!
//! let routed = session.route(placed)?;
//! let checked = session.check(routed)?;
//! println!("{}", checked.summary());
//! assert!(session.timings().total_s() > 0.0);
//! # let _ = checkpoint;
//! # Ok::<(), superflow::FlowError>(())
//! ```
//!
//! # One stage driver
//!
//! A driver that walks the stages in a loop — the batch journal,
//! `--stop-after`, checkpoint verification — holds the current artifact as
//! an [`Artifact`] instead of four typed values. [`FlowSession::advance`]
//! runs the next stage through its typed method, [`Artifact::to_json`] and
//! [`Artifact::from_json`] write and read the typed checkpoint bytes, and
//! [`FlowSession::verify_artifact`] runs the verifiers of the artifact's
//! stage, then LEC when given the input netlist. Files go through
//! [`Artifact::write_checkpoint`], which streams the same bytes into a
//! file, and [`FlowSession::load_checkpoint`], which reads one back for
//! the session's technology.
//!
//! ```
//! use superflow::{Artifact, FlowConfig, FlowSession, FlowStage};
//!
//! let netlist = superflow::load_netlist("adder8")?;
//! let mut session = FlowSession::new(FlowConfig::fast())?;
//! let mut artifact = Artifact::Synthesized(session.synthesize(&netlist)?);
//! while artifact.stage() != FlowStage::Routing {
//!     artifact = session.advance(artifact)?;
//! }
//! let checkpoint = artifact.to_json()?; // the bytes `Routed::to_json` writes
//! assert_eq!(Artifact::from_json(FlowStage::Routing, &checkpoint)?, artifact);
//! assert!(!session.verify_artifact(&artifact, Some(&netlist)).has_errors());
//! # Ok::<(), superflow::FlowError>(())
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use aqfp_cells::{CancelReason, CancelToken, Technology};
use aqfp_layout::{DrcChecker, DrcReport, DrcViolationKind, Layout, LayoutGenerator};
use aqfp_netlist::{Netlist, NetlistStats};
use aqfp_place::buffer_rows::repair_buffer_rows;
use aqfp_place::legalize::legalize;
use aqfp_place::{PlacedDesign, PlacementEngine, PlacementResult};
use aqfp_route::{Router, RoutingResult};
use aqfp_synth::{SynthesizedNetlist, Synthesizer};
use aqfp_timing::{TimingAnalyzer, TimingBatch};
use aqfp_verify::VerifyReport;
use serde::{Deserialize, Serialize};

use crate::config::FlowConfig;
use crate::error::FlowError;

/// The stages of the RTL-to-GDS pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowStage {
    /// Majority-based logic synthesis, splitter and buffer insertion.
    Synthesis,
    /// Placement (global, legalization, detailed) plus buffer rows.
    Placement,
    /// Layer-wise channel routing with space expansion.
    Routing,
    /// Layout generation and DRC with automatic violation repair.
    Check,
}

impl FlowStage {
    /// All stages in execution order.
    pub const ALL: [FlowStage; 4] =
        [FlowStage::Synthesis, FlowStage::Placement, FlowStage::Routing, FlowStage::Check];

    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Synthesis => "synthesis",
            FlowStage::Placement => "placement",
            FlowStage::Routing => "routing",
            FlowStage::Check => "check",
        }
    }

    /// Parses a stage from its [`name`](FlowStage::name); the inverse of
    /// `name`, used by the batch `--fault` specs. (`--stop-after` keeps its
    /// own spellings, which also accept `synth|place|route|drc`.)
    pub fn parse(name: &str) -> Option<FlowStage> {
        FlowStage::ALL.into_iter().find(|stage| stage.name() == name)
    }

    /// The stage that runs after this one; `None` after the last.
    pub(crate) fn next(self) -> Option<FlowStage> {
        FlowStage::ALL.get(self as usize + 1).copied()
    }
}

/// Runs the full pre-flight static analysis for one design: the lint rules
/// over the netlist plus the predictive feasibility rules (`AQFP-P0xx`) over
/// the bounds [`aqfp_predict::predict`] derives, merged into one
/// severity-ordered report under the shared policy in
/// [`FlowConfig::lint`]. This is the report [`FlowSession::lint`] returns
/// and the `superflow lint` CLI prints.
pub fn lint_design(
    design: &str,
    netlist: &Netlist,
    technology: &Technology,
    config: &FlowConfig,
) -> aqfp_lint::LintReport {
    let mut report =
        aqfp_lint::lint(design, netlist, technology, &config.lint_settings(), &config.lint);
    let prediction = aqfp_predict::predict(design, netlist, technology, &config.predict_options());
    report.diagnostics.extend(prediction.diagnostics);
    report.normalize();
    report
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock seconds spent in each stage, accumulated by a session
/// ([`FlowSession::timings`]) and recorded per design in a batch report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Seconds spent in logic synthesis.
    pub synthesis_s: f64,
    /// Seconds spent in placement (including buffer rows).
    pub placement_s: f64,
    /// Seconds spent in the initial routing.
    pub routing_s: f64,
    /// Seconds spent in the repair loop, the one incremental reroute after
    /// it, DRC and layout generation.
    pub check_s: f64,
}

impl StageTimings {
    /// Adds `seconds` to the accumulator of `stage`.
    pub fn record(&mut self, stage: FlowStage, seconds: f64) {
        *self.slot(stage) += seconds;
    }

    /// Seconds accumulated for `stage`.
    pub fn get(&self, stage: FlowStage) -> f64 {
        match stage {
            FlowStage::Synthesis => self.synthesis_s,
            FlowStage::Placement => self.placement_s,
            FlowStage::Routing => self.routing_s,
            FlowStage::Check => self.check_s,
        }
    }

    /// Total seconds across all stages.
    pub fn total_s(&self) -> f64 {
        self.synthesis_s + self.placement_s + self.routing_s + self.check_s
    }

    fn slot(&mut self, stage: FlowStage) -> &mut f64 {
        match stage {
            FlowStage::Synthesis => &mut self.synthesis_s,
            FlowStage::Placement => &mut self.placement_s,
            FlowStage::Routing => &mut self.routing_s,
            FlowStage::Check => &mut self.check_s,
        }
    }
}

/// What a DRC-repair iteration changed in the placement, as its observers
/// see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairScope<'a> {
    /// Every channel reroutes from scratch. The built-in repair loop never
    /// produces this scope, but the variant remains for observers of
    /// external drivers that invalidate the whole routing.
    Full,
    /// The channel rows the repair touched, sorted: the row of each cell
    /// whose x it changed or that it inserted, and the row below it (the
    /// channels carrying the cell's driven and sunk nets). No iteration
    /// reroutes them: the check stage routes once, after its loop, and
    /// [`Router::route_partial`] finds the changed channels itself.
    Channels(&'a [usize]),
    /// The repair changed no cell's x and inserted no cell, so the loop has
    /// reached a fixed point and stops.
    Unchanged,
}

impl fmt::Display for RepairScope<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairScope::Full => f.write_str("full reroute"),
            RepairScope::Channels(rows) => {
                write!(f, "touched {} channel(s)", rows.len())
            }
            RepairScope::Unchanged => f.write_str("placement unchanged"),
        }
    }
}

/// Observes a [`FlowSession`]'s progress.
///
/// All methods have empty default bodies, so an observer implements only the
/// events it cares about. Observers are invoked synchronously from the
/// session's stage methods, in registration order.
pub trait FlowObserver {
    /// A stage is about to run.
    fn stage_started(&mut self, _stage: FlowStage) {}

    /// A stage finished after `elapsed_s` seconds of wall-clock time.
    fn stage_finished(&mut self, _stage: FlowStage, _elapsed_s: f64) {}

    /// The DRC-repair loop ran its repair of iteration `iteration`
    /// (1-based) on `report`, the design-only DRC
    /// ([`DrcChecker::check_design`]) the iteration started from; `scope`
    /// names the channel rows the repair touched. Nothing is rerouted in
    /// the loop: the check stage routes once, after its last iteration.
    fn drc_iteration(&mut self, _iteration: usize, _report: &DrcReport, _scope: RepairScope<'_>) {}
}

/// Serializes a stage artifact to its JSON checkpoint; `what` names the
/// artifact in the error context.
fn checkpoint_to_json<T: Serialize + ?Sized>(
    artifact: &T,
    what: &str,
) -> Result<String, FlowError> {
    serde_json::to_string_pretty(artifact)
        .map_err(|e| FlowError::Checkpoint(format!("cannot serialize {what} artifact: {e}")))
}

/// Writes `path` atomically: `fill` streams into a buffered temporary
/// sibling (`<path>.tmp`), which is renamed onto `path` once complete and
/// removed when anything fails, so neither a crash nor an error leaves a
/// partial file under the final name.
///
/// # Errors
///
/// Returns what `fill` returns, and [`FlowError::Io`] naming `path` if the
/// file cannot be created, flushed or renamed.
pub fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> Result<(), FlowError>,
) -> Result<(), FlowError> {
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| FlowError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let written = File::create(&tmp).map_err(io).and_then(|file| {
        let mut out = BufWriter::with_capacity(1 << 16, file);
        fill(&mut out)?;
        out.flush().map_err(io)
    });
    let result = written.and_then(|()| std::fs::rename(&tmp, path).map_err(io));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The stage whose checkpoint starts with `head`, read from its first key:
/// each stage's artifact opens with a field of its own.
fn checkpoint_stage(head: &[u8]) -> Option<FlowStage> {
    let rest =
        head.trim_ascii_start().strip_prefix(b"{")?.trim_ascii_start().strip_prefix(b"\"")?;
    Some(match &rest[..rest.iter().position(|&byte| byte == b'"')?] {
        b"design_name" => FlowStage::Synthesis,
        b"synthesized" => FlowStage::Placement,
        b"placed" => FlowStage::Routing,
        b"routed" => FlowStage::Check,
        _ => return None,
    })
}

/// A stage artifact as its checkpoint loads: parsed, then checked on its
/// own before any engine sees it.
trait Checkpoint: Deserialize {
    /// The stage the artifact completes.
    const STAGE: FlowStage;

    /// The checks a parsed artifact must pass: indices in bounds, counts
    /// that agree.
    fn validate(&self) -> Result<(), FlowError>;
}

/// Reads a stage artifact from the JSON checkpoint text `reader` yields,
/// holding no more of the text than the parser's window, then validates
/// it. Truncated, corrupt or garbage input is a typed
/// [`FlowError::Checkpoint`], never a panic.
fn read_checkpoint<T: Checkpoint>(reader: impl Read) -> Result<T, FlowError> {
    validated(serde_json::from_reader(reader))
}

/// Parses a stage artifact from checkpoint text already in memory, then
/// validates it: [`read_checkpoint`] without copying the text through the
/// parser's window. Both parse to the same artifact or the same error.
fn parse_checkpoint<T: Checkpoint>(text: &str) -> Result<T, FlowError> {
    validated(serde_json::from_str(text))
}

/// The artifact of a checkpoint parse, once it passes the stage's checks.
fn validated<T: Checkpoint>(parsed: Result<T, serde_json::Error>) -> Result<T, FlowError> {
    let artifact = parsed
        .map_err(|e| FlowError::Checkpoint(format!("cannot parse {} checkpoint: {e}", T::STAGE)))?;
    artifact.validate()?;
    Ok(artifact)
}

/// Wraps a [`PlacedDesign::validate_consistent`] failure into the
/// checkpoint error of artifact `what`. JSON that *parses* but carries
/// out-of-bounds indices would otherwise panic deep inside the engines.
fn checkpoint_design_valid(design: &PlacedDesign, what: &str) -> Result<(), FlowError> {
    design.validate_consistent().map_err(|cause| {
        FlowError::Checkpoint(format!("{what} checkpoint is inconsistent: {cause}"))
    })
}

/// The synthesis-stage artifact: the AQFP-legal netlist and its statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Synthesized {
    /// Design name (propagated from the input netlist).
    pub design_name: String,
    /// Fingerprint of the technology the artifact was produced under
    /// ([`Technology::fingerprint`]); later stages refuse to consume the
    /// artifact under a different technology.
    pub tech_fingerprint: String,
    /// The synthesized (majority-converted, buffered, path-balanced)
    /// netlist.
    pub synthesis: SynthesizedNetlist,
}

impl Synthesized {
    /// Synthesis statistics: #JJs, #Nets, #Delay (Table II).
    pub fn stats(&self) -> &NetlistStats {
        &self.synthesis.stats
    }

    /// Serializes the artifact to a resumable JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] if serialization fails.
    pub fn to_json(&self) -> Result<String, FlowError> {
        checkpoint_to_json(self, "synthesis")
    }

    /// Restores an artifact from a JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] for malformed (truncated, corrupt
    /// or semantically inconsistent) checkpoints.
    pub fn from_json(text: &str) -> Result<Self, FlowError> {
        parse_checkpoint(text)
    }
}

impl Checkpoint for Synthesized {
    const STAGE: FlowStage = FlowStage::Synthesis;

    fn validate(&self) -> Result<(), FlowError> {
        self.synthesis.netlist.validate().map_err(|e| {
            FlowError::Checkpoint(format!("synthesis checkpoint is inconsistent: {e}"))
        })?;
        if self.synthesis.levels.len() != self.synthesis.netlist.gate_count() {
            return Err(FlowError::Checkpoint(format!(
                "synthesis checkpoint is inconsistent: {} level entries for {} gates",
                self.synthesis.levels.len(),
                self.synthesis.netlist.gate_count()
            )));
        }
        Ok(())
    }
}

/// The placement-stage artifact: the synthesis artifact plus the placed
/// design and its quality metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placed {
    /// The synthesis artifact this placement was built from.
    pub synthesized: Synthesized,
    /// Placement result: HPWL, buffer lines, WNS (Table III).
    pub placement: PlacementResult,
}

impl Placed {
    /// Fingerprint of the technology the artifact was produced under.
    pub fn tech_fingerprint(&self) -> &str {
        &self.synthesized.tech_fingerprint
    }

    /// The placed physical design.
    pub fn design(&self) -> &PlacedDesign {
        &self.placement.design
    }

    /// Serializes the artifact to a resumable JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] if serialization fails.
    pub fn to_json(&self) -> Result<String, FlowError> {
        checkpoint_to_json(self, "placement")
    }

    /// Restores an artifact from a JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] for malformed (truncated, corrupt
    /// or semantically inconsistent) checkpoints.
    pub fn from_json(text: &str) -> Result<Self, FlowError> {
        parse_checkpoint(text)
    }
}

impl Checkpoint for Placed {
    const STAGE: FlowStage = FlowStage::Placement;

    fn validate(&self) -> Result<(), FlowError> {
        checkpoint_design_valid(&self.placement.design, "placement")
    }
}

/// The routing-stage artifact: placement plus the routed wires.
///
/// A caller may edit the placement before handing the artifact to
/// [`FlowSession::check`]: after its repairs, the check stage brings the
/// routing up to date with the final placement through
/// [`Router::route_partial`], which reroutes the channels whose input
/// changed and reuses every other channel's wires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Routed {
    /// The placement artifact this routing was built from.
    pub placed: Placed,
    /// Routing result: routed wirelength, vias, per-channel reports
    /// (Table IV).
    pub routing: RoutingResult,
}

impl Routed {
    /// Fingerprint of the technology the artifact was produced under.
    pub fn tech_fingerprint(&self) -> &str {
        self.placed.tech_fingerprint()
    }

    /// The placed physical design the wires were routed on.
    pub fn design(&self) -> &PlacedDesign {
        &self.placed.placement.design
    }

    /// Serializes the artifact to a resumable JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] if serialization fails.
    pub fn to_json(&self) -> Result<String, FlowError> {
        checkpoint_to_json(self, "routing")
    }

    /// Restores an artifact from a JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] for malformed (truncated, corrupt
    /// or semantically inconsistent) checkpoints.
    pub fn from_json(text: &str) -> Result<Self, FlowError> {
        parse_checkpoint(text)
    }
}

impl Checkpoint for Routed {
    const STAGE: FlowStage = FlowStage::Routing;

    fn validate(&self) -> Result<(), FlowError> {
        validate_routed(self, "routing")
    }
}

/// Shared semantic validation of a [`Routed`] artifact (also reused by the
/// check-stage loader): the embedded design must be consistent and every
/// wire must reference it in bounds.
fn validate_routed(routed: &Routed, what: &str) -> Result<(), FlowError> {
    checkpoint_design_valid(routed.design(), what)?;
    let nets = routed.design().net_count();
    for wire in &routed.routing.wires {
        if wire.net >= nets {
            return Err(FlowError::Checkpoint(format!(
                "{what} checkpoint is inconsistent: wire references net {} of {nets}",
                wire.net
            )));
        }
    }
    Ok(())
}

/// The check-stage artifact: the (possibly repaired) routed design plus the
/// generated layout and the final DRC report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checked {
    /// The routed artifact after DRC repair (placement and routing reflect
    /// every fix the repair loop applied).
    pub routed: Routed,
    /// The generated GDSII layout.
    pub layout: Layout,
    /// The full design-rule-check report of the final placement and its
    /// routing.
    pub drc: DrcReport,
    /// Number of design-rule repair iterations the loop executed: each
    /// starts from a design-only DRC ([`DrcChecker::check_design`]) that
    /// found violations, so a design whose only violations read the
    /// routing (zigzag spacing, unrouted nets) runs none.
    pub drc_iterations: usize,
}

impl Checked {
    /// Fingerprint of the technology the artifact was produced under.
    pub fn tech_fingerprint(&self) -> &str {
        self.routed.tech_fingerprint()
    }

    /// Serializes the artifact to a resumable JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] if serialization fails.
    pub fn to_json(&self) -> Result<String, FlowError> {
        checkpoint_to_json(self, "check")
    }

    /// Restores an artifact from a JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] for malformed (truncated, corrupt
    /// or semantically inconsistent) checkpoints.
    pub fn from_json(text: &str) -> Result<Self, FlowError> {
        parse_checkpoint(text)
    }

    /// A one-line summary of the run: the synthesis statistics (Table II),
    /// placement quality (Table III), routing (Table IV) and the DRC
    /// outcome.
    pub fn summary(&self) -> String {
        let Routed { placed, routing, .. } = &self.routed;
        let stats = placed.synthesized.stats();
        let placement = &placed.placement;
        format!(
            "{name}: {jjs} JJs / {nets} nets / {delay} phases after synthesis; \
             HPWL {hpwl:.0} µm, {buffers} buffer lines, WNS {wns}; \
             routed {routed} nets, {wl:.0} µm, {vias} vias; DRC {drc}",
            name = placed.synthesized.design_name,
            jjs = stats.jj_count,
            nets = stats.net_count,
            delay = stats.delay,
            hpwl = placement.hpwl_um,
            buffers = placement.buffer_lines,
            wns = placement.wns_display(),
            routed = routing.stats.nets_routed,
            wl = routing.stats.total_wirelength_um,
            vias = routing.stats.total_vias,
            drc = if self.drc.is_clean() {
                "clean".to_owned()
            } else {
                format!("{} violations", self.drc.violations.len())
            },
        )
    }
}

impl Checkpoint for Checked {
    const STAGE: FlowStage = FlowStage::Check;

    fn validate(&self) -> Result<(), FlowError> {
        validate_routed(&self.routed, "check")
    }
}

/// The artifact of any one stage: what a driver holds when it walks the
/// stages in a loop ([`FlowSession::advance`]) instead of calling each
/// typed stage method by name.
///
/// Every method delegates to the typed artifact, so [`Artifact::to_json`]
/// writes the same bytes as that artifact's own `to_json`, and
/// [`Artifact::from_json`] reads them back.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// The synthesis-stage artifact.
    Synthesized(Synthesized),
    /// The placement-stage artifact.
    Placed(Placed),
    /// The routing-stage artifact.
    Routed(Routed),
    /// The check-stage artifact.
    Checked(Checked),
}

impl Artifact {
    /// The stage this artifact completes.
    pub fn stage(&self) -> FlowStage {
        match self {
            Artifact::Synthesized(_) => FlowStage::Synthesis,
            Artifact::Placed(_) => FlowStage::Placement,
            Artifact::Routed(_) => FlowStage::Routing,
            Artifact::Checked(_) => FlowStage::Check,
        }
    }

    /// The synthesis artifact, which every later artifact embeds.
    fn synthesized(&self) -> &Synthesized {
        match self {
            Artifact::Synthesized(synthesized) => synthesized,
            Artifact::Placed(placed) => &placed.synthesized,
            Artifact::Routed(routed) => &routed.placed.synthesized,
            Artifact::Checked(checked) => &checked.routed.placed.synthesized,
        }
    }

    /// Design name (propagated from the input netlist).
    pub fn design_name(&self) -> &str {
        &self.synthesized().design_name
    }

    /// The placed design every artifact from placement on carries.
    pub(crate) fn design(&self) -> Option<&PlacedDesign> {
        match self {
            Artifact::Synthesized(_) => None,
            Artifact::Placed(placed) => Some(placed.design()),
            Artifact::Routed(routed) => Some(routed.design()),
            Artifact::Checked(checked) => Some(checked.routed.design()),
        }
    }

    /// Fingerprint of the technology the artifact was produced under.
    pub fn tech_fingerprint(&self) -> &str {
        &self.synthesized().tech_fingerprint
    }

    /// The stage artifact a checkpoint serializes.
    fn serializable(&self) -> &dyn Serialize {
        match self {
            Artifact::Synthesized(synthesized) => synthesized,
            Artifact::Placed(placed) => placed,
            Artifact::Routed(routed) => routed,
            Artifact::Checked(checked) => checked,
        }
    }

    /// Serializes the artifact to its stage's JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] if serialization fails.
    pub fn to_json(&self) -> Result<String, FlowError> {
        checkpoint_to_json(self.serializable(), self.stage().name())
    }

    /// Writes the artifact's checkpoint — the bytes [`Artifact::to_json`]
    /// returns — to `path` through [`write_atomic`]. The document is never
    /// held in memory, and `path` never holds a partial checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`], naming `path`, if serialization
    /// or a write fails (a non-finite number, a full disk), and
    /// [`FlowError::Io`] if the file cannot be created, flushed or renamed.
    pub fn write_checkpoint(&self, path: &Path) -> Result<(), FlowError> {
        write_atomic(path, |out| {
            serde_json::to_writer_pretty(out, self.serializable()).map_err(|e| {
                let (what, path) = (self.stage(), path.display());
                FlowError::Checkpoint(format!("cannot serialize {what} artifact to `{path}`: {e}"))
            })
        })
    }

    /// Restores the artifact of `stage` from its JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] for malformed (truncated, corrupt
    /// or semantically inconsistent) checkpoints, including the checkpoint
    /// of another stage.
    pub fn from_json(stage: FlowStage, text: &str) -> Result<Self, FlowError> {
        Ok(match stage {
            FlowStage::Synthesis => Artifact::Synthesized(parse_checkpoint(text)?),
            FlowStage::Placement => Artifact::Placed(parse_checkpoint(text)?),
            FlowStage::Routing => Artifact::Routed(parse_checkpoint(text)?),
            FlowStage::Check => Artifact::Checked(parse_checkpoint(text)?),
        })
    }

    /// Reads the artifact of `stage` from the checkpoint text `reader`
    /// yields: the loader behind [`FlowSession::load_checkpoint`].
    fn read(stage: FlowStage, reader: impl Read) -> Result<Self, FlowError> {
        Ok(match stage {
            FlowStage::Synthesis => Artifact::Synthesized(read_checkpoint(reader)?),
            FlowStage::Placement => Artifact::Placed(read_checkpoint(reader)?),
            FlowStage::Routing => Artifact::Routed(read_checkpoint(reader)?),
            FlowStage::Check => Artifact::Checked(read_checkpoint(reader)?),
        })
    }
}

/// A staged RTL-to-GDS run: drives the pipeline one stage at a time, shares
/// the technology across stages, notifies observers and collects per-stage
/// timings.
///
/// See the [module documentation](self) for the stage sequence and a full
/// example; [`FlowSession::run`] drives all four stages in one call.
pub struct FlowSession {
    technology: Arc<Technology>,
    /// Cached [`Technology::fingerprint`], stamped into every artifact.
    fingerprint: String,
    config: FlowConfig,
    observers: Vec<Box<dyn FlowObserver>>,
    timings: StageTimings,
    /// Cooperative cancellation: threaded into every engine and polled at
    /// the stage boundaries; see [`FlowSession::set_cancel_token`].
    cancel: CancelToken,
}

impl fmt::Debug for FlowSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowSession")
            .field("config", &self.config)
            .field("observers", &self.observers.len())
            .field("timings", &self.timings)
            .finish()
    }
}

impl FlowSession {
    /// Creates a session, resolving the technology the configuration
    /// selects ([`FlowConfig::tech`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Technology`] when the technology spec cannot be
    /// resolved (unknown builtin name, unreadable or invalid file), and
    /// [`FlowError::Lint`] when the setup lint rules (technology geometry,
    /// flow-configuration sanity) find error-severity defects — a bad
    /// configuration is rejected here, before any design is loaded.
    pub fn new(config: FlowConfig) -> Result<Self, FlowError> {
        let technology = config.resolve_technology()?;
        let report =
            aqfp_lint::lint_setup("flow-setup", &technology, &config.lint_settings(), &config.lint);
        if report.has_errors() {
            return Err(FlowError::Lint(report));
        }
        Ok(Self::with_technology(config, technology))
    }

    /// Creates a session around an existing shared technology, so several
    /// sessions reuse one allocation. Unlike [`FlowSession::new`] it runs no
    /// setup lint.
    pub fn with_technology(config: FlowConfig, technology: Arc<Technology>) -> Self {
        let fingerprint = technology.fingerprint();
        Self {
            technology,
            fingerprint,
            config,
            observers: Vec::new(),
            timings: StageTimings::default(),
            cancel: CancelToken::none(),
        }
    }

    /// Installs a cooperative [`CancelToken`] for the *following* stage
    /// calls. The token is threaded into the hot loops of every placer
    /// (SuperFlow, GORDIAN-based and TAAS), the router and the DRC checker, and
    /// polled at the stage boundaries: when it fires, the running stage
    /// bails out early, its partial result is discarded, and the stage
    /// method returns [`FlowError::Cancelled`] or [`FlowError::DeadlineExceeded`]
    /// depending on the token's reason.
    ///
    /// Typical use is one deadline token per stage
    /// (`session.set_cancel_token(CancelToken::with_deadline(budget))`
    /// before each stage call); [`BatchRunner`](crate::batch::BatchRunner)
    /// does exactly that. Passing [`CancelToken::none`] removes the
    /// deadline.
    pub fn set_cancel_token(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Maps a fired token to the stage error to report; `Ok(())` while the
    /// token is live.
    fn ensure_not_cancelled(&self, stage: FlowStage) -> Result<(), FlowError> {
        match self.cancel.reason() {
            None => Ok(()),
            Some(CancelReason::Cancelled) => Err(FlowError::Cancelled { stage }),
            Some(CancelReason::DeadlineExceeded) => Err(FlowError::DeadlineExceeded { stage }),
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Mutable access to the configuration, for editing stage options
    /// between stages (the next stage call picks up the changes).
    ///
    /// Note that [`FlowConfig::tech`] is fixed once the session exists —
    /// the technology was resolved from it — so only the per-stage options
    /// are meaningful to edit here.
    pub fn config_mut(&mut self) -> &mut FlowConfig {
        &mut self.config
    }

    /// The shared technology all stages target.
    pub fn technology(&self) -> &Arc<Technology> {
        &self.technology
    }

    /// Fingerprint of the session's technology — the value stamped into
    /// every artifact this session produces.
    pub fn tech_fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Loads a stage checkpoint (`--report`/journal JSON) for this session
    /// from `reader`, a file's `BufReader` or a text's bytes: the stage is
    /// read from the checkpoint's first key, peeked in the reader's buffer,
    /// the text is parsed once as that stage's artifact, and the artifact
    /// must belong to this session's technology — its fingerprint, and the
    /// width of every placed cell. The text is read through the parser's
    /// window and never held whole, so loading a checkpoint costs about
    /// the memory of its artifact. Batch resume and `superflow verify`
    /// both load checkpoint files through here.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] for text that is not a stage
    /// checkpoint, fails to read or fails to load,
    /// [`FlowError::TechnologyMismatch`] for another technology's artifact,
    /// and [`FlowError::Checkpoint`] naming the cell whose width is not its
    /// kind's width here.
    pub fn load_checkpoint(&self, mut reader: impl BufRead) -> Result<Artifact, FlowError> {
        let head = reader
            .fill_buf()
            .map_err(|e| FlowError::Checkpoint(format!("cannot read checkpoint: {e}")))?;
        let stage = checkpoint_stage(head).ok_or_else(|| {
            FlowError::Checkpoint(
                "not a stage checkpoint: its first key is none of `design_name`, \
                 `synthesized`, `placed` or `routed`"
                    .to_owned(),
            )
        })?;
        let artifact = Artifact::read(stage, reader)?;
        self.ensure_same_technology(artifact.tech_fingerprint())?;
        if let Some(design) = artifact.design() {
            self.ensure_technology_widths(design)?;
        }
        Ok(artifact)
    }

    /// Fails with [`FlowError::TechnologyMismatch`] when an artifact from a
    /// different technology is resumed into this session.
    pub(crate) fn ensure_same_technology(&self, found: &str) -> Result<(), FlowError> {
        if found == self.fingerprint {
            Ok(())
        } else {
            Err(FlowError::TechnologyMismatch {
                expected: self.fingerprint.clone(),
                found: found.to_owned(),
            })
        }
    }

    /// Fails with [`FlowError::Checkpoint`] when a cell of `design` is not
    /// as wide as its kind is in this session's technology. The flow gives
    /// every cell its kind's width, so only an edited artifact differs, and
    /// one cell widened far enough would size the routing grid by itself —
    /// it widens the span [`PlacedDesign::validate_consistent`] bounds
    /// right edges by.
    pub(crate) fn ensure_technology_widths(&self, design: &PlacedDesign) -> Result<(), FlowError> {
        for (index, cell) in design.cells.iter().enumerate() {
            let width = self.technology.cell(cell.kind).width;
            if cell.width != width {
                return Err(FlowError::Checkpoint(format!(
                    "cell {index} ({}) is {:e} µm wide, but {} cells are {width} µm wide in `{}`",
                    cell.name, cell.width, cell.kind, self.technology.name
                )));
            }
        }
        Ok(())
    }

    /// Registers an observer for stage and DRC-repair events.
    pub fn add_observer(&mut self, observer: Box<dyn FlowObserver>) {
        self.observers.push(observer);
    }

    /// Per-stage wall-clock timings of every stage this session has run
    /// since it opened. A session that resumed a checkpoint times only the
    /// stages it ran itself.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    /// Runs the full pre-flight static analysis over `netlist` with this
    /// session's technology and policy: the lint rules plus the predictive
    /// feasibility rules (`AQFP-P0xx`), merged into one report. This is the
    /// same check [`FlowSession::synthesize`] gates on; call it directly to
    /// inspect warnings (the gate only refuses on errors).
    pub fn lint(&self, netlist: &Netlist) -> aqfp_lint::LintReport {
        lint_design(netlist.name(), netlist, &self.technology, &self.config)
    }

    /// Fails with [`FlowError::Lint`] when pre-flight lint reports
    /// error-severity findings.
    fn lint_gate(&self, netlist: &Netlist) -> Result<(), FlowError> {
        let report = self.lint(netlist);
        if report.has_errors() {
            Err(FlowError::Lint(report))
        } else {
            Ok(())
        }
    }

    /// Runs logic equivalence checking between the flow's input netlist and
    /// a synthesis artifact. This is the check the synthesis stage gates on
    /// when [`FlowConfig::verify`] is enabled; call it directly to verify a
    /// checkpoint against its original input.
    pub fn verify_synthesized(&self, input: &Netlist, synthesized: &Synthesized) -> VerifyReport {
        let mut report = VerifyReport::clean(synthesized.design_name.clone());
        report.record_check("lec");
        report.extend(aqfp_verify::check_equivalence(
            input,
            &synthesized.synthesis.netlist,
            &self.config.verify,
        ));
        report.normalize();
        report
    }

    /// Re-verifies AQFP phase legality (clocking, fan-out, net coverage) of
    /// a placement artifact from the raw cell/net data.
    pub fn verify_placed(&self, placed: &Placed) -> VerifyReport {
        let mut report = VerifyReport::clean(placed.synthesized.design_name.clone());
        report.record_check("phase");
        report.extend(aqfp_verify::check_placed(
            placed.design(),
            self.config.synthesis.max_splitter_arity,
        ));
        report.normalize();
        report
    }

    /// Re-verifies phase legality plus wire coverage and geometry of a
    /// routing artifact.
    pub fn verify_routed(&self, routed: &Routed) -> VerifyReport {
        let mut report = self.verify_placed(&routed.placed);
        report.extend(aqfp_verify::check_routed(
            routed.design(),
            &routed.routing,
            self.config.router.grid_step_um,
        ));
        report.normalize();
        report
    }

    /// Full post-layout verification of a check artifact: phase legality of
    /// the repaired design and routing, then LVS-lite extraction of the
    /// emitted GDS byte stream against them.
    pub fn verify_checked(&self, checked: &Checked) -> VerifyReport {
        let mut report = self.verify_routed(&checked.routed);
        report.record_check("lvs");
        report.extend(aqfp_verify::check_gds(
            &checked.layout.to_gds_bytes(),
            checked.routed.design(),
            &checked.routed.routing,
            &self.technology,
        ));
        report.normalize();
        report
    }

    /// Runs the verifiers of `artifact`'s stage — phase legality from
    /// placement on, wire coverage from routing on, LVS-lite on a checked
    /// layout — then, when the flow's `input` netlist is given, logic
    /// equivalence against it. This is the check order `superflow verify`
    /// reports for a stage checkpoint.
    pub fn verify_artifact(&self, artifact: &Artifact, input: Option<&Netlist>) -> VerifyReport {
        let mut report = match artifact {
            Artifact::Synthesized(_) => VerifyReport::clean(artifact.design_name()),
            Artifact::Placed(placed) => self.verify_placed(placed),
            Artifact::Routed(routed) => self.verify_routed(routed),
            Artifact::Checked(checked) => self.verify_checked(checked),
        };
        if let Some(input) = input {
            report.merge(self.verify_synthesized(input, artifact.synthesized()));
        }
        report.normalize();
        report
    }

    /// Fails with [`FlowError::Verify`] when a stage-boundary verification
    /// report carries errors; a no-op when verification is disabled (the
    /// caller checks `enabled` before producing the report).
    fn verify_gate(&self, report: VerifyReport) -> Result<(), FlowError> {
        if report.has_errors() {
            Err(FlowError::Verify(report))
        } else {
            Ok(())
        }
    }

    fn stage_started(&mut self, stage: FlowStage) {
        for observer in &mut self.observers {
            observer.stage_started(stage);
        }
    }

    fn stage_finished(&mut self, stage: FlowStage, elapsed_s: f64) {
        self.timings.record(stage, elapsed_s);
        for observer in &mut self.observers {
            observer.stage_finished(stage, elapsed_s);
        }
    }

    /// Runs logic synthesis (majority conversion, splitter and buffer
    /// insertion, path balancing) on a gate-level netlist.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Lint`] if pre-flight lint finds error-severity
    /// defects (combinational loops, undriven nets, unmappable cell kinds,
    /// ...), [`FlowError::InvalidNetlist`] if the input fails the structural
    /// validation lint does not cover, and [`FlowError::Synthesis`] if the
    /// synthesis stage rejects it.
    pub fn synthesize(&mut self, netlist: &Netlist) -> Result<Synthesized, FlowError> {
        self.ensure_not_cancelled(FlowStage::Synthesis)?;
        self.stage_started(FlowStage::Synthesis);
        let start = Instant::now();
        self.lint_gate(netlist)?;
        netlist.validate()?;
        let synthesizer =
            Synthesizer::with_options(Arc::clone(&self.technology), self.config.synthesis);
        let synthesis = synthesizer.run(netlist)?;
        // Synthesis is not internally cancellable (it is the cheapest
        // stage); a deadline that fired while it ran is still honored here,
        // discarding the result.
        self.ensure_not_cancelled(FlowStage::Synthesis)?;
        self.stage_finished(FlowStage::Synthesis, start.elapsed().as_secs_f64());
        let synthesized = Synthesized {
            design_name: netlist.name().to_owned(),
            tech_fingerprint: self.fingerprint.clone(),
            synthesis,
        };
        if self.config.verify.enabled {
            self.verify_gate(self.verify_synthesized(netlist, &synthesized))?;
        }
        Ok(synthesized)
    }

    /// Runs placement (global, legalization, detailed, buffer rows) with the
    /// placer selected by [`FlowConfig::placer`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::TechnologyMismatch`] when `synthesized` was
    /// produced (or checkpointed) under a different technology.
    pub fn place(&mut self, synthesized: Synthesized) -> Result<Placed, FlowError> {
        self.ensure_same_technology(&synthesized.tech_fingerprint)?;
        self.ensure_not_cancelled(FlowStage::Placement)?;
        self.stage_started(FlowStage::Placement);
        let start = Instant::now();
        let engine =
            PlacementEngine::with_options(Arc::clone(&self.technology), self.config.placement)
                .with_cancel(self.cancel.clone());
        let placement = engine.place(&synthesized.synthesis, self.config.placer);
        // A fired token means `placement` is a partial refinement; discard
        // it instead of letting a half-optimized design masquerade as a
        // stage result.
        self.ensure_not_cancelled(FlowStage::Placement)?;
        self.stage_finished(FlowStage::Placement, start.elapsed().as_secs_f64());
        let placed = Placed { synthesized, placement };
        if self.config.verify.enabled {
            self.verify_gate(self.verify_placed(&placed))?;
        }
        Ok(placed)
    }

    /// Routes every net of the placed design, channel by channel.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::TechnologyMismatch`] when `placed` was produced
    /// (or checkpointed) under a different technology, and
    /// [`FlowError::Checkpoint`] when a cell is not as wide as its kind is in
    /// this session's technology.
    pub fn route(&mut self, placed: Placed) -> Result<Routed, FlowError> {
        self.ensure_same_technology(placed.tech_fingerprint())?;
        self.ensure_technology_widths(placed.design())?;
        self.ensure_not_cancelled(FlowStage::Routing)?;
        self.stage_started(FlowStage::Routing);
        let start = Instant::now();
        let router = Router::with_config(Arc::clone(&self.technology), self.config.router)
            .with_cancel(self.cancel.clone());
        let routing = router.route(&placed.placement.design);
        self.ensure_not_cancelled(FlowStage::Routing)?;
        self.stage_finished(FlowStage::Routing, start.elapsed().as_secs_f64());
        let routed = Routed { placed, routing };
        if self.config.verify.enabled {
            self.verify_gate(self.verify_routed(&routed))?;
        }
        Ok(routed)
    }

    /// Repairs design-rule violations on the placement, routes the
    /// repaired design once, then runs the full DRC and generates the
    /// layout: spacing problems are fixed by re-legalization and
    /// max-wirelength problems by another round of buffer rows.
    ///
    /// The repair loop reads only [`DrcChecker::check_design`] (cell
    /// spacing, max wirelength, metal density), the rules that read the
    /// placement alone, so no iteration routes. It compares every cell's x
    /// before and after each repair: the rows of the cells whose x changed
    /// or that the repair inserted, and the row below each, go to the
    /// observers as a [`RepairScope`] with that iteration's design report,
    /// and a repair that changed no x and inserted no cell ends the loop. A
    /// violation only the routing passes see (zigzag spacing, unrouted
    /// nets) starts no iteration; it stays in the final report.
    ///
    /// After the loop, one [`Router::route_partial`] call brings the given
    /// routing up to date with the final placement, so a placement a
    /// caller edited after routing is routed again too. The router finds
    /// the channels whose nets or pin columns changed and reroutes only
    /// those, re-keying every other channel onto its renumbered row; when
    /// the repairs widened (or narrowed) the widest layer, it reroutes
    /// every channel. Either way the routing is byte-identical to rerouting
    /// the repaired design from scratch. The full [`DrcChecker::check`] of
    /// that routing is the artifact's report.
    ///
    /// After the loop, one batched timing analysis of the repaired design
    /// refreshes [`PlacementResult::timing`], so the report reflects the
    /// placement the repairs left behind, bit-identical to a scalar
    /// analysis of it. Each buffer-row repair adds the lines and cells it
    /// inserted to [`PlacementResult::buffer_lines`] and
    /// [`PlacementResult::buffer_report`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::TechnologyMismatch`] when `routed` was produced
    /// (or checkpointed) under a different technology, and
    /// [`FlowError::Checkpoint`] when a cell is not as wide as its kind is in
    /// this session's technology.
    pub fn check(&mut self, routed: Routed) -> Result<Checked, FlowError> {
        self.ensure_same_technology(routed.tech_fingerprint())?;
        self.ensure_technology_widths(routed.design())?;
        self.ensure_not_cancelled(FlowStage::Check)?;
        self.stage_started(FlowStage::Check);
        let start = Instant::now();
        let Routed { mut placed, routing } = routed;
        let generator = LayoutGenerator::new(Arc::clone(&self.technology));
        let checker = DrcChecker::for_technology(&self.technology).with_cancel(self.cancel.clone());
        let router = Router::with_config(Arc::clone(&self.technology), self.config.router)
            .with_cancel(self.cancel.clone());

        // The repairs act on spacing and wirelength violations, which read
        // only the placement, so the loop checks the design alone and the
        // routing is brought up to date once, after it.
        let mut drc = checker.check_design(&placed.placement.design);
        let mut drc_iterations = 0;
        while !drc.is_clean() && drc_iterations < self.config.max_drc_iterations {
            // The repair loop is the flow's classic runaway: each iteration
            // legalizes, re-places and re-checks, so this is where a
            // deadline must be able to step in between iterations.
            self.ensure_not_cancelled(FlowStage::Check)?;
            drc_iterations += 1;
            let design = &mut placed.placement.design;
            let x_before: Vec<f64> = design.cells.iter().map(|cell| cell.x).collect();
            if drc.count(DrcViolationKind::CellSpacing) > 0 {
                // Spacing problems are fixed by re-legalization.
                legalize(design);
            }
            if drc.count(DrcViolationKind::MaxWirelength) > 0 {
                // Split over-long connections with buffer rows, re-legalize,
                // and let a *scoped* detailed-placement pass pull the new
                // buffers toward their nets so each hop actually fits within
                // the limit — only the inserted rows and the gap-boundary
                // rows are swept, so the already-optimized rest of the
                // design stays put and the final route reuses its channels.
                let detailed =
                    self.config.placement.detailed.with_technology_timing(&self.technology);
                let report = repair_buffer_rows(design, &self.technology, &detailed);
                placed.placement.buffer_lines += report.buffer_lines;
                placed.placement.buffer_report.buffer_lines += report.buffer_lines;
                placed.placement.buffer_report.buffer_cells += report.buffer_cells;
            }
            let touched = repaired_rows(design, &x_before);
            let scope = if touched.is_empty() {
                RepairScope::Unchanged
            } else {
                RepairScope::Channels(&touched)
            };
            for observer in &mut self.observers {
                observer.drc_iteration(drc_iterations, &drc, scope);
            }
            if scope == RepairScope::Unchanged {
                // The repair moved nothing, so the design check would
                // reproduce itself exactly: the loop has reached a fixed
                // point and further iterations cannot make progress. The
                // remaining violations are reported, not hidden.
                break;
            }
            drc = checker.check_design(&placed.placement.design);
        }
        // One route of the final design: the router reuses every channel
        // of the given routing whose nets and pin columns still match (the
        // caller may also have edited the placement since routing),
        // re-keyed onto its renumbered row, and routes the rest. The full
        // DRC and the layout then read the final state once.
        let routing = router.route_partial(&placed.placement.design, routing);
        let drc = checker.check(&placed.placement.design, &routing);
        let layout = generator.generate(&placed.placement.design, &routing);

        // Refresh the placement metrics in case DRC repair moved cells.
        let design = &placed.placement.design;
        let mut timing_batch = TimingBatch::with_capacity(design.net_count());
        design.fill_timing_batch(&mut timing_batch);
        placed.placement.timing = TimingAnalyzer::for_technology(&self.technology)
            .analyze_batch(&timing_batch, design.layer_width().max(1.0));
        placed.placement.hpwl_um = design.hpwl();

        self.ensure_not_cancelled(FlowStage::Check)?;
        self.stage_finished(FlowStage::Check, start.elapsed().as_secs_f64());
        let checked = Checked { routed: Routed { placed, routing }, layout, drc, drc_iterations };
        if self.config.verify.enabled {
            self.verify_gate(self.verify_checked(&checked))?;
        }
        Ok(checked)
    }

    /// Runs the stage after `artifact`'s through its typed method
    /// ([`place`](Self::place), [`route`](Self::route) or
    /// [`check`](Self::check)) and returns that stage's artifact. A
    /// [`Checked`] artifact is final and comes back unchanged.
    ///
    /// # Errors
    ///
    /// Returns the error of the stage method it runs.
    pub fn advance(&mut self, artifact: Artifact) -> Result<Artifact, FlowError> {
        Ok(match artifact {
            Artifact::Synthesized(synthesized) => Artifact::Placed(self.place(synthesized)?),
            Artifact::Placed(placed) => Artifact::Routed(self.route(placed)?),
            Artifact::Routed(routed) => Artifact::Checked(self.check(routed)?),
            checked @ Artifact::Checked(_) => checked,
        })
    }

    /// Runs the complete flow on a gate-level netlist: synthesize → place →
    /// route → check, the push-button pipeline of Fig. 3. The returned
    /// [`Checked`] artifact carries the layout, the DRC report and every
    /// earlier stage's result; its checkpoint ([`Checked::to_json`]) is the
    /// flow's report.
    ///
    /// # Errors
    ///
    /// Returns the error of the first stage that fails: [`FlowError::Lint`]
    /// or [`FlowError::InvalidNetlist`] for a rejected input,
    /// [`FlowError::Synthesis`] if synthesis rejects it, and
    /// [`FlowError::Verify`], [`FlowError::Cancelled`] or
    /// [`FlowError::DeadlineExceeded`] from any stage.
    pub fn run(&mut self, netlist: &Netlist) -> Result<Checked, FlowError> {
        let synthesized = self.synthesize(netlist)?;
        let placed = self.place(synthesized)?;
        let routed = self.route(placed)?;
        self.check(routed)
    }
}

/// The channel rows a DRC repair touched, sorted: for every cell whose x
/// the repair changed (by more than 1e-9 µm) or that it appended (an index
/// past the end of `x_before`, the cells' x before the repair), its row,
/// which carries the nets it drives, and the row below, which carries the
/// nets it sinks. Rows are read after the repair, in its row numbering.
fn repaired_rows(design: &PlacedDesign, x_before: &[f64]) -> Vec<usize> {
    let mut rows = BTreeSet::new();
    for (index, cell) in design.cells.iter().enumerate() {
        if x_before.get(index).is_none_or(|&x| (cell.x - x).abs() > 1e-9) {
            rows.insert(cell.row);
            if cell.row > 0 {
                rows.insert(cell.row - 1);
            }
        }
    }
    rows.into_iter().collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::TechSpec;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_place::PlacerKind;

    fn fast_session() -> FlowSession {
        FlowSession::new(FlowConfig::fast()).expect("session opens")
    }

    /// Records every observer event as a string, for order assertions.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl FlowObserver for Recorder {
        fn stage_started(&mut self, stage: FlowStage) {
            self.events.push(format!("start:{stage}"));
        }
        fn stage_finished(&mut self, stage: FlowStage, elapsed_s: f64) {
            assert!(elapsed_s >= 0.0);
            self.events.push(format!("finish:{stage}"));
        }
        fn drc_iteration(&mut self, iteration: usize, report: &DrcReport, scope: RepairScope<'_>) {
            self.events.push(format!(
                "drc:{iteration}:{violations}:{scope}",
                violations = report.violations.len(),
            ));
        }
    }

    /// An observer shim sharing the recorder through a cell so the test can
    /// read the events after the session consumed the box.
    struct SharedRecorder(std::rc::Rc<std::cell::RefCell<Recorder>>);

    impl FlowObserver for SharedRecorder {
        fn stage_started(&mut self, stage: FlowStage) {
            self.0.borrow_mut().stage_started(stage);
        }
        fn stage_finished(&mut self, stage: FlowStage, elapsed_s: f64) {
            self.0.borrow_mut().stage_finished(stage, elapsed_s);
        }
        fn drc_iteration(&mut self, iteration: usize, report: &DrcReport, scope: RepairScope<'_>) {
            self.0.borrow_mut().drc_iteration(iteration, report, scope);
        }
    }

    #[test]
    fn repaired_rows_name_the_rows_of_moved_and_inserted_cells() {
        use aqfp_cells::{CellKind, ProcessRules};
        use aqfp_place::PlacedCell;

        let cell = |name: &str, row: usize, x: f64| PlacedCell {
            gate: None,
            name: name.into(),
            kind: CellKind::Buffer,
            width: 30.0,
            height: 40.0,
            row,
            x,
        };
        let rules = ProcessRules::mit_ll();
        let mut design = PlacedDesign {
            name: "repair".into(),
            cells: vec![
                cell("moved_in_row_0", 0, 0.0),
                cell("moved_and_back", 3, 0.0),
                cell("still", 4, 0.0),
                cell("moved", 2, 50.0),
            ],
            nets: vec![],
            rows: vec![vec![0], vec![], vec![3], vec![1], vec![2], vec![]],
            row_pitch: rules.row_pitch,
            rules,
        };
        let x_before: Vec<f64> = design.cells.iter().map(|c| c.x).collect();
        assert!(repaired_rows(&design, &x_before).is_empty(), "nothing changed yet");

        design.cells[0].x = 20.0;
        design.cells[1].x = 40.0;
        design.cells[1].x = 0.0;
        design.cells[3].x = 60.0;
        design.cells.push(cell("inserted", 5, 10.0));
        design.rows[5].push(4);
        // `moved_in_row_0` names row 0 alone, `moved` rows 1 and 2, and
        // `inserted` rows 4 and 5; row 3 holds only the cell that moved
        // back.
        assert_eq!(repaired_rows(&design, &x_before), vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn stages_run_in_order_and_notify_observers() {
        let recorder = std::rc::Rc::new(std::cell::RefCell::new(Recorder::default()));
        let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
        session.add_observer(Box::new(SharedRecorder(std::rc::Rc::clone(&recorder))));

        let netlist = benchmark_circuit(Benchmark::Adder8);
        let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
        let placed = session.place(synthesized).expect("placement succeeds");
        assert!(placed.design().cell_count() > 0);
        let routed = session.route(placed).expect("routing succeeds");
        let checked = session.check(routed).expect("check succeeds");
        assert_eq!(checked.routed.placed.synthesized.design_name, "adder8");
        let timings = session.timings();
        assert!(FlowStage::ALL.into_iter().all(|stage| timings.get(stage) > 0.0), "{timings:?}");

        let events = recorder.borrow().events.clone();
        let stage_events: Vec<&String> = events.iter().filter(|e| !e.starts_with("drc:")).collect();
        assert_eq!(
            stage_events,
            vec![
                "start:synthesis",
                "finish:synthesis",
                "start:placement",
                "finish:placement",
                "start:routing",
                "finish:routing",
                "start:check",
                "finish:check"
            ]
        );
    }

    #[test]
    fn advance_runs_the_remaining_stages_in_order() {
        let netlist = benchmark_circuit(Benchmark::Adder8);
        let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
        let mut artifact = Artifact::Synthesized(session.synthesize(&netlist).expect("ok"));
        let mut stages = vec![artifact.stage()];
        while let Some(next) = artifact.stage().next() {
            artifact = session.advance(artifact).expect("stage succeeds");
            assert_eq!(artifact.stage(), next);
            stages.push(next);
        }
        assert_eq!(stages, FlowStage::ALL);
        assert_eq!(artifact.design_name(), "adder8");
        assert_eq!(artifact.tech_fingerprint(), session.tech_fingerprint());
        // The check stage is the last: advancing its artifact is a no-op.
        let last = artifact.clone();
        assert_eq!(session.advance(artifact).expect("no stage runs"), last);

        let Artifact::Checked(checked) = last else { panic!("ends at the check stage") };
        let typed = fast_session().run(&netlist).expect("flow runs");
        assert_eq!(checked.layout.to_gds_bytes(), typed.layout.to_gds_bytes());
    }

    #[test]
    fn session_report_matches_the_push_button_flow() {
        let netlist = benchmark_circuit(Benchmark::Adder8);
        let mut push_button = fast_session();
        let checked = push_button.run(&netlist).expect("flow runs");

        let mut session = fast_session();
        let synthesized = session.synthesize(&netlist).expect("synthesis succeeds");
        let placed = session.place(synthesized).expect("placement succeeds");
        let routed = session.route(placed).expect("routing succeeds");
        let staged = session.check(routed).expect("check succeeds");

        assert_eq!(checked.layout.to_gds_bytes(), staged.layout.to_gds_bytes());
        assert_eq!(checked.routed.routing, staged.routed.routing);
        assert_eq!(checked.drc, staged.drc);
        assert_eq!(checked.drc_iterations, staged.drc_iterations);
        // `run` times all four stages, like the staged calls.
        let timings = push_button.timings();
        assert!(FlowStage::ALL.into_iter().all(|stage| timings.get(stage) > 0.0), "{timings:?}");
    }

    #[test]
    fn adder8_runs_end_to_end() {
        let checked = fast_session().run(&benchmark_circuit(Benchmark::Adder8)).expect("flow runs");
        let Routed { placed, routing, .. } = &checked.routed;
        assert_eq!(placed.synthesized.design_name, "adder8");
        assert!(placed.synthesized.stats().jj_count > 0);
        assert!(placed.placement.hpwl_um > 0.0);
        assert!(routing.stats.nets_routed > 0);
        assert_eq!(routing.stats.failed_nets, 0);
        assert!(checked.layout.cell_instances > 0);
        // Geometric rules must be clean after the automatic repair loop.
        // Residual max-wirelength findings can remain when the inserted
        // buffer rows run out of horizontal capacity; they are reported, not
        // hidden.
        for kind in [
            DrcViolationKind::CellSpacing,
            DrcViolationKind::ZigzagSpacing,
            DrcViolationKind::Unrouted,
            DrcViolationKind::MetalDensity,
        ] {
            assert_eq!(checked.drc.count(kind), 0, "unexpected {kind:?} violations");
        }
        assert!(checked.summary().starts_with("adder8: "));
        assert!(routing.jj_count >= placed.synthesized.stats().jj_count);
    }

    /// The netlist the Verilog front end reads from `source`, run through
    /// a fast session.
    fn run_verilog(source: &str) -> Result<Checked, FlowError> {
        fast_session().run(&aqfp_netlist::parsers::parse_verilog(source)?)
    }

    #[test]
    fn verilog_entry_point_works() {
        let source = r#"
            module majority_vote(a, b, c, y);
              input a, b, c;
              output y;
              wire ab, bc, ca, t;
              and g1(ab, a, b);
              and g2(bc, b, c);
              and g3(ca, c, a);
              or g4(t, ab, bc);
              or g5(y, t, ca);
            endmodule
        "#;
        let checked = run_verilog(source).expect("flow succeeds");
        assert_eq!(checked.routed.placed.synthesized.design_name, "majority_vote");
        assert!(checked.drc.is_clean(), "violations: {:?}", checked.drc.violations);
        assert!(checked.layout.to_gds_bytes().len() > 100);
    }

    #[test]
    fn blif_entry_point_works() {
        let source = ".model tiny\n.inputs a b\n.outputs y\n.gate AND2 a=a b=b O=y\n.end\n";
        let netlist = aqfp_netlist::parsers::parse_blif(source).expect("parses");
        let checked = fast_session().run(&netlist).expect("flow succeeds");
        assert_eq!(checked.routed.placed.synthesized.design_name, "tiny");
        assert!(checked.routed.routing.stats.nets_routed > 0);
    }

    #[test]
    fn invalid_verilog_is_rejected() {
        let err = run_verilog("module m(a); input a; flipflop f(a); endmodule");
        assert!(matches!(err, Err(FlowError::Parse(_))));
    }

    #[test]
    fn baseline_placers_run_through_the_same_flow() {
        for placer in [PlacerKind::GordianBased, PlacerKind::Taas] {
            let mut session =
                FlowSession::new(FlowConfig::fast().with_placer(placer)).expect("session opens");
            let checked = session.run(&benchmark_circuit(Benchmark::Adder8)).expect("flow runs");
            let placement = &checked.routed.placed.placement;
            assert_eq!(placement.placer, placer);
            assert!(placement.hpwl_um > 0.0);
        }
    }

    #[test]
    fn unresolvable_tech_specs_error_at_run_time_not_construction() {
        // The spec is data until a session opens: building the config is
        // infallible, opening the session resolves (and fails on) the file.
        let config = FlowConfig::fast().with_tech(TechSpec::file("/no/such/tech.toml"));
        let err = FlowSession::new(config).expect_err("missing tech file");
        assert!(matches!(err, FlowError::Technology(_)), "{err}");
    }

    #[test]
    fn options_can_change_between_stages() {
        let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
        let synthesized = session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("ok");
        // Force strictly serial routing from this point on; the routed
        // result must be identical either way.
        session.config_mut().router.threads = 1;
        let placed = session.place(synthesized).expect("placement succeeds");
        let routed = session.route(placed).expect("routing succeeds");
        assert_eq!(routed.routing.stats.failed_nets, 0);
    }

    #[test]
    fn post_check_timing_matches_a_fresh_scalar_analysis() {
        let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
        let synthesized = session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("ok");
        let placed = session.place(synthesized).expect("placement succeeds");
        let routed = session.route(placed).expect("routing succeeds");
        let checked = session.check(routed).expect("check succeeds");

        let design = &checked.routed.placed.placement.design;
        let analyzer = TimingAnalyzer::for_technology(session.technology());
        let fresh = analyzer.analyze(&design.to_placed_nets(), design.layer_width().max(1.0));
        let incremental = &checked.routed.placed.placement.timing;
        assert_eq!(
            fresh.wns_ps.to_bits(),
            incremental.wns_ps.to_bits(),
            "incrementally maintained timing must be bit-identical to a rebuild"
        );
        assert_eq!(&fresh, incremental);
    }

    #[test]
    fn a_verified_session_passes_every_stage_gate() {
        let config = FlowConfig::fast()
            .with_verify(aqfp_verify::VerifyConfig { enabled: true, ..Default::default() });
        let mut session = FlowSession::new(config).expect("session opens");
        let netlist = benchmark_circuit(Benchmark::Adder8);
        let synthesized = session.synthesize(&netlist).expect("synthesis verifies");
        let placed = session.place(synthesized).expect("placement verifies");
        let routed = session.route(placed).expect("routing verifies");
        let checked = session.check(routed).expect("check verifies");
        // The public verify methods agree with the gates.
        let report = session.verify_checked(&checked);
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.ran("phase") && report.ran("lvs"));
    }

    #[test]
    fn a_corrupted_artifact_fails_its_stage_gate_with_verify() {
        let config = FlowConfig::fast()
            .with_verify(aqfp_verify::VerifyConfig { enabled: true, ..Default::default() });
        let mut session = FlowSession::new(config).expect("session opens");
        let netlist = benchmark_circuit(Benchmark::Adder8);
        let synthesized = session.synthesize(&netlist).expect("synthesis verifies");
        let mut placed = session.place(synthesized).expect("placement verifies");
        let corrupted = aqfp_verify::mutate::corrupt_design_phase(&mut placed.placement.design)
            .expect("adder has a net to corrupt");
        let error = session.route(placed).expect_err("phase defect must fail routing gate");
        match error {
            FlowError::Verify(report) => {
                assert!(
                    report.mentions(aqfp_verify::phase::RULE_PHASE_SKEW),
                    "{}",
                    report.render()
                );
                assert!(
                    report.diagnostics.iter().any(|d| d.message.contains(&format!("n{corrupted}"))),
                    "finding names the corrupted net: {}",
                    report.render()
                );
            }
            other => panic!("expected FlowError::Verify, got {other:?}"),
        }
    }

    #[test]
    fn stages_refuse_cells_wider_than_their_kind() {
        let mut session = fast_session();
        let synthesized = session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("ok");
        let mut placed = session.place(synthesized).expect("placement succeeds");
        let mut routed = session.route(placed.clone()).expect("routing succeeds");
        // A widened cell widens the span that bounds right edges with it,
        // so only the technology's cell widths catch it.
        placed.placement.design.cells[0].width = 1e15;
        routed.placed.placement.design.cells[0].width = 1e15;
        assert!(placed.design().validate_consistent().is_ok());
        assert!(matches!(session.route(placed), Err(FlowError::Checkpoint(_))));
        assert!(matches!(session.check(routed), Err(FlowError::Checkpoint(_))));
    }
}
