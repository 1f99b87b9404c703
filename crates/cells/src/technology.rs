//! The loadable technology (PDK) description and the built-in registry.
//!
//! Everything process-specific the flow consumes — design rules, the cell
//! geometry table, the four-phase clock, the delay coefficients and the GDS
//! layer assignments — lives in one [`Technology`] value that can be dumped
//! to a TOML file, edited and loaded back. The [`TechnologyRegistry`] ships
//! the two processes of the paper as built-in *data*; a custom process is
//! just another file.
//!
//! # Technology file format
//!
//! A technology file is TOML (see [`crate::toml`] for the supported subset;
//! JSON with the same structure also loads via [`Technology::from_json`]).
//! Field by field:
//!
//! * `name` — registry identifier, e.g. `"mit-ll-sqf5ee"`. Letters, digits,
//!   `-`, `_` and `.` only.
//! * `description` — free-form human-readable summary.
//! * `[rules]` — the design rules of §II-C ([`ProcessRules`]); all lengths
//!   in µm:
//!   `name` (display name), `min_spacing`, `zigzag_spacing`,
//!   `max_wirelength` (W_max), `grid` (placement grid pitch),
//!   `routing_layers` (metal layers between adjacent clock phases),
//!   `wire_width`, `via_size`, `min_metal_density` / `max_metal_density`
//!   (fractions 0..1) and `row_pitch`.
//! * `[timing]` — the delay model ([`TimingConfig`]): `gate_delay_ps`,
//!   `wire_delay_ps_per_um`, `clock_skew_ps_per_um`, `alpha` (phase-cost
//!   exponent) and `[timing.clock]` with `frequency_ghz` (the four-phase
//!   excitation frequency).
//! * `[layers]` — GDS layer numbers ([`LayerMap`]): `outline`, `jj`, `pin`,
//!   `metal1`, `metal2`, `label`; 0–255, pairwise distinct.
//! * `[cells.<Kind>]` — one table per [`CellKind`] (all fifteen kinds must
//!   be present): `kind` (must repeat `<Kind>`), `width`/`height` (µm,
//!   multiples of `rules.grid`), `jj_count`, and one
//!   `[[cells.<Kind>.input_pins]]` / `[[cells.<Kind>.output_pins]]` table
//!   per pin with `name`, `direction` (`"Input"`/`"Output"`) and
//!   `[cells.<Kind>.….offset]` (`x`/`y` in µm, on the grid, inside the cell
//!   outline).
//!
//! A minimal file that only retargets the maximum wirelength starts from a
//! dump of a built-in (`superflow tech dump mit-ll-sqf5ee`) and edits one
//! line:
//!
//! ```toml
//! name = "mit-ll-tight"
//! description = "MIT-LL SQF5ee with a tighter W_max"
//!
//! [rules]
//! name = "MIT-LL SQF5ee"
//! min_spacing = 10.0
//! zigzag_spacing = 10.0
//! max_wirelength = 250.0   # was 400.0
//! grid = 10.0
//! routing_layers = 2
//! wire_width = 2.0
//! via_size = 4.0
//! min_metal_density = 0.05
//! max_metal_density = 0.85
//! row_pitch = 100.0
//! # … [timing], [layers] and the fifteen [cells.*] tables follow,
//! # unchanged from the dump.
//! ```
//!
//! Loading is strict: [`Technology::from_toml`] rejects unknown keys
//! (catching typos in hand-edited files) and runs the full
//! [`Technology::validate`] cross-checks before the value reaches any flow
//! stage.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize, Value};

use crate::cell::{AqfpCell, CellKind, PinDirection, PinGeometry};
use crate::clocking::FourPhaseClock;
use crate::geometry::Point;
use crate::layers::LayerMap;
use crate::process::ProcessRules;
use crate::timing::TimingConfig;
use crate::toml;

/// Registry name of the built-in MIT Lincoln Laboratory SQF5ee technology.
pub const MIT_LL_SQF5EE: &str = "mit-ll-sqf5ee";

/// Registry name of the built-in AIST standard process 2 technology.
pub const AIST_STP2: &str = "aist-stp2";

/// A complete, loadable description of one fabrication process.
///
/// Bundles every process fact the RTL-to-GDS flow consumes: the design
/// rules, the standard-cell geometry table, the clock and delay
/// coefficients, and the GDS layer assignments. All stage engines take an
/// `Arc<Technology>`; swapping the technology retargets the whole flow.
///
/// ```
/// use aqfp_cells::{CellKind, Technology};
/// let tech = Technology::mit_ll_sqf5ee();
/// assert_eq!(tech.cell(CellKind::Buffer).width, 40.0);
/// assert_eq!(tech.rules().max_wirelength, 400.0);
/// let dumped = tech.to_toml().unwrap();
/// assert_eq!(Technology::from_toml(&dumped).unwrap(), tech);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technology {
    /// Registry identifier (letters, digits, `-`, `_`, `.`).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Design rules (§II-C of the paper).
    pub rules: ProcessRules,
    /// Delay coefficients, including the target four-phase clock.
    pub timing: TimingConfig,
    /// GDS layer assignments.
    pub layers: LayerMap,
    /// Cell geometry table; must contain every [`CellKind`].
    pub cells: BTreeMap<CellKind, AqfpCell>,
}

impl Technology {
    /// The built-in MIT Lincoln Laboratory SQF5ee technology — the process
    /// the paper evaluates, with the dimensions it quotes (40 × 30 µm
    /// buffers, 60 × 70 µm majority gates on a 10 µm grid).
    pub fn mit_ll_sqf5ee() -> Self {
        Self {
            name: MIT_LL_SQF5EE.to_owned(),
            description: "MIT Lincoln Laboratory SQF5ee AQFP process (paper defaults)".to_owned(),
            rules: ProcessRules::mit_ll(),
            timing: TimingConfig::paper_default(),
            layers: LayerMap::default(),
            cells: standard_cell_table(),
        }
    }

    /// The built-in AIST standard process 2 (STP2) technology.
    pub fn aist_stp2() -> Self {
        Self {
            name: AIST_STP2.to_owned(),
            description: "AIST standard process 2 (STP2) AQFP process".to_owned(),
            rules: ProcessRules::stp2(),
            timing: TimingConfig::paper_default(),
            layers: LayerMap::default(),
            cells: standard_cell_table(),
        }
    }

    /// The process design rules.
    pub fn rules(&self) -> &ProcessRules {
        &self.rules
    }

    /// The target four-phase clock (stored inside [`Technology::timing`]).
    pub fn clock(&self) -> FourPhaseClock {
        self.timing.clock
    }

    /// The GDS layer assignments.
    pub fn layers(&self) -> &LayerMap {
        &self.layers
    }

    /// Looks up the cell definition for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if the technology has no cell for `kind`; a technology that
    /// passed [`Technology::validate`] contains every kind.
    pub fn cell(&self, kind: CellKind) -> &AqfpCell {
        self.cells
            .get(&kind)
            .unwrap_or_else(|| panic!("technology `{}` has no {kind} cell", self.name))
    }

    /// Iterates over all cells in [`CellKind`] order.
    pub fn iter(&self) -> impl Iterator<Item = &AqfpCell> {
        self.cells.values()
    }

    /// Total JJ count of a multiset of cell kinds, e.g. an entire netlist.
    pub fn total_jj<I: IntoIterator<Item = CellKind>>(&self, kinds: I) -> usize {
        kinds.into_iter().map(|k| self.cell(k).jj_count).sum()
    }

    /// Validates the complete description: the composed
    /// [`ProcessRules::validate`] / [`TimingConfig::validate`] /
    /// [`LayerMap::validate`] checks plus the cross-checks only the bundle
    /// can make — every cell kind present, dimensions grid-multiples, pins
    /// on the grid and inside the cell outline.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("technology name must not be empty".into());
        }
        if !self.name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')) {
            return Err(format!(
                "technology name `{}` may only contain letters, digits, `-`, `_` and `.`",
                self.name
            ));
        }
        self.rules.validate().map_err(|e| format!("rules: {e}"))?;
        self.timing.validate().map_err(|e| format!("timing: {e}"))?;
        self.layers.validate().map_err(|e| format!("layers: {e}"))?;

        let grid = self.rules.grid;
        for kind in CellKind::ALL {
            let key = kind_key(kind);
            let cell = self
                .cells
                .get(&kind)
                .ok_or_else(|| format!("cells: no definition for cell kind `{key}`"))?;
            if cell.kind != kind {
                return Err(format!(
                    "cells.{key}: describes a `{}` cell; the key and the cell's `kind` field \
                     must agree",
                    kind_key(cell.kind)
                ));
            }
            if cell.width <= 0.0 || cell.height <= 0.0 {
                return Err(format!("cells.{key}: width and height must be positive"));
            }
            if !is_grid_multiple(cell.width, grid) || !is_grid_multiple(cell.height, grid) {
                return Err(format!(
                    "cells.{key}: dimensions {} × {} µm are not multiples of the {grid} µm grid",
                    cell.width, cell.height
                ));
            }
            if cell.input_pins.len() != kind.input_count()
                || cell.output_pins.len() != kind.output_count()
            {
                return Err(format!(
                    "cells.{key}: has {} input / {} output pins, but a {key} needs {} / {}",
                    cell.input_pins.len(),
                    cell.output_pins.len(),
                    kind.input_count(),
                    kind.output_count()
                ));
            }
            for (pin, direction) in cell
                .input_pins
                .iter()
                .map(|p| (p, PinDirection::Input))
                .chain(cell.output_pins.iter().map(|p| (p, PinDirection::Output)))
            {
                if pin.direction != direction {
                    return Err(format!(
                        "cells.{key}: pin `{}` sits in the {direction:?} list but is marked \
                         {:?}",
                        pin.name, pin.direction
                    ));
                }
                if !is_grid_multiple(pin.offset.x, grid) || !is_grid_multiple(pin.offset.y, grid) {
                    return Err(format!(
                        "cells.{key}: pin `{}` at ({}, {}) is off the {grid} µm grid",
                        pin.name, pin.offset.x, pin.offset.y
                    ));
                }
                if pin.offset.x < 0.0
                    || pin.offset.x > cell.width
                    || pin.offset.y < 0.0
                    || pin.offset.y > cell.height
                {
                    return Err(format!(
                        "cells.{key}: pin `{}` at ({}, {}) lies outside the {} × {} µm cell",
                        pin.name, pin.offset.x, pin.offset.y, cell.width, cell.height
                    ));
                }
            }
        }
        Ok(())
    }

    /// A short, stable fingerprint of the complete technology data (FNV-1a
    /// over the canonical JSON form), embedded in flow checkpoints so a
    /// resume against a different technology fails loudly.
    pub fn fingerprint(&self) -> String {
        let json = serde_json::to_string(self).expect("technology always serializes");
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in json.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        format!("{}:{hash:016x}", self.name)
    }

    /// Serializes the technology to a TOML document (the `superflow tech
    /// dump` format).
    ///
    /// # Errors
    ///
    /// Returns an error if a float field is not finite.
    pub fn to_toml(&self) -> Result<String, String> {
        toml::write_toml(&self.to_value()).map_err(|e| e.to_string())
    }

    /// Loads a technology from a TOML document, rejecting unknown keys and
    /// running the full [`Technology::validate`] cross-checks.
    ///
    /// # Errors
    ///
    /// Returns a parse error (with the offending line), an unknown-key
    /// error, or the first validation failure.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        let value = toml::parse_toml(text).map_err(|e| e.to_string())?;
        Self::from_checked_value(&value)
    }

    /// Serializes the technology to pretty-printed JSON (same structure as
    /// the TOML form).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Loads a technology from its JSON form, with the same strict
    /// unknown-key and validation checks as [`Technology::from_toml`].
    ///
    /// # Errors
    ///
    /// Returns a parse, unknown-key or validation error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Self::from_checked_value(&value)
    }

    fn from_checked_value(value: &Value) -> Result<Self, String> {
        check_schema(value)?;
        let technology = Self::from_value(value).map_err(|e| e.to_string())?;
        technology.validate()?;
        Ok(technology)
    }
}

/// The serialized (map-key / table-header) name of a cell kind, e.g.
/// `Majority3` — distinct from its `Display` short name `MAJ3`.
fn kind_key(kind: CellKind) -> String {
    match kind.to_value() {
        Value::Str(name) => name,
        other => unreachable!("unit variants serialize to strings, got {}", other.kind()),
    }
}

/// Whether `value` is a whole multiple of `grid` (within 1 nm of slack —
/// the GDS database unit).
fn is_grid_multiple(value: f64, grid: f64) -> bool {
    let remainder = value.rem_euclid(grid);
    remainder.min(grid - remainder) < 1e-3
}

/// Rejects keys the [`Technology`] schema does not define, so a typo in a
/// hand-edited file fails loudly instead of silently keeping the default.
///
/// The allowed key sets are derived from the serialized form of a built-in
/// technology (which by construction contains every field of every struct
/// in the schema, including all fifteen cell kinds), so they can never
/// drift from the actual serde field sets.
fn check_schema(value: &Value) -> Result<(), String> {
    let reference = Technology::mit_ll_sqf5ee().to_value();
    check_against(value, &reference, String::new())
}

fn check_against(value: &Value, reference: &Value, at: String) -> Result<(), String> {
    match (value, reference) {
        (Value::Map(entries), Value::Map(ref_entries)) => {
            for (key, sub) in entries {
                let Some((_, ref_sub)) = ref_entries.iter().find(|(ref_key, _)| ref_key == key)
                else {
                    return Err(format!(
                        "unknown key `{at}{key}` (expected one of: {})",
                        ref_entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>().join(", ")
                    ));
                };
                check_against(sub, ref_sub, format!("{at}{key}."))?;
            }
            Ok(())
        }
        (Value::Seq(items), Value::Seq(ref_items)) => {
            // All elements of a schema sequence share one shape; any
            // reference element serves as the prototype. (An empty
            // reference sequence — e.g. `Input`'s pin lists — leaves the
            // items to the arity checks in `Technology::validate`.)
            let Some(prototype) = ref_items.first() else { return Ok(()) };
            let base = at.trim_end_matches('.').to_owned();
            for (index, item) in items.iter().enumerate() {
                check_against(item, prototype, format!("{base}[{index}]."))?;
            }
            Ok(())
        }
        // Scalar, or a kind mismatch the typed conversion will report.
        _ => Ok(()),
    }
}

/// The standard AQFP cell geometry table shared by the built-in
/// technologies: buffers and other single-input cells are 40 × 30 µm, two-
/// and three-input majority-based cells are 60 × 70 µm, splitters scale
/// with their arity, and every dimension and pin sits on the 10 µm grid. JJ
/// counts follow the minimalist-design AQFP library.
pub fn standard_cell_table() -> BTreeMap<CellKind, AqfpCell> {
    CellKind::ALL.into_iter().map(|kind| (kind, standard_cell(kind))).collect()
}

fn standard_cell(kind: CellKind) -> AqfpCell {
    let (width, height, jj_count) = match kind {
        CellKind::Buffer | CellKind::Inverter => (40.0, 30.0, 2),
        CellKind::Constant0 | CellKind::Constant1 => (40.0, 30.0, 2),
        CellKind::And | CellKind::Or | CellKind::Nand | CellKind::Nor => (60.0, 70.0, 6),
        CellKind::Xor => (60.0, 70.0, 8),
        CellKind::Majority3 => (60.0, 70.0, 6),
        CellKind::Splitter2 => (40.0, 30.0, 4),
        CellKind::Splitter3 => (60.0, 30.0, 6),
        CellKind::Splitter4 => (80.0, 30.0, 8),
        CellKind::Input | CellKind::Output => (10.0, 10.0, 0),
    };

    let n_in = kind.input_count();
    let n_out = kind.output_count();
    let input_pins = (0..n_in)
        .map(|i| {
            let name = ["a", "b", "c"][i].to_owned();
            let x = pin_x(width, n_in, i);
            PinGeometry::new(name, PinDirection::Input, Point::new(x, 0.0))
        })
        .collect();
    let output_pins = (0..n_out)
        .map(|i| {
            let name = if n_out == 1 { "xout".to_owned() } else { format!("xout{}", i + 1) };
            let x = pin_x(width, n_out, i);
            PinGeometry::new(name, PinDirection::Output, Point::new(x, height))
        })
        .collect();

    AqfpCell { kind, width, height, jj_count, input_pins, output_pins }
}

/// Evenly distributes `count` pins across the cell width, snapped to the
/// 10 µm grid.
fn pin_x(width: f64, count: usize, index: usize) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let step = width / (count as f64 + 1.0);
    ((step * (index as f64 + 1.0)) / 10.0).round() * 10.0
}

/// A set of named technologies.
///
/// The process-wide registry of *built-ins* is reachable through
/// [`TechnologyRegistry::global`]; it is immutable, and flows resolve
/// `TechSpec::Builtin` names against exactly it. Caller-owned registries
/// (from [`TechnologyRegistry::with_builtins`] or `default()`) can
/// additionally [`register`](TechnologyRegistry::register) custom entries
/// for their own lookups — to drive the *flow* with a custom technology,
/// use `TechSpec::File`/`TechSpec::Inline` instead.
///
/// ```
/// use aqfp_cells::technology::{TechnologyRegistry, MIT_LL_SQF5EE};
/// let registry = TechnologyRegistry::global();
/// let tech = registry.get(MIT_LL_SQF5EE).expect("built-in");
/// assert_eq!(tech.rules().max_wirelength, 400.0);
/// ```
#[derive(Debug, Clone)]
pub struct TechnologyRegistry {
    entries: Vec<Arc<Technology>>,
}

impl TechnologyRegistry {
    /// A registry containing the built-in technologies
    /// ([`MIT_LL_SQF5EE`] and [`AIST_STP2`]).
    pub fn with_builtins() -> Self {
        Self {
            entries: vec![Arc::new(Technology::mit_ll_sqf5ee()), Arc::new(Technology::aist_stp2())],
        }
    }

    /// The shared process-wide registry of built-in technologies.
    pub fn global() -> &'static TechnologyRegistry {
        static GLOBAL: OnceLock<TechnologyRegistry> = OnceLock::new();
        GLOBAL.get_or_init(TechnologyRegistry::with_builtins)
    }

    /// Looks a technology up by registry name.
    pub fn get(&self, name: &str) -> Option<Arc<Technology>> {
        self.entries.iter().find(|t| t.name == name).cloned()
    }

    /// Registry names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|t| t.name.as_str())
    }

    /// All registered technologies, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Technology>> {
        self.entries.iter()
    }

    /// Number of registered technologies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty (a fresh built-in registry never is).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a technology to this caller-owned registry after validating
    /// it; names must be unique. The immutable [`TechnologyRegistry::global`]
    /// registry cannot be extended — custom technologies reach the flow
    /// through `TechSpec::File`/`TechSpec::Inline`.
    ///
    /// # Errors
    ///
    /// Returns the validation failure, or a duplicate-name error.
    pub fn register(&mut self, technology: Technology) -> Result<(), String> {
        technology.validate()?;
        if self.get(&technology.name).is_some() {
            return Err(format!("a technology named `{}` is already registered", technology.name));
        }
        self.entries.push(Arc::new(technology));
        Ok(())
    }
}

impl Default for TechnologyRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_valid_and_distinct() {
        for tech in [Technology::mit_ll_sqf5ee(), Technology::aist_stp2()] {
            tech.validate().unwrap_or_else(|e| panic!("{} invalid: {e}", tech.name));
        }
        assert_ne!(
            Technology::mit_ll_sqf5ee().fingerprint(),
            Technology::aist_stp2().fingerprint()
        );
    }

    #[test]
    fn fingerprint_tracks_every_data_field() {
        let base = Technology::mit_ll_sqf5ee();
        let mut edited = base.clone();
        edited.rules.max_wirelength = 250.0;
        assert_ne!(base.fingerprint(), edited.fingerprint(), "rules feed the fingerprint");

        let mut edited = base.clone();
        edited.timing.gate_delay_ps += 1.0;
        assert_ne!(base.fingerprint(), edited.fingerprint(), "timing feeds the fingerprint");

        let mut edited = base.clone();
        edited.layers.metal1 = 20;
        assert_ne!(base.fingerprint(), edited.fingerprint(), "layers feed the fingerprint");

        assert_eq!(base.fingerprint(), Technology::mit_ll_sqf5ee().fingerprint(), "stable");
    }

    /// The value every existing checkpoint and journal of the default
    /// technology carries. It hashes the compact JSON of the technology, so
    /// a byte that moves in the JSON writer makes every one of them read
    /// as another technology's.
    #[test]
    fn fingerprint_is_pinned_to_the_existing_checkpoints() {
        assert_eq!(Technology::mit_ll_sqf5ee().fingerprint(), "mit-ll-sqf5ee:cb67d9dfce03d8d6");
    }

    #[test]
    fn toml_round_trip_is_exact() {
        for tech in [Technology::mit_ll_sqf5ee(), Technology::aist_stp2()] {
            let dumped = tech.to_toml().expect("dumps");
            let loaded = Technology::from_toml(&dumped).expect("loads");
            assert_eq!(loaded, tech);
            assert_eq!(loaded.fingerprint(), tech.fingerprint());
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let tech = Technology::mit_ll_sqf5ee();
        let dumped = tech.to_json().expect("dumps");
        assert_eq!(Technology::from_json(&dumped).expect("loads"), tech);
    }

    #[test]
    fn edited_dump_loads_with_the_edit_applied() {
        let dumped = Technology::mit_ll_sqf5ee().to_toml().expect("dumps");
        let edited = dumped.replace("max_wirelength = 400.0", "max_wirelength = 250.0");
        assert_ne!(edited, dumped, "the dump spells W_max as expected");
        let loaded = Technology::from_toml(&edited).expect("edited dump loads");
        assert_eq!(loaded.rules.max_wirelength, 250.0);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let dumped = Technology::mit_ll_sqf5ee().to_toml().expect("dumps");
        let typo = dumped.replace("max_wirelength", "max_wirelenght");
        let err = Technology::from_toml(&typo).expect_err("typo rejected");
        assert!(err.contains("max_wirelenght"), "{err}");

        let extra = format!("{dumped}\n[bonus]\nx = 1\n");
        let err = Technology::from_toml(&extra).expect_err("extra table rejected");
        assert!(err.contains("bonus"), "{err}");
    }

    #[test]
    fn invalid_technologies_fail_validation() {
        let mut tech = Technology::mit_ll_sqf5ee();
        tech.name = "has space".to_owned();
        assert!(tech.validate().is_err());

        let mut tech = Technology::mit_ll_sqf5ee();
        tech.cells.remove(&CellKind::Buffer);
        let err = tech.validate().expect_err("missing cell kind");
        assert!(err.contains("Buffer"), "{err}");

        let mut tech = Technology::mit_ll_sqf5ee();
        tech.cells.get_mut(&CellKind::Buffer).unwrap().width = 45.0;
        let err = tech.validate().expect_err("off-grid width");
        assert!(err.contains("grid"), "{err}");

        let mut tech = Technology::mit_ll_sqf5ee();
        tech.cells.get_mut(&CellKind::Buffer).unwrap().input_pins[0].offset.x = 15.0;
        let err = tech.validate().expect_err("off-grid pin");
        assert!(err.contains("pin"), "{err}");

        let mut tech = Technology::mit_ll_sqf5ee();
        tech.layers.jj = tech.layers.outline;
        assert!(tech.validate().is_err(), "shared layers");

        let mut tech = Technology::mit_ll_sqf5ee();
        let buffer = tech.cells.remove(&CellKind::Buffer).unwrap();
        tech.cells.insert(CellKind::Buffer, AqfpCell { kind: CellKind::Inverter, ..buffer });
        let err = tech.validate().expect_err("key/kind mismatch");
        assert!(err.contains("kind"), "{err}");
    }

    #[test]
    fn loading_an_invalid_file_fails_loudly() {
        let dumped = Technology::mit_ll_sqf5ee().to_toml().expect("dumps");
        let broken = dumped.replace("min_spacing = 10.0", "min_spacing = -1.0");
        let err = Technology::from_toml(&broken).expect_err("invalid rules rejected");
        assert!(err.contains("min_spacing"), "{err}");
    }

    #[test]
    fn registry_ships_the_builtins() {
        let registry = TechnologyRegistry::global();
        assert_eq!(registry.names().collect::<Vec<_>>(), vec![MIT_LL_SQF5EE, AIST_STP2]);
        assert!(!registry.is_empty());
        assert_eq!(registry.len(), 2);
        let mit = registry.get(MIT_LL_SQF5EE).expect("mit-ll present");
        assert_eq!(*mit, Technology::mit_ll_sqf5ee());
        assert!(registry.get("no-such-tech").is_none());
    }

    #[test]
    fn registry_accepts_valid_unique_custom_entries() {
        let mut registry = TechnologyRegistry::with_builtins();
        let mut custom = Technology::mit_ll_sqf5ee();
        custom.name = "custom".to_owned();
        registry.register(custom.clone()).expect("registers");
        assert_eq!(registry.get("custom").unwrap().name, "custom");
        // Duplicate names and invalid data are rejected.
        assert!(registry.register(custom).is_err());
        let mut invalid = Technology::mit_ll_sqf5ee();
        invalid.name = "bad".to_owned();
        invalid.rules.grid = 0.0;
        assert!(registry.register(invalid).is_err());
    }

    #[test]
    fn paper_dimensions_are_respected() {
        let tech = Technology::mit_ll_sqf5ee();
        let buf = tech.cell(CellKind::Buffer);
        assert_eq!((buf.width, buf.height), (40.0, 30.0));
        let maj = tech.cell(CellKind::Majority3);
        assert_eq!((maj.width, maj.height), (60.0, 70.0));
    }

    #[test]
    fn all_dimensions_are_grid_aligned() {
        for tech in [Technology::mit_ll_sqf5ee(), Technology::aist_stp2()] {
            for cell in tech.iter() {
                assert_eq!(cell.width % 10.0, 0.0, "{} width off-grid", cell.kind);
                assert_eq!(cell.height % 10.0, 0.0, "{} height off-grid", cell.kind);
                for pin in cell.input_pins.iter().chain(cell.output_pins.iter()) {
                    assert_eq!(pin.offset.x % 10.0, 0.0, "{} pin {} off-grid", cell.kind, pin.name);
                }
            }
        }
    }

    #[test]
    fn pin_counts_match_cell_arity() {
        for cell in Technology::mit_ll_sqf5ee().iter() {
            assert_eq!(cell.input_pins.len(), cell.kind.input_count());
            assert_eq!(cell.output_pins.len(), cell.kind.output_count());
        }
    }

    #[test]
    fn pin_positions_are_inside_cell() {
        for cell in Technology::mit_ll_sqf5ee().iter() {
            for pin in cell.input_pins.iter().chain(cell.output_pins.iter()) {
                assert!(pin.offset.x >= 0.0 && pin.offset.x <= cell.width);
                assert!(pin.offset.y >= 0.0 && pin.offset.y <= cell.height);
            }
        }
    }

    #[test]
    fn buffer_is_double_jj() {
        let tech = Technology::mit_ll_sqf5ee();
        assert_eq!(tech.cell(CellKind::Buffer).jj_count, 2);
        assert!(tech.cell(CellKind::Majority3).jj_count > 2);
        assert_eq!(tech.cell(CellKind::Input).jj_count, 0);
    }

    #[test]
    fn total_jj_sums_kinds() {
        let tech = Technology::mit_ll_sqf5ee();
        let total = tech.total_jj([CellKind::Buffer, CellKind::Buffer, CellKind::Majority3]);
        assert_eq!(total, 2 + 2 + 6);
    }

    #[test]
    fn grid_multiple_tolerance_is_tight() {
        assert!(is_grid_multiple(40.0, 10.0));
        assert!(is_grid_multiple(0.0, 10.0));
        assert!(!is_grid_multiple(45.0, 10.0));
        assert!(is_grid_multiple(30.000000001, 10.0), "1 nm slack absorbs float noise");
    }
}
