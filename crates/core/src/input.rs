//! Shared flow-input loading.
//!
//! The CLI's single-design mode and the batch driver accept the same input
//! spellings: a built-in benchmark name (`adder8`, `c432`, …) resolving to a
//! generated circuit, or a netlist file dispatched on its extension
//! (`.v`/`.sv` structural Verilog, `.blif`). This module is the one place
//! that mapping lives, so both front ends agree — and both produce typed
//! [`FlowError`]s (with the failing path and the parser's line number)
//! instead of stringly-typed messages.
//!
//! Two loaders share the mapping: [`load_netlist`] parses strictly (the
//! first undriven signal is a parse error), while [`load_design`] parses
//! leniently through the recovering front-ends, so pre-flight lint can
//! report *every* undriven net with its source span (`AQFP-E002`) instead
//! of stopping at the first.
//!
//! A third spelling, `gen:<family>:<cells>[:<seed>]`, resolves to the
//! large-design generators of `aqfp_netlist::generators::large` — e.g.
//! `gen:random_dag:100000:7` — so scale runs need no netlist file on disk.
//! `superflow generate` uses the same families to dump such designs as
//! files.

use aqfp_netlist::generators::{benchmark_circuit, Benchmark, LargeFamily};
use aqfp_netlist::parsers::{
    parse_blif, parse_blif_recovering, parse_verilog, parse_verilog_recovering, ParsedDesign,
};
use aqfp_netlist::Netlist;

use crate::error::FlowError;

/// The netlist file formats the flow accepts, detected from the extension.
enum NetlistFormat {
    Verilog,
    Blif,
}

/// Maps an input path to its format, or explains what the flow accepts.
fn detect_format(input: &str) -> Result<NetlistFormat, FlowError> {
    let extension = std::path::Path::new(input)
        .extension()
        .and_then(|extension| extension.to_str())
        .unwrap_or("");
    match extension {
        "v" | "sv" => Ok(NetlistFormat::Verilog),
        "blif" => Ok(NetlistFormat::Blif),
        _ => Err(FlowError::Input(format!(
            "cannot tell the format of `{input}` from its extension: expected a .v/.sv \
             (structural Verilog) or .blif file, or one of the benchmark names ({})",
            Benchmark::ALL.map(|b| b.name()).join(", ")
        ))),
    }
}

fn read_source(input: &str) -> Result<String, FlowError> {
    std::fs::read_to_string(input)
        .map_err(|e| FlowError::Io { path: input.to_owned(), message: e.to_string() })
}

/// Parses a `gen:<family>:<cells>[:<seed>]` generated-design spec. Returns
/// `None` when `input` does not start with `gen:` (it is a name or path),
/// `Some(Err(_))` when it does but the family or numbers are malformed or
/// the cell count exceeds [`LargeFamily::MAX_CELLS`].
fn parse_generator_spec(input: &str) -> Option<Result<(LargeFamily, usize, u64), FlowError>> {
    let spec = input.strip_prefix("gen:")?;
    let mut parts = spec.split(':');
    let family_name = parts.next().unwrap_or("");
    let families = || LargeFamily::ALL.map(|f| f.name()).join(", ");
    let Some(family) = LargeFamily::parse(family_name) else {
        return Some(Err(FlowError::Input(format!(
            "unknown generator family `{family_name}` in `{input}`: expected one of {}",
            families()
        ))));
    };
    let Some(Ok(cells)) = parts.next().map(str::parse::<usize>) else {
        return Some(Err(FlowError::Input(format!(
            "bad cell count in `{input}`: expected gen:<family>:<cells>[:<seed>]"
        ))));
    };
    if cells > LargeFamily::MAX_CELLS {
        return Some(Err(FlowError::Input(format!(
            "cell count {cells} in `{input}` exceeds the generator limit of {} cells",
            LargeFamily::MAX_CELLS
        ))));
    }
    let seed = match parts.next() {
        None => 0,
        Some(raw) => match raw.parse::<u64>() {
            Ok(seed) => seed,
            Err(_) => {
                return Some(Err(FlowError::Input(format!(
                    "bad seed in `{input}`: expected gen:<family>:<cells>[:<seed>]"
                ))))
            }
        },
    };
    if parts.next().is_some() {
        return Some(Err(FlowError::Input(format!(
            "too many fields in `{input}`: expected gen:<family>:<cells>[:<seed>]"
        ))));
    }
    Some(Ok((family, cells, seed)))
}

/// Loads a flow input: benchmark names resolve to generated circuits, file
/// paths dispatch on their extension.
///
/// # Errors
///
/// - [`FlowError::Input`] when the input is neither a benchmark name nor a
///   file with a recognized extension.
/// - [`FlowError::Io`] when the file cannot be read.
/// - [`FlowError::Parse`] when the netlist text does not parse.
pub fn load_netlist(input: &str) -> Result<Netlist, FlowError> {
    if let Some(benchmark) = Benchmark::ALL.into_iter().find(|b| b.name() == input) {
        return Ok(benchmark_circuit(benchmark));
    }
    if let Some(spec) = parse_generator_spec(input) {
        let (family, cells, seed) = spec?;
        return Ok(family.by_cells(cells, seed));
    }
    let format = detect_format(input)?;
    let source = read_source(input)?;
    match format {
        NetlistFormat::Verilog => parse_verilog(&source),
        NetlistFormat::Blif => parse_blif(&source),
    }
    .map_err(FlowError::from)
}

/// Loads a flow input leniently, through the recovering parsers: undriven
/// signals are patched with constant-0 placeholder gates and recorded as
/// [`RecoveredDefect`](aqfp_netlist::parsers::RecoveredDefect)s instead of
/// failing the parse. Pre-flight lint reports each placeholder as an
/// `AQFP-E002` finding with its source span, so one run surfaces every
/// undriven net. Benchmark names resolve to generated circuits with an
/// empty defect list.
///
/// # Errors
///
/// Same as [`load_netlist`], except undriven signals are no longer a
/// [`FlowError::Parse`] — only unrecoverable syntax errors are.
pub fn load_design(input: &str) -> Result<ParsedDesign, FlowError> {
    if let Some(benchmark) = Benchmark::ALL.into_iter().find(|b| b.name() == input) {
        return Ok(ParsedDesign { netlist: benchmark_circuit(benchmark), recovered: Vec::new() });
    }
    if let Some(spec) = parse_generator_spec(input) {
        let (family, cells, seed) = spec?;
        return Ok(ParsedDesign { netlist: family.by_cells(cells, seed), recovered: Vec::new() });
    }
    let format = detect_format(input)?;
    let source = read_source(input)?;
    match format {
        NetlistFormat::Verilog => parse_verilog_recovering(&source),
        NetlistFormat::Blif => parse_blif_recovering(&source),
    }
    .map_err(FlowError::from)
}

/// A short display name for an input spec: benchmark names pass through,
/// file paths reduce to their stem (`designs/alu.v` → `alu`). Used by the
/// batch driver to label reports and journal directories.
pub fn design_name(input: &str) -> String {
    if Benchmark::ALL.into_iter().any(|b| b.name() == input) {
        return input.to_owned();
    }
    if let Some(Ok((family, cells, seed))) = parse_generator_spec(input) {
        // Mirrors the generators' own netlist names, minus sizing details
        // the generator derives itself.
        return match family {
            LargeFamily::RandomDag => format!("{}_{cells}_s{seed}", family.name()),
            _ => format!("{}_{cells}", family.name()),
        };
    }
    std::path::Path::new(input)
        .file_stem()
        .and_then(|stem| stem.to_str())
        .map(str::to_owned)
        .unwrap_or_else(|| input.to_owned())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_resolve_without_touching_disk() {
        let netlist = load_netlist("adder8").expect("built-in benchmark");
        assert!(netlist.gate_count() > 0);
        assert_eq!(design_name("adder8"), "adder8");
        let design = load_design("adder8").expect("built-in benchmark");
        assert!(design.recovered.is_empty());
        assert_eq!(design.netlist.gate_count(), netlist.gate_count());
    }

    #[test]
    fn errors_are_typed_with_the_failing_path() {
        assert!(
            matches!(load_netlist("design.vhdl"), Err(FlowError::Input(m)) if m.contains("vhdl"))
        );
        assert!(matches!(
            load_netlist("no_such_file.v"),
            Err(FlowError::Io { path, .. }) if path == "no_such_file.v"
        ));
        // The lenient loader shares the same dispatch and error types.
        assert!(matches!(load_design("design.vhdl"), Err(FlowError::Input(_))));
        assert!(matches!(load_design("no_such_file.blif"), Err(FlowError::Io { .. })));
    }

    #[test]
    fn file_paths_reduce_to_their_stem() {
        assert_eq!(design_name("designs/alu.v"), "alu");
        assert_eq!(design_name("top.blif"), "top");
    }

    #[test]
    fn generator_specs_resolve_without_touching_disk() {
        let netlist = load_netlist("gen:random_dag:500:7").expect("generated design");
        assert!(netlist.validate().is_ok());
        let cells = netlist.cell_count();
        assert!((350..=650).contains(&cells), "got {cells} cells");
        // Same spec, same circuit — and the seed is part of the identity.
        let again = load_netlist("gen:random_dag:500:7").expect("generated design");
        assert_eq!(again.cell_count(), cells);
        // The seed defaults to 0 when omitted; hyphens are accepted.
        assert!(load_netlist("gen:tiled-mul:100").is_ok());
        let design = load_design("gen:apc_array:200").expect("generated design");
        assert!(design.recovered.is_empty());
    }

    #[test]
    fn generator_names_are_filesystem_safe() {
        // Journal directories and output GDS files are named after the
        // design, so the colons of the spec must not leak through.
        assert_eq!(design_name("gen:random_dag:100000:7"), "random_dag_100000_s7");
        assert_eq!(design_name("gen:tiled_mul:5000"), "tiled_mul_5000");
        assert_eq!(design_name("gen:apc-array:200"), "apc_array_200");
    }

    #[test]
    fn malformed_generator_specs_are_input_errors() {
        for bad in [
            "gen:no_such_family:100",
            "gen:random_dag",
            "gen:random_dag:lots",
            "gen:random_dag:100:abc",
            "gen:random_dag:100:7:extra",
        ] {
            assert!(
                matches!(load_netlist(bad), Err(FlowError::Input(_))),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn oversized_generator_specs_are_input_errors_naming_the_limit() {
        let limit = LargeFamily::MAX_CELLS;
        for oversized in [
            format!("gen:random_dag:{}", limit + 1),
            "gen:random_dag:100000000000".to_owned(),
            format!("gen:apc_array:{}", usize::MAX),
        ] {
            for result in [load_netlist(&oversized).map(drop), load_design(&oversized).map(drop)] {
                assert!(
                    matches!(&result, Err(FlowError::Input(m)) if m.contains(&limit.to_string())),
                    "`{oversized}` should be rejected naming the limit, got {result:?}"
                );
            }
        }
        // The limit itself is a valid spec.
        let at_limit = format!("gen:random_dag:{limit}:3");
        assert!(
            matches!(parse_generator_spec(&at_limit), Some(Ok((_, cells, 3))) if cells == limit)
        );
    }

    #[test]
    fn lenient_loading_recovers_undriven_signals() {
        let dir = std::env::temp_dir().join("superflow-input-lenient-test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("undriven.v");
        std::fs::write(
            &path,
            "module undriven(a, y);\n  input a;\n  output y;\n  wire ghost;\n  and g(y, a, \
             ghost);\nendmodule\n",
        )
        .expect("write fixture");
        let input = path.to_str().expect("utf-8 path");
        // Strict loading fails on the undriven signal ...
        assert!(matches!(load_netlist(input), Err(FlowError::Parse(_))));
        // ... while lenient loading patches it and records the defect.
        let design = load_design(input).expect("recovering parse succeeds");
        assert_eq!(design.recovered.len(), 1);
        assert_eq!(design.recovered[0].signal, "ghost");
        std::fs::remove_file(&path).ok();
    }
}
