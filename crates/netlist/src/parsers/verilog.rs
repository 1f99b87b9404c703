//! Structural-Verilog front-end.
//!
//! The supported subset covers gate-level structural Verilog as produced by
//! logic-synthesis tools when mapped to a simple gate library:
//!
//! ```verilog
//! module half_adder(a, b, sum, carry);
//!   input a, b;
//!   output sum, carry;
//!   wire n1;
//!   xor g1(sum, a, b);
//!   and g2(carry, a, b);
//! endmodule
//! ```
//!
//! Supported primitives: `and`, `or`, `nand`, `nor`, `xor`, `not`, `buf`,
//! `maj` (3-input majority). The first port of a primitive is its output.
//! Vectors, assigns, parameters and behavioural constructs are not supported.
//!
//! The reader makes one pass over the source: it cuts `//` comments, splits
//! the `;`-terminated statements and keeps every name a slice of the source
//! until the [`Netlist`] takes it. A statement that runs over several lines
//! reads as its lines joined by one space each.

use std::borrow::Cow;
use std::ops::Range;

use aqfp_cells::CellKind;

use super::source::{offset_in, trim, Joiner, LineIndex, Signals, Text};
use super::{ParseNetlistError, ParsedDesign, RecoveredKind};
use crate::gate::GateId;
use crate::netlist::Netlist;

/// Parses a structural-Verilog module into a [`Netlist`].
///
/// # Errors
///
/// Returns a [`ParseNetlistError`] when the text is not in the supported
/// subset: missing module header, unknown primitive, undeclared signal,
/// wrong pin count, a signal driven by more than one gate, or an undriven
/// signal/output.
pub fn parse_verilog(source: &str) -> Result<Netlist, ParseNetlistError> {
    super::strictify(parse_verilog_recovering(source)?)
}

/// Parses a structural-Verilog module, patching undriven signals with
/// constant-0 placeholder gates instead of failing, and recording each patch
/// as a [`RecoveredDefect`](super::RecoveredDefect) with its exact source
/// span.
///
/// Structural problems other than missing drivers (unknown primitives,
/// undeclared signals, multiple drivers, malformed statements) are still
/// hard errors.
///
/// # Errors
///
/// Returns a [`ParseNetlistError`] for the unrecoverable problems above.
pub fn parse_verilog_recovering(source: &str) -> Result<ParsedDesign, ParseNetlistError> {
    let lines = LineIndex::new(source);
    let mut module = Module::default();
    let mut joiner = Joiner::default();
    // The statement read so far, from its first to its last non-blank byte.
    let mut statement: Option<Range<usize>> = None;
    for line in source.lines() {
        let code = &line[..line.find("//").unwrap_or(line.len())];
        for (i, piece) in code.split(';').enumerate() {
            if i > 0 {
                if let Some(range) = statement.take() {
                    module.read(source, range, &mut joiner, &lines)?;
                }
            }
            let piece = piece.trim();
            if !piece.is_empty() {
                let end = offset_in(source, piece) + piece.len();
                match &mut statement {
                    Some(range) => range.end = end,
                    None => statement = Some(end - piece.len()..end),
                }
            }
        }
    }
    if let Some(range) = statement {
        module.read(source, range, &mut joiner, &lines)?;
    }

    if module.name.is_empty() {
        return Err(ParseNetlistError::new(0, "no module declaration found"));
    }
    module.build(&lines)
}

/// What a declaration statement declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Declared {
    Input,
    Output,
    Wire,
}

impl Declared {
    const ALL: [Declared; 3] = [Declared::Input, Declared::Output, Declared::Wire];

    fn keyword(self) -> &'static str {
        match self {
            Declared::Input => "input",
            Declared::Output => "output",
            Declared::Wire => "wire",
        }
    }
}

/// One gate-primitive instantiation.
struct Instance<'a> {
    /// The source offset of the statement.
    at: usize,
    primitive: Cow<'a, str>,
    name: Cow<'a, str>,
    /// The instance's range of [`Module::ports`].
    ports: Range<usize>,
}

/// The statements of one module in source order, names still slices of
/// the source.
#[derive(Default)]
struct Module<'a> {
    name: Cow<'a, str>,
    /// Every declared signal, numbered in declaration order.
    signals: Signals<'a>,
    /// Per signal: what its winning declaration declares, and where.
    declared: Vec<(Declared, usize)>,
    /// The input and the output ports in declaration order.
    inputs: Vec<(Cow<'a, str>, usize)>,
    outputs: Vec<(Cow<'a, str>, usize)>,
    instances: Vec<Instance<'a>>,
    /// Every instance's port signals, each with its source offset.
    ports: Vec<(Cow<'a, str>, usize)>,
}

impl<'a> Module<'a> {
    /// Reads the statement at `range` of the source.
    fn read(
        &mut self,
        source: &'a str,
        range: Range<usize>,
        joiner: &mut Joiner,
        lines: &LineIndex,
    ) -> Result<(), ParseNetlistError> {
        if !source[range.clone()].contains('\n') {
            return self.statement(&joiner.verbatim(source, range), lines);
        }
        // Each line end reads as one space; a `\r` before it and a comment
        // are dropped.
        joiner.clear();
        let mut rest = &source[range];
        while let Some(end) = rest.find('\n') {
            let line = &rest[..end];
            let line = line.strip_suffix('\r').unwrap_or(line);
            let code = &line[..line.find("//").unwrap_or(line.len())];
            let at = offset_in(source, code);
            joiner.push(at, code);
            joiner.push(at + code.len(), " ");
            rest = &rest[end + 1..];
        }
        joiner.push(offset_in(source, rest), rest);
        self.statement(&joiner.text(source), lines)
    }

    fn statement(
        &mut self,
        stmt: &Text<'_, 'a>,
        lines: &LineIndex,
    ) -> Result<(), ParseNetlistError> {
        let text = stmt.as_str();
        let error =
            |at: usize, message: String| ParseNetlistError::at(stmt.span(lines, at), message);
        if text == "endmodule" {
            return Ok(());
        }
        if let Some(rest) = module_header(text) {
            let from = text.len() - rest.len();
            let name = trim(text, from..from + rest.find('(').unwrap_or(rest.len()));
            if name.is_empty() {
                return Err(error(0, "module name missing".into()));
            }
            if let Some((first, second, at)) = two_words(text, name.clone()) {
                return Err(error(
                    at,
                    format!("expected `(` after module `{first}`, found `{second}`"),
                ));
            }
            self.name = stmt.slice(name);
            return Ok(());
        }
        if let Some(declared) =
            Declared::ALL.into_iter().find(|d| strip_keyword(text, d.keyword()).is_some())
        {
            return self.declare(stmt, declared, lines);
        }
        // Gate primitive instantiation: `<prim> <name>(<out>, <in>...)`.
        let Some((primitive, after)) = text.split_once(char::is_whitespace) else {
            return Err(error(0, format!("unrecognised statement `{text}`")));
        };
        let after_at = text.len() - after.len();
        let open =
            after.find('(').ok_or_else(|| error(0, "expected `(` in gate instantiation".into()))?;
        let close = after
            .rfind(')')
            .ok_or_else(|| error(0, "expected `)` in gate instantiation".into()))?;
        if close <= open {
            return Err(error(0, "`)` precedes `(` in gate instantiation".into()));
        }
        let name = trim(text, after_at..after_at + open);
        if let Some((first, second, at)) = two_words(text, name.clone()) {
            return Err(error(
                at,
                format!("expected `(` after instance `{first}`, found `{second}`"),
            ));
        }
        let first_port = self.ports.len();
        for port in pieces(text, after_at + open + 1..after_at + close) {
            if port.is_empty() {
                return Err(error(port.start, "empty port in gate instantiation".into()));
            }
            if let Some((first, second, at)) = two_words(text, port.clone()) {
                return Err(error(at, format!("expected `,` between `{first}` and `{second}`")));
            }
            self.ports.push((stmt.slice(port.clone()), stmt.offset(port.start)));
        }
        self.instances.push(Instance {
            at: stmt.offset(0),
            primitive: stmt.slice(0..primitive.len()),
            name: stmt.slice(name),
            ports: first_port..self.ports.len(),
        });
        Ok(())
    }

    /// Registers a declaration list, detecting duplicates. Re-declaring a
    /// port as a wire (or a wire as a port) is legal Verilog and collapses
    /// to the port declaration; any other duplicate is an error carrying
    /// both lines.
    fn declare(
        &mut self,
        stmt: &Text<'_, 'a>,
        declared: Declared,
        lines: &LineIndex,
    ) -> Result<(), ParseNetlistError> {
        let text = stmt.as_str();
        for range in pieces(text, declared.keyword().len()..text.len()) {
            if range.is_empty() {
                continue;
            }
            if let Some((first, second, at)) = two_words(text, range.clone()) {
                return Err(ParseNetlistError::at(
                    stmt.span(lines, at),
                    format!("expected `,` between `{first}` and `{second}`"),
                ));
            }
            let at = stmt.offset(range.start);
            let name = stmt.slice(range);
            let id = self.signals.id(name.clone());
            if id == self.declared.len() {
                self.declared.push((declared, at));
                self.port(declared, name, id);
                continue;
            }
            let (previous, previous_at) = self.declared[id];
            if (previous == Declared::Wire) == (declared == Declared::Wire) {
                return Err(ParseNetlistError::at(
                    lines.span(at),
                    format!(
                        "signal `{name}` declared twice (first as {} on line {})",
                        previous.keyword(),
                        lines.span(previous_at).line
                    ),
                ));
            }
            if previous == Declared::Wire {
                // The port declaration wins: `wire y; output y;` makes `y`
                // an output.
                self.declared[id] = (declared, at);
                self.port(declared, name, id);
            }
            // `input a; wire a;`: the wire re-declaration adds nothing.
        }
        Ok(())
    }

    fn port(&mut self, declared: Declared, name: Cow<'a, str>, id: usize) {
        match declared {
            Declared::Input => self.inputs.push((name, id)),
            Declared::Output => self.outputs.push((name, id)),
            Declared::Wire => {}
        }
    }

    fn build(self, lines: &LineIndex) -> Result<ParsedDesign, ParseNetlistError> {
        let Module { name, mut signals, declared, inputs, outputs, instances, ports } = self;
        let mut netlist = Netlist::new(name);
        let mut recovered = Vec::new();
        let undeclared = |signal: &str, at: usize| {
            ParseNetlistError::at(lines.span(at), format!("undeclared signal `{signal}`"))
        };
        for (name, id) in &inputs {
            let gate = netlist.add_input(name.as_ref());
            netlist.set_span(gate, lines.span(declared[*id].1));
            signals.drive(*id, gate);
        }

        // First pass: create the gates so forward references resolve; we
        // place gates in instance order and patch fan-ins in a second pass.
        let first_gate = netlist.gate_count();
        for instance in &instances {
            let span = lines.span(instance.at);
            let kind = primitive_kind(&instance.primitive).ok_or_else(|| {
                ParseNetlistError::at(
                    span,
                    format!("unknown gate primitive `{}`", instance.primitive),
                )
            })?;
            if instance.ports.len() != kind.input_count() + 1 {
                return Err(ParseNetlistError::at(
                    span,
                    format!(
                        "primitive `{}` expects {} ports, found {}",
                        instance.primitive,
                        kind.input_count() + 1,
                        instance.ports.len()
                    ),
                ));
            }
            let (output, output_at) = &ports[instance.ports.start];
            let id = signals.get(output).ok_or_else(|| undeclared(output, *output_at))?;
            let gate_name = if instance.name.is_empty() {
                format!("u_{output}")
            } else {
                instance.name.to_string()
            };
            let gate = netlist.add_gate(kind, gate_name, vec![]);
            netlist.set_span(gate, span);
            if signals.drive(id, gate).is_some() {
                return Err(ParseNetlistError::at(
                    lines.span(*output_at),
                    format!("signal `{output}` has multiple drivers"),
                ));
            }
        }

        // Second pass: resolve fan-ins now that all drivers are known;
        // missing drivers are patched with recorded placeholders.
        for (i, instance) in instances.iter().enumerate() {
            let mut fanin = Vec::with_capacity(instance.ports.len() - 1);
            for (signal, at) in &ports[instance.ports.start + 1..instance.ports.end] {
                let id = signals.get(signal).ok_or_else(|| undeclared(signal, *at))?;
                let span = || lines.span(*at);
                let kind = RecoveredKind::UndrivenSignal;
                fanin.push(signals.source(id, signal, kind, span, &mut netlist, &mut recovered));
            }
            netlist.gate_mut(GateId(first_gate + i)).fanin = fanin;
        }

        for (name, id) in &outputs {
            let declaration = lines.span(declared[*id].1);
            let kind = RecoveredKind::UndrivenOutput;
            let source =
                signals.source(*id, name, kind, || declaration, &mut netlist, &mut recovered);
            let gate = netlist.add_output(format!("po_{name}"), source);
            netlist.set_span(gate, declaration);
        }

        Ok(ParsedDesign { netlist, recovered })
    }
}

/// The rest of a `module` header: `module` must end the statement or be
/// followed by whitespace or `(`, so `modulex g1(y, a)` stays an instance.
fn module_header(stmt: &str) -> Option<&str> {
    let rest = stmt.strip_prefix("module")?;
    if rest.is_empty() || rest.starts_with(|c: char| c.is_whitespace() || c == '(') {
        Some(rest)
    } else {
        None
    }
}

fn strip_keyword<'a>(stmt: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = stmt.strip_prefix(keyword)?;
    if rest.starts_with(char::is_whitespace) {
        Some(rest)
    } else {
        None
    }
}

/// The comma-separated pieces of `text[range]`, each trimmed; a blank piece
/// is the empty range where the next piece or the list's end begins.
fn pieces(text: &str, range: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
    text[range].split(',').map(move |piece| {
        let start = offset_in(text, piece);
        trim(text, start..start + piece.len())
    })
}

/// The first two words of the trimmed `text[range]` and the offset of the
/// second, when a name there has whitespace inside.
fn two_words(text: &str, range: Range<usize>) -> Option<(&str, &str, usize)> {
    let (first, rest) = text[range.clone()].split_once(char::is_whitespace)?;
    let rest = rest.trim_start();
    let second = rest.split(char::is_whitespace).next().unwrap_or(rest);
    Some((first, second, range.end - rest.len()))
}

fn primitive_kind(prim: &str) -> Option<CellKind> {
    match prim {
        "and" => Some(CellKind::And),
        "or" => Some(CellKind::Or),
        "nand" => Some(CellKind::Nand),
        "nor" => Some(CellKind::Nor),
        "xor" => Some(CellKind::Xor),
        "not" => Some(CellKind::Inverter),
        "buf" => Some(CellKind::Buffer),
        "maj" => Some(CellKind::Majority3),
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::simulate;
    use crate::span::SourceSpan;

    const HALF_ADDER: &str = r#"
        // A half adder in the supported structural subset.
        module half_adder(a, b, sum, carry);
          input a, b;
          output sum, carry;
          xor g1(sum, a, b);
          and g2(carry, a, b);
        endmodule
    "#;

    #[test]
    fn parses_half_adder() {
        // The file needs no trailing newline, and its last statement no `;`.
        let unterminated = HALF_ADDER.trim_end().trim_end_matches("endmodule").trim_end();
        let unterminated = unterminated.trim_end_matches(';');
        for src in [HALF_ADDER, HALF_ADDER.trim_end(), unterminated] {
            let n = parse_verilog(src).expect("parses");
            assert_eq!(n.name(), "half_adder");
            assert_eq!(n.primary_inputs().len(), 2);
            assert_eq!(n.primary_outputs().len(), 2);
            n.validate().expect("valid");
            // sum = a ^ b, carry = a & b
            assert_eq!(simulate::simulate(&n, &[true, false]).unwrap(), vec![true, false]);
            assert_eq!(simulate::simulate(&n, &[true, true]).unwrap(), vec![false, true]);
        }
    }

    #[test]
    fn parses_wires_and_not() {
        let src = r#"
            module inv_chain(a, y);
              input a;
              output y;
              wire w1;
              not g1(w1, a);
              not g2(y, w1);
            endmodule
        "#;
        let n = parse_verilog(src).expect("parses");
        assert_eq!(simulate::simulate(&n, &[true]).unwrap(), vec![true]);
        assert_eq!(simulate::simulate(&n, &[false]).unwrap(), vec![false]);
    }

    #[test]
    fn rejects_unknown_primitive() {
        let src = "module m(a, y); input a; output y; dff g1(y, a); endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.message.contains("unknown gate primitive"));
    }

    #[test]
    fn rejects_undeclared_signal() {
        let src = "module m(a, y); input a; output y; and g1(y, a, ghost); endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.message.contains("undeclared signal"));
    }

    #[test]
    fn rejects_multiple_drivers() {
        let src = "module m(a, y); input a; output y; buf g1(y, a); buf g2(y, a); endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.message.contains("multiple drivers"));
    }

    #[test]
    fn rejects_wrong_port_count() {
        let src = "module m(a, y); input a; output y; and g1(y, a); endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.message.contains("expects 3 ports"));
    }

    #[test]
    fn rejects_missing_module() {
        let err = parse_verilog("input a;").unwrap_err();
        assert!(err.message.contains("unrecognised statement") || err.message.contains("module"));
    }

    #[test]
    fn reversed_parentheses_are_an_error_not_a_panic() {
        let src = "module m(a, y); input a; output y; buf g1 )y, a(; endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.message.contains("precedes"), "{}", err.message);
    }

    #[test]
    fn duplicate_declarations_carry_both_line_numbers() {
        let src = "module m(a, y);\ninput a;\ninput a;\noutput y;\nbuf g1(y, a);\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("declared twice"), "{}", err.message);
        assert!(err.message.contains("line 2"), "{}", err.message);
        // A name can't be both an input and an output either.
        let src = "module m(a); input a; output a; endmodule";
        let err = parse_verilog(src).unwrap_err();
        assert!(err.message.contains("declared twice"), "{}", err.message);
        // Nor two wires; and a port that took over a wire's name is the
        // first declaration a later duplicate names.
        for (decls, line, column, message) in [
            ("wire w;\nwire w;", 5, 6, "signal `w` declared twice (first as wire on line 4)"),
            (
                "wire y;\noutput y;\n  output y;",
                6,
                10,
                "signal `y` declared twice (first as output on line 5)",
            ),
        ] {
            let src = format!("module m(a, y);\ninput a;\noutput z;\n{decls}\nendmodule");
            let err = parse_verilog(&src).unwrap_err();
            assert_eq!((err.line, err.column, err.message.as_str()), (line, column, message));
        }
    }

    #[test]
    fn port_wire_redeclaration_is_legal_verilog() {
        // `output y; wire y;` (either order) collapses to the port.
        for src in [
            "module m(a, y); input a; output y; wire y; buf g1(y, a); endmodule",
            "module m(a, y); input a; wire y; output y; buf g1(y, a); endmodule",
        ] {
            let n = parse_verilog(src).expect("parses");
            assert_eq!(n.primary_outputs().len(), 1, "{src}");
            assert_eq!(simulate::simulate(&n, &[true]).unwrap(), vec![true], "{src}");
        }
    }

    #[test]
    fn undriven_outputs_report_their_declaration_line() {
        let src = "module m(a, y);\ninput a;\noutput y;\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("never driven"), "{}", err.message);
    }

    #[test]
    fn majority_primitive_is_supported() {
        let src = r#"
            module m(a, b, c, y);
              input a, b, c;
              output y;
              maj g1(y, a, b, c);
            endmodule
        "#;
        let n = parse_verilog(src).expect("parses");
        assert_eq!(simulate::simulate(&n, &[true, true, false]).unwrap(), vec![true]);
        assert_eq!(simulate::simulate(&n, &[true, false, false]).unwrap(), vec![false]);
    }

    #[test]
    fn errors_carry_columns() {
        // `b` is declared at line 2, column 10; the duplicate is the error site.
        let src = "module m(a, y);\ninput a, a;\noutput y;\nbuf g1(y, a);\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!((err.line, err.column), (2, 10), "{err}");
        assert!(err.to_string().contains("line 2, column 10"), "{err}");

        // The undeclared signal's own token is pinpointed.
        let src = "module m(a, y);\ninput a;\noutput y;\nand g1(y, a, ghost);\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!((err.line, err.column), (4, 14), "{err}");

        // A module, signal or instance name with whitespace inside is an
        // error at its second word.
        for (src, line, column, message) in [
            ("module top level(a, y);", 1, 12, "expected `(` after module `top`, found `level`"),
            ("and g 1(y, a, b);", 4, 7, "expected `(` after instance `g`, found `1`"),
            ("input p q;", 4, 9, "expected `,` between `p` and `q`"),
            ("buf g1(y, a b);", 4, 13, "expected `,` between `a` and `b`"),
            ("and g1(y, a b);", 4, 13, "expected `,` between `a` and `b`"),
        ] {
            let src = if src.starts_with("module") {
                format!("{src}\ninput a;\noutput y;\nbuf g1(y, a);\nendmodule")
            } else {
                format!("module m(a, b, y);\ninput a, b;\noutput y;\n{src}\nendmodule")
            };
            let err = parse_verilog(&src).unwrap_err();
            assert_eq!((err.line, err.column, err.message.as_str()), (line, column, message));
        }
    }

    #[test]
    fn parsed_gates_carry_declaration_spans() {
        let src = "module m(a, y);\n  input a;\n  output y;\n  buf g1(y, a);\nendmodule";
        let n = parse_verilog(src).expect("parses");
        let a = n.find_by_name("a").unwrap();
        assert_eq!(n.span(a), SourceSpan::new(2, 9));
        let g1 = n.find_by_name("g1").unwrap();
        assert_eq!(n.span(g1), SourceSpan::new(4, 3));
        let po = n.find_by_name("po_y").unwrap();
        assert_eq!(n.span(po), SourceSpan::new(3, 10));
    }

    #[test]
    fn recovering_parse_patches_undriven_signals() {
        let src = "module m(a, y, z);\n  input a;\n  output y, z;\n  wire u;\n  \
                   and g1(y, a, u);\nendmodule";
        // Strict parse fails on the first defect (the use of `u`).
        let err = parse_verilog(src).unwrap_err();
        assert!(err.message.contains("signal `u` is never driven"), "{}", err.message);
        assert_eq!((err.line, err.column), (5, 16));

        // The recovering parse patches `u` and the undriven output `z`.
        let design = parse_verilog_recovering(src).expect("recovers");
        assert_eq!(design.recovered.len(), 2);
        assert_eq!(design.recovered[0].signal, "u");
        assert_eq!(design.recovered[0].kind, RecoveredKind::UndrivenSignal);
        assert_eq!(design.recovered[0].span, SourceSpan::new(5, 16));
        assert_eq!(design.recovered[1].signal, "z");
        assert_eq!(design.recovered[1].kind, RecoveredKind::UndrivenOutput);
        assert_eq!(design.recovered[1].span, SourceSpan::new(3, 13));
        // The patched netlist is structurally complete and validates.
        design.netlist.validate().expect("patched netlist is valid");
        assert!(design.netlist.find_by_name("undriven$u").is_some());

        // An undriven output that a gate also reads is one defect, at the
        // read, and the output terminal shares its placeholder.
        let src = "module m(a, y, z);\n input a;\n output y, z;\n and g1(y, a, z);\nendmodule";
        let design = parse_verilog_recovering(src).expect("recovers");
        assert_eq!(design.recovered.len(), 1);
        assert_eq!(design.recovered[0].signal, "z");
        assert_eq!(design.recovered[0].kind, RecoveredKind::UndrivenSignal);
        assert_eq!(design.recovered[0].span, SourceSpan::new(4, 15));
        let n = &design.netlist;
        let po = n.find_by_name("po_z").unwrap();
        assert_eq!(n.gate(po).fanin, vec![design.recovered[0].placeholder]);
    }

    #[test]
    fn module_is_a_keyword_only_before_whitespace_or_a_port_list() {
        let src =
            "module m(a, y);\ninput a;\noutput y;\nmodulex g1(y, a);\nbuf g2(y, a);\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!(err.message, "unknown gate primitive `modulex`");
        assert_eq!((err.line, err.column), (4, 1));
        for src in ["module(a); input a; endmodule", "module; input a; endmodule"] {
            assert_eq!(parse_verilog(src).unwrap_err().message, "module name missing", "{src}");
        }
        let n = parse_verilog("module\n\tm(a, y); input a; output y; buf g(y, a); endmodule");
        assert_eq!(n.unwrap().name(), "m");
    }

    #[test]
    fn crlf_line_ends_read_like_lf() {
        let lf = "module m(a, y, z);\n  input a;\n  output y, z;\n  wire w, u;\n  \
                  not g1(w, a); // inverted\n  and g2(y, w,\n         u);\nendmodule\n";
        let crlf = lf.replace('\n', "\r\n");
        let design = parse_verilog_recovering(lf).expect("recovers");
        assert_eq!(parse_verilog_recovering(&crlf).expect("recovers"), design);
        let spans: Vec<SourceSpan> = design.recovered.iter().map(|d| d.span).collect();
        assert_eq!(spans, [SourceSpan::new(7, 10), SourceSpan::new(3, 13)]);
        let n = &design.netlist;
        assert_eq!(n.span(n.find_by_name("g2").unwrap()), SourceSpan::new(6, 3));

        let src = "module m(a, y);\r\ninput a;\r\noutput y;\r\nand g1(y, a, ghost);\r\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!((err.line, err.column), (4, 14), "{err}");
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let src = "module m(a, y);\n\tinput a;\n\toutput y;\n\twire é, ü;\n\tbuf gé(é, a);\n\t\
                   and g2(y, é, ü);\nendmodule";
        let design = parse_verilog_recovering(src).expect("recovers");
        let n = &design.netlist;
        assert_eq!(n.span(n.find_by_name("gé").unwrap()), SourceSpan::new(5, 2));
        assert_eq!(n.span(n.find_by_name("a").unwrap()), SourceSpan::new(2, 8));
        // `ü` is the 15th character of its line but starts at its 16th byte.
        assert_eq!(design.recovered[0].signal, "ü");
        assert_eq!(design.recovered[0].span, SourceSpan::new(6, 15));
        let err = parse_verilog(&src.replace("é, ü)", "é, ghost)")).unwrap_err();
        assert_eq!((err.line, err.column), (6, 15), "{err}");
    }

    #[test]
    fn comments_and_line_ends_inside_statements() {
        let src = "module m(a, // first port\n         b, y);\n  input a, b; // ports\n  \
                   output y;\n  and g1(y, // the output\n         a, b);\nendmodule";
        let n = parse_verilog(src).expect("parses");
        assert_eq!(n.name(), "m");
        assert_eq!(n.span(n.find_by_name("g1").unwrap()), SourceSpan::new(5, 3));
        assert_eq!(n.span(n.find_by_name("b").unwrap()), SourceSpan::new(3, 12));
        // A comment hides a `;`.
        let src = "module m(a, y);\ninput a; // output y;\nbuf g1(y, a);\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!(err.message, "undeclared signal `y`");
        // A port broken by a comment and a line end is two words, and the
        // error points at the second one, past the comment and the line end.
        let src = "module m(a, y);\ninput a;\noutput y;\nbuf g1(y, a // comment\n  b);\nendmodule";
        let err = parse_verilog(src).unwrap_err();
        assert_eq!(err.message, "expected `,` between `a` and `b`");
        assert_eq!((err.line, err.column), (5, 3));
    }

    #[test]
    fn empty_ports_are_pinpointed() {
        for (ports, column) in [("(y, )", 11), ("(, a)", 8), ("(y,, a)", 10)] {
            let src = format!("module m(a, y);\ninput a;\noutput y;\nbuf g1{ports};\nendmodule");
            let err = parse_verilog(&src).unwrap_err();
            assert_eq!(err.message, "empty port in gate instantiation");
            assert_eq!((err.line, err.column), (4, column), "{ports}");
        }
    }

    #[test]
    fn recovering_parse_of_clean_source_records_nothing() {
        let design = parse_verilog_recovering(HALF_ADDER).expect("parses");
        assert!(design.recovered.is_empty());
        assert_eq!(design.netlist, parse_verilog(HALF_ADDER).expect("parses"));
    }
}
