//! Gate-level BLIF front-end.
//!
//! Supports the `.gate` flavour of BLIF used by standard-cell mapped
//! netlists (and by the EPFL SCE-benchmarks the paper cites), plus simple
//! `.names` covers for constants, buffers and inverters:
//!
//! ```text
//! .model c17
//! .inputs a b c
//! .outputs y
//! .gate AND2 a=a b=b O=n1
//! .gate OR2  a=n1 b=c O=y
//! .end
//! ```
//!
//! The reader makes one pass over the source and keeps every name a slice
//! of it until the [`Netlist`] takes it. A record continued over several
//! lines (trailing `\\`) reads as its lines joined by one space each.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

use aqfp_cells::CellKind;

use super::source::{offset_in, trim, Joiner, LineIndex, Signals, Text};
use super::{ParseNetlistError, ParsedDesign, RecoveredKind};
use crate::gate::GateId;
use crate::netlist::Netlist;

/// Parses a gate-level BLIF description into a [`Netlist`].
///
/// # Errors
///
/// Returns a [`ParseNetlistError`] for unknown gate types, undriven signals,
/// duplicate drivers or malformed records.
pub fn parse_blif(source: &str) -> Result<Netlist, ParseNetlistError> {
    super::strictify(parse_blif_recovering(source)?)
}

/// Parses gate-level BLIF, patching undriven signals with constant-0
/// placeholder gates instead of failing, and recording each patch as a
/// [`RecoveredDefect`](super::RecoveredDefect) with its exact source span.
///
/// Malformed records (unknown gate types, bad bindings, `.latch`, duplicate
/// drivers) are still hard errors.
///
/// # Errors
///
/// Returns a [`ParseNetlistError`] for the unrecoverable problems above.
pub fn parse_blif_recovering(source: &str) -> Result<ParsedDesign, ParseNetlistError> {
    let lines = LineIndex::new(source);
    let mut model = Model { name: Cow::Borrowed("blif"), ..Model::default() };
    let mut joiner = Joiner::default();
    for line in source.lines() {
        let at = offset_in(source, line);
        if let Some(content) = line.trim_end().strip_suffix('\\') {
            // The backslash becomes a joining space at its own position.
            joiner.push(at, content);
            joiner.push(at + content.len(), " ");
            continue;
        }
        if joiner.is_empty() {
            model.line(&joiner.verbatim(source, at..at + line.len()), &lines)?;
        } else {
            joiner.push(at, line);
            model.line(&joiner.text(source), &lines)?;
        }
        joiner.clear();
        if model.ended {
            break;
        }
    }
    if !joiner.is_empty() {
        model.line(&joiner.text(source), &lines)?;
    }
    model.flush_names(&lines)?;
    model.build(&lines)
}

/// One `.gate`/`.names` record: the cell kind, the source offset of the
/// directive, and the output signal with the offset of its token.
struct Record<'a> {
    kind: CellKind,
    at: usize,
    output: (Cow<'a, str>, usize),
    /// The record's range of [`Model::bindings`].
    inputs: Range<usize>,
}

/// The records of one model in source order, names still slices of the
/// source, each with the source offset of its token.
#[derive(Default)]
struct Model<'a> {
    name: Cow<'a, str>,
    inputs: Vec<(Cow<'a, str>, usize)>,
    outputs: Vec<(Cow<'a, str>, usize)>,
    /// Where each input and each output was declared.
    input_at: HashMap<Cow<'a, str>, usize>,
    output_at: HashMap<Cow<'a, str>, usize>,
    gates: Vec<Record<'a>>,
    /// Every record's ordered input signals.
    bindings: Vec<(Cow<'a, str>, usize)>,
    /// The `.names` record being read: its directive's offset, its signals
    /// and the cover rows read so far.
    names_at: Option<usize>,
    names: Vec<(Cow<'a, str>, usize)>,
    cover: Vec<Cow<'a, str>>,
    /// Whether `.end` was read.
    ended: bool,
}

impl<'a> Model<'a> {
    /// Reads one logical line.
    fn line(&mut self, line: &Text<'_, 'a>, lines: &LineIndex) -> Result<(), ParseNetlistError> {
        // `#` starts a comment; cutting the text keeps its offsets.
        let text = line.as_str();
        let text = &text[..text.find('#').unwrap_or(text.len())];
        let mut tokens = tokens(text);
        let Some(first) = tokens.next() else { return Ok(()) };
        if !text[first.clone()].starts_with('.') {
            // Part of a .names cover.
            if self.names_at.is_some() {
                self.cover.push(line.slice(trim(text, 0..text.len())));
            }
            return Ok(());
        }
        self.flush_names(lines)?;
        let at = line.offset(first.start);
        let line_no = || lines.span(at).line;
        match &text[first] {
            ".model" => {
                self.name = tokens.next().map_or(Cow::Borrowed("blif"), |token| line.slice(token));
            }
            ".inputs" => {
                for token in tokens {
                    declare(&mut self.input_at, &mut self.inputs, "input", line, token, lines)?;
                }
            }
            ".outputs" => {
                for token in tokens {
                    declare(&mut self.output_at, &mut self.outputs, "output", line, token, lines)?;
                }
            }
            ".gate" => {
                let cell = tokens
                    .next()
                    .ok_or_else(|| ParseNetlistError::new(line_no(), ".gate missing cell name"))?;
                let cell = &text[cell];
                let kind = gate_kind(cell).ok_or_else(|| {
                    ParseNetlistError::at(lines.span(at), format!("unknown gate type `{cell}`"))
                })?;
                // The last binding of a pin wins; pins compare lowercased.
                let mut pins: [Option<(Cow<'a, str>, usize)>; PINS.len()] = Default::default();
                for binding in tokens {
                    let token = &text[binding.clone()];
                    let Some((pin, _)) = token.split_once('=') else {
                        return Err(ParseNetlistError::at(
                            line.span(lines, binding.start),
                            format!("malformed binding `{token}`"),
                        ));
                    };
                    if let Some(slot) = PINS.iter().position(|name| lowercases_to(pin, name)) {
                        let signal = binding.start + pin.len() + 1;
                        pins[slot] = Some((line.slice(signal..binding.end), line.offset(signal)));
                    }
                }
                let output = pins[..OUTPUT_PINS]
                    .iter_mut()
                    .find_map(Option::take)
                    .ok_or_else(|| ParseNetlistError::new(line_no(), ".gate missing output pin"))?;
                let first_input = self.bindings.len();
                let input_pins = PINS[OUTPUT_PINS..].iter().zip(&mut pins[OUTPUT_PINS..]);
                for (pin, slot) in input_pins.take(kind.input_count()) {
                    let signal = slot.take().ok_or_else(|| {
                        ParseNetlistError::new(
                            line_no(),
                            format!(".gate missing input pin `{pin}`"),
                        )
                    })?;
                    self.bindings.push(signal);
                }
                let inputs = first_input..self.bindings.len();
                self.gates.push(Record { kind, at, output, inputs });
            }
            ".names" => {
                self.names.extend(
                    tokens.map(|token| (line.slice(token.clone()), line.offset(token.start))),
                );
                if self.names.is_empty() {
                    return Err(ParseNetlistError::new(
                        line_no(),
                        ".names needs at least an output",
                    ));
                }
                self.names_at = Some(at);
            }
            ".end" => self.ended = true,
            ".latch" => {
                return Err(ParseNetlistError::at(
                    lines.span(at),
                    "sequential elements (.latch) are not supported",
                ))
            }
            _ => {
                // Ignore other directives (.clock, .area, ...).
            }
        }
        Ok(())
    }

    /// Closes the `.names` record being read, if any.
    fn flush_names(&mut self, lines: &LineIndex) -> Result<(), ParseNetlistError> {
        let Some(at) = self.names_at.take() else { return Ok(()) };
        let kind = (self.names.len().checked_sub(1))
            .and_then(|inputs| names_kind(inputs, &self.cover))
            .ok_or_else(|| ParseNetlistError::at(lines.span(at), "unsupported .names cover"))?;
        let output = self.names.pop().expect("a recognised cover has an output signal");
        let first_input = self.bindings.len();
        self.bindings.append(&mut self.names);
        let inputs = first_input..self.bindings.len();
        self.gates.push(Record { kind, at, output, inputs });
        self.cover.clear();
        Ok(())
    }

    fn build(self, lines: &LineIndex) -> Result<ParsedDesign, ParseNetlistError> {
        let mut netlist = Netlist::new(self.name);
        let mut recovered = Vec::new();
        let mut signals = Signals::default();
        for (name, at) in &self.inputs {
            let gate = netlist.add_input(name.as_ref());
            netlist.set_span(gate, lines.span(*at));
            let id = signals.id(name.clone());
            signals.drive(id, gate);
        }
        let first_gate = netlist.gate_count();
        for record in &self.gates {
            let (output, output_at) = &record.output;
            let gate = netlist.add_gate(record.kind, format!("u_{output}"), vec![]);
            netlist.set_span(gate, lines.span(record.at));
            let id = signals.id(output.clone());
            if signals.drive(id, gate).is_some() {
                return Err(ParseNetlistError::at(
                    lines.span(*output_at),
                    format!("signal `{output}` has multiple drivers"),
                ));
            }
        }
        for (i, record) in self.gates.iter().enumerate() {
            let mut fanin = Vec::with_capacity(record.inputs.len());
            for (signal, at) in &self.bindings[record.inputs.clone()] {
                let id = signals.id(signal.clone());
                let span = || lines.span(*at);
                let kind = RecoveredKind::UndrivenSignal;
                fanin.push(signals.source(id, signal, kind, span, &mut netlist, &mut recovered));
            }
            netlist.gate_mut(GateId(first_gate + i)).fanin = fanin;
        }
        for (name, at) in &self.outputs {
            let id = signals.id(name.clone());
            let span = lines.span(*at);
            let kind = RecoveredKind::UndrivenOutput;
            let source = signals.source(id, name, kind, || span, &mut netlist, &mut recovered);
            let gate = netlist.add_output(format!("po_{name}"), source);
            netlist.set_span(gate, span);
        }
        Ok(ParsedDesign { netlist, recovered })
    }
}

/// Declares the input or output at `token` of `line`; a second declaration
/// of a name is an error naming the first one's line.
fn declare<'a>(
    declared: &mut HashMap<Cow<'a, str>, usize>,
    list: &mut Vec<(Cow<'a, str>, usize)>,
    what: &str,
    line: &Text<'_, 'a>,
    token: Range<usize>,
    lines: &LineIndex,
) -> Result<(), ParseNetlistError> {
    let at = line.offset(token.start);
    let name = line.slice(token);
    if let Some(previous) = declared.insert(name.clone(), at) {
        return Err(ParseNetlistError::at(
            lines.span(at),
            format!("{what} `{name}` declared twice (first on line {})", lines.span(previous).line),
        ));
    }
    list.push((name, at));
    Ok(())
}

/// The pins a `.gate` binding may name: the output's aliases in the order
/// they are looked up, then the inputs in fan-in order.
const PINS: [&str; 7] = ["o", "y", "out", "xout", "a", "b", "c"];
const OUTPUT_PINS: usize = 4;

/// Whether `pin` lowercased is `name`.
fn lowercases_to(pin: &str, name: &str) -> bool {
    if pin.is_ascii() {
        pin.eq_ignore_ascii_case(name)
    } else {
        pin.to_lowercase() == name
    }
}

/// The whitespace-separated tokens of `text`, as byte ranges.
fn tokens(text: &str) -> impl Iterator<Item = Range<usize>> + '_ {
    text.split_whitespace().map(move |token| {
        let start = offset_in(text, token);
        start..start + token.len()
    })
}

/// The cell kind of a `.gate` cell name: its uppercase form without a
/// trailing run of digits, `_` and `X`.
fn gate_kind(cell: &str) -> Option<CellKind> {
    let upper = if cell.is_ascii() { Cow::Borrowed(cell) } else { Cow::Owned(cell.to_uppercase()) };
    let base = upper
        .trim_end_matches(|c: char| c.is_ascii_digit() || c == '_' || c.eq_ignore_ascii_case(&'X'));
    [
        ("AND", CellKind::And),
        ("OR", CellKind::Or),
        ("NAND", CellKind::Nand),
        ("NOR", CellKind::Nor),
        ("XOR", CellKind::Xor),
        ("INV", CellKind::Inverter),
        ("NOT", CellKind::Inverter),
        ("BUF", CellKind::Buffer),
        ("BUFF", CellKind::Buffer),
        ("MAJ", CellKind::Majority3),
        ("MAJORITY", CellKind::Majority3),
        ("ZERO", CellKind::Constant0),
        ("CONST", CellKind::Constant0),
        ("ONE", CellKind::Constant1),
        ("VDD", CellKind::Constant1),
    ]
    .into_iter()
    .find_map(|(name, kind)| base.eq_ignore_ascii_case(name).then_some(kind))
}

/// Recognizes the small set of `.names` covers needed for mapped netlists:
/// constants, buffers, inverters, 2-input AND/OR/XOR.
fn names_kind(inputs: usize, cover: &[Cow<'_, str>]) -> Option<CellKind> {
    let row = |i: usize| cover[i].trim();
    match (inputs, cover.len()) {
        (0, _) if cover.iter().any(|c| c.trim() == "1") => Some(CellKind::Constant1),
        (0, _) => Some(CellKind::Constant0),
        (1, 1) if row(0) == "1 1" => Some(CellKind::Buffer),
        (1, 1) if row(0) == "0 1" => Some(CellKind::Inverter),
        (2, 1) if row(0) == "11 1" => Some(CellKind::And),
        (2, 2) => {
            let rows = [row(0), row(1)];
            let rows_are = |a, b| rows == [a, b] || rows == [b, a];
            if rows_are("-1 1", "1- 1") {
                Some(CellKind::Or)
            } else if rows_are("01 1", "10 1") {
                Some(CellKind::Xor)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::simulate;
    use crate::span::SourceSpan;

    const C17_LIKE: &str = r#"
# a tiny mapped netlist
.model c17ish
.inputs a b c
.outputs y z
.gate AND2 a=a b=b O=n1
.gate OR2  a=n1 b=c O=y
.gate NAND2 a=b b=c O=z
.end
"#;

    #[test]
    fn parses_gate_records() {
        // The file needs no trailing newline, and no `.end`.
        let unterminated = C17_LIKE.trim_end().trim_end_matches(".end").trim_end();
        for src in [C17_LIKE, C17_LIKE.trim_end(), unterminated] {
            let n = parse_blif(src).expect("parses");
            assert_eq!(n.name(), "c17ish");
            assert_eq!(n.primary_inputs().len(), 3);
            assert_eq!(n.primary_outputs().len(), 2);
            n.validate().expect("valid");
            // y = (a&b)|c, z = !(b&c)
            assert_eq!(simulate::simulate(&n, &[true, true, false]).unwrap(), vec![true, true]);
            assert_eq!(simulate::simulate(&n, &[false, false, true]).unwrap(), vec![true, true]);
            assert_eq!(simulate::simulate(&n, &[false, true, true]).unwrap(), vec![true, false]);
        }
    }

    #[test]
    fn parses_names_covers() {
        let src = r#"
.model names_demo
.inputs a b
.outputs y n k one
.names a b y
11 1
.names a n
0 1
.names a k
1 1
.names one
1
.end
"#;
        let n = parse_blif(src).expect("parses");
        n.validate().expect("valid");
        // y = a&b, n = !a, k = a, one = 1
        assert_eq!(simulate::simulate(&n, &[true, false]).unwrap(), vec![false, false, true, true]);
    }

    #[test]
    fn rejects_unknown_gate() {
        let src = ".model m\n.inputs a\n.outputs y\n.gate LUT4 a=a O=y\n.end\n";
        assert!(parse_blif(src).unwrap_err().message.contains("unknown gate type"));
    }

    #[test]
    fn rejects_latches() {
        let src = ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n";
        assert!(parse_blif(src).unwrap_err().message.contains("not supported"));
    }

    #[test]
    fn rejects_undriven_output() {
        let src = ".model m\n.inputs a\n.outputs y\n.end\n";
        assert!(parse_blif(src).unwrap_err().message.contains("never driven"));
    }

    #[test]
    fn duplicate_declarations_carry_both_line_numbers() {
        let src = ".model m\n.inputs a\n.inputs a\n.outputs y\n.gate BUF a=a O=y\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("declared twice"), "{}", err.message);
        assert!(err.message.contains("line 2"), "{}", err.message);
        let src = ".model m\n.inputs a\n.outputs y y\n.gate BUF a=a O=y\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert!(err.message.contains("output `y` declared twice"), "{}", err.message);
        let src = ".model m\n.inputs a\n.outputs y\n.gate BUF a=a O=y\n.outputs  y\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!((err.line, err.column), (5, 11), "{err}");
        assert_eq!(err.message, "output `y` declared twice (first on line 3)");
    }

    #[test]
    fn undriven_outputs_report_their_declaration_line() {
        let src = ".model m\n.inputs a\n.outputs y\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("never driven"), "{}", err.message);
    }

    #[test]
    fn continuation_lines_are_joined() {
        let src = ".model m\n.inputs a \\\nb\n.outputs y\n.gate AND2 a=a b=b O=y\n.end\n";
        let n = parse_blif(src).expect("parses");
        assert_eq!(n.primary_inputs().len(), 2);

        // A record spread over three lines keeps each token's own line.
        let src = ".model m\n.inputs a\n.outputs y\n.gate AND2 a=a \\\n  b=u \\  \n  O=y\n.end";
        let design = parse_blif_recovering(src).expect("recovers");
        assert_eq!(design.recovered[0].signal, "u");
        assert_eq!(design.recovered[0].span, SourceSpan::new(5, 5));
        let n = &design.netlist;
        assert_eq!(n.span(n.find_by_name("u_y").unwrap()), SourceSpan::new(4, 1));
    }

    #[test]
    fn crlf_line_ends_read_like_lf() {
        let lf = ".model m\n.inputs a b\n.outputs y z\n.gate AND2 a=a b=u O=n1 # and\n\
                  .gate INV a=n1 O=y\n.end\n";
        let crlf = lf.replace('\n', "\r\n");
        let design = parse_blif_recovering(lf).expect("recovers");
        assert_eq!(parse_blif_recovering(&crlf).expect("recovers"), design);
        let spans: Vec<SourceSpan> = design.recovered.iter().map(|d| d.span).collect();
        assert_eq!(spans, [SourceSpan::new(4, 18), SourceSpan::new(3, 12)]);
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let src = ".model m\n.inputs\tä b\n.outputs y\n.gate\tAND2\ta=ä\tb=ü\tO=y\n.end";
        let design = parse_blif_recovering(src).expect("recovers");
        let n = &design.netlist;
        assert_eq!(n.span(n.find_by_name("ä").unwrap()), SourceSpan::new(2, 9));
        assert_eq!(n.span(n.find_by_name("b").unwrap()), SourceSpan::new(2, 11));
        // `ü` is the 18th character of its line but starts at its 19th byte.
        assert_eq!(design.recovered[0].signal, "ü");
        assert_eq!(design.recovered[0].span, SourceSpan::new(4, 18));
    }

    #[test]
    fn comments_end_a_record_and_its_continuations() {
        let src = ".model m\n.inputs a b # c d\n.outputs y\n.gate AND2 a=a b=b O=y\n.end";
        assert_eq!(parse_blif(src).expect("parses").primary_inputs().len(), 2);
        // `#` comments out the rest of the logical line, continuations too.
        let src = ".model m\n.inputs a # b \\\n c\n.outputs y\n.gate BUF a=a O=y\n.end";
        assert_eq!(parse_blif(src).expect("parses").primary_inputs().len(), 1);
    }

    #[test]
    fn empty_bindings_and_records() {
        // An empty signal is an undriven one, pinpointed after its `=`, or
        // at the `=` when it ends the line.
        for (gate, column) in [(".gate BUF a= O=y", 13), (".gate BUF O=y a=", 16)] {
            let src = format!(".model m\n.inputs a\n.outputs y\n{gate}\n.end");
            let err = parse_blif(&src).unwrap_err();
            assert_eq!(err.message, "signal `` is never driven");
            assert_eq!((err.line, err.column), (4, column), "{gate}");
        }
        for (record, message) in [
            (".names", ".names needs at least an output"),
            (".gate", ".gate missing cell name"),
            (".gate BUF a=a", ".gate missing output pin"),
            (".gate AND2 O=y b=a", ".gate missing input pin `a`"),
        ] {
            let src = format!(".model m\n.inputs a\n.outputs y\n{record}\n.end");
            let err = parse_blif(&src).unwrap_err();
            assert_eq!((err.line, err.column, err.message.as_str()), (4, 0, message));
        }
    }

    #[test]
    fn majority_gate_records() {
        let src = ".model m\n.inputs a b c\n.outputs y\n.gate MAJ3 a=a b=b c=c O=y\n.end\n";
        let n = parse_blif(src).expect("parses");
        assert_eq!(simulate::simulate(&n, &[true, false, true]).unwrap(), vec![true]);
    }

    #[test]
    fn errors_carry_columns() {
        // The duplicate `a` token sits at line 3, column 9.
        let src = ".model m\n.inputs a\n.inputs a\n.outputs y\n.gate BUF a=a O=y\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!((err.line, err.column), (3, 9), "{err}");

        // The undriven signal's binding token is pinpointed: `u` in `a=u`.
        let src = ".model m\n.inputs a\n.outputs y\n.gate BUF a=u O=y\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert!(err.message.contains("signal `u` is never driven"), "{}", err.message);
        assert_eq!((err.line, err.column), (4, 13), "{err}");
    }

    #[test]
    fn parsed_gates_carry_declaration_spans() {
        let src = ".model m\n.inputs a\n.outputs y\n.gate BUF a=a O=y\n.end\n";
        let n = parse_blif(src).expect("parses");
        let a = n.find_by_name("a").unwrap();
        assert_eq!(n.span(a), SourceSpan::new(2, 9));
        let gate = n.find_by_name("u_y").unwrap();
        assert_eq!(n.span(gate), SourceSpan::new(4, 1));
        let po = n.find_by_name("po_y").unwrap();
        assert_eq!(n.span(po), SourceSpan::new(3, 10));
    }

    #[test]
    fn recovering_parse_patches_undriven_signals() {
        let src = ".model m\n.inputs a\n.outputs y z\n.gate AND2 a=a b=u O=y\n.end\n";
        let design = parse_blif_recovering(src).expect("recovers");
        assert_eq!(design.recovered.len(), 2);
        assert_eq!(design.recovered[0].signal, "u");
        assert_eq!(design.recovered[0].kind, RecoveredKind::UndrivenSignal);
        assert_eq!(design.recovered[0].span, SourceSpan::new(4, 18));
        assert_eq!(design.recovered[1].signal, "z");
        assert_eq!(design.recovered[1].kind, RecoveredKind::UndrivenOutput);
        assert_eq!(design.recovered[1].span, SourceSpan::new(3, 12));
        design.netlist.validate().expect("patched netlist is valid");
        assert!(design.netlist.find_by_name("undriven$u").is_some());

        // An undriven output that a gate also reads is one defect, at the
        // read, and the output terminal shares its placeholder.
        let src = ".model m\n.inputs a\n.outputs y z\n.gate AND2 a=a b=z O=y\n.end\n";
        let design = parse_blif_recovering(src).expect("recovers");
        assert_eq!(design.recovered.len(), 1);
        assert_eq!(design.recovered[0].kind, RecoveredKind::UndrivenSignal);
        assert_eq!(design.recovered[0].span, SourceSpan::new(4, 18));
        let n = &design.netlist;
        let po = n.find_by_name("po_z").unwrap();
        assert_eq!(n.gate(po).fanin, vec![design.recovered[0].placeholder]);
    }
}
