//! The readers as they were before they read in one forward pass, kept as
//! the oracle the differential tests hold them to: each statement or BLIF
//! line copied out with a `(line, column)` entry per byte, every name an
//! owned `String` matched through a `HashMap<String, _>`.

use std::collections::HashMap;

use super::{ParseNetlistError, ParsedDesign, RecoveredDefect, RecoveredKind, PLACEHOLDER_PREFIX};
use crate::gate::GateId;
use crate::netlist::Netlist;
use crate::span::SourceSpan;

/// Injects (or reuses) the constant-0 placeholder standing in for an
/// undriven `signal`, recording the defect on first sight. Shared by both
/// recovering front-ends.
fn placeholder(
    netlist: &mut Netlist,
    placeholders: &mut HashMap<String, GateId>,
    recovered: &mut Vec<RecoveredDefect>,
    signal: &str,
    kind: RecoveredKind,
    span: SourceSpan,
) -> GateId {
    if let Some(&id) = placeholders.get(signal) {
        return id;
    }
    let id = netlist.add_gate(
        aqfp_cells::CellKind::Constant0,
        format!("{PLACEHOLDER_PREFIX}{signal}"),
        vec![],
    );
    netlist.set_span(id, span);
    placeholders.insert(signal.to_owned(), id);
    recovered.push(RecoveredDefect { signal: signal.to_owned(), kind, span, placeholder: id });
    id
}

pub(super) mod verilog {
    use aqfp_cells::CellKind;
    use std::collections::HashMap;

    use super::placeholder;
    use super::{ParseNetlistError, ParsedDesign, RecoveredDefect, RecoveredKind};
    use crate::gate::GateId;
    use crate::netlist::Netlist;
    use crate::span::SourceSpan;

    /// Parses a structural-Verilog module, patching undriven signals with
    /// constant-0 placeholder gates instead of failing, and recording each patch
    /// as a [`RecoveredDefect`] with its exact source span.
    ///
    /// Structural problems other than missing drivers (unknown primitives,
    /// undeclared signals, multiple drivers, malformed statements) are still
    /// hard errors.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseNetlistError`] for the unrecoverable problems above.
    pub fn parse_verilog_recovering(source: &str) -> Result<ParsedDesign, ParseNetlistError> {
        let statements = split_statements(source);
        let mut module_name = String::new();
        let mut declared_at: HashMap<String, (&'static str, SourceSpan)> = HashMap::new();
        let mut inputs: Vec<String> = Vec::new();
        let mut outputs: Vec<String> = Vec::new();
        let mut wires: Vec<String> = Vec::new();
        let mut instances: Vec<Instance> = Vec::new();

        for stmt in &statements {
            let text = stmt.text.as_str();
            if text.is_empty() || text == "endmodule" {
                continue;
            }
            if let Some(rest) = module_header(text) {
                let head = rest.split(['(', ';']).next().unwrap_or("");
                let name = head.trim();
                if name.is_empty() {
                    return Err(ParseNetlistError::at(stmt.start(), "module name missing"));
                }
                let at = text.len() - rest.len() + head.len() - head.trim_start().len();
                if let Some((first, second, span)) = two_words(stmt, name, at) {
                    let message = format!("expected `(` after module `{first}`, found `{second}`");
                    return Err(ParseNetlistError::at(span, message));
                }
                module_name = name.to_owned();
                continue;
            }
            let category = ["input", "output", "wire"]
                .into_iter()
                .find_map(|keyword| strip_keyword(text, keyword).map(|_| keyword));
            if let Some(category) = category {
                declare(
                    &mut declared_at,
                    category,
                    stmt,
                    split_signals(stmt, category.len()),
                    &mut inputs,
                    &mut outputs,
                    &mut wires,
                )?;
                continue;
            }
            // Gate primitive instantiation: `<prim> <name>(<out>, <in>...)`.
            let (prim, after) = text.split_once(char::is_whitespace).ok_or_else(|| {
                ParseNetlistError::at(stmt.start(), format!("unrecognised statement `{text}`"))
            })?;
            let after_offset = text.len() - after.len();
            let open = after.find('(').ok_or_else(|| {
                ParseNetlistError::at(stmt.start(), "expected `(` in gate instantiation")
            })?;
            let close = after.rfind(')').ok_or_else(|| {
                ParseNetlistError::at(stmt.start(), "expected `)` in gate instantiation")
            })?;
            if close <= open {
                // `buf g1 )a(` — slicing open+1..close below would panic.
                return Err(ParseNetlistError::at(
                    stmt.start(),
                    "`)` precedes `(` in gate instantiation",
                ));
            }
            let name = after[..open].trim();
            let at = after_offset + after.len() - after.trim_start().len();
            if let Some((first, second, span)) = two_words(stmt, name, at) {
                let message = format!("expected `(` after instance `{first}`, found `{second}`");
                return Err(ParseNetlistError::at(span, message));
            }
            let mut ports: Vec<(String, SourceSpan)> = Vec::new();
            for (port, at) in split_signals_in(&after[open + 1..close], after_offset + open + 1) {
                if port.is_empty() {
                    let span = stmt.span_at(at);
                    return Err(ParseNetlistError::at(span, "empty port in gate instantiation"));
                }
                if let Some((first, second, span)) = two_words(stmt, &port, at) {
                    let message = format!("expected `,` between `{first}` and `{second}`");
                    return Err(ParseNetlistError::at(span, message));
                }
                ports.push((port, stmt.span_at(at)));
            }
            instances.push(Instance {
                span: stmt.start(),
                prim: prim.trim().to_owned(),
                name: name.to_owned(),
                ports,
            });
        }

        if module_name.is_empty() {
            return Err(ParseNetlistError::new(0, "no module declaration found"));
        }

        build_netlist(&module_name, &inputs, &outputs, &wires, &instances, &declared_at)
    }

    /// One gate-primitive instantiation, with the statement's source span and a
    /// span per port token.
    struct Instance {
        span: SourceSpan,
        prim: String,
        name: String,
        ports: Vec<(String, SourceSpan)>,
    }

    /// Registers a declaration list, detecting duplicates. Re-declaring a port
    /// as a wire (or a wire as a port) is legal Verilog and collapses to the
    /// port declaration; any other duplicate is an error carrying both lines.
    fn declare(
        declared_at: &mut HashMap<String, (&'static str, SourceSpan)>,
        category: &'static str,
        stmt: &Statement,
        names: Vec<(String, usize)>,
        inputs: &mut Vec<String>,
        outputs: &mut Vec<String>,
        wires: &mut Vec<String>,
    ) -> Result<(), ParseNetlistError> {
        for (name, at) in names {
            if let Some((first, second, span)) = two_words(stmt, &name, at) {
                let message = format!("expected `,` between `{first}` and `{second}`");
                return Err(ParseNetlistError::at(span, message));
            }
            let span = stmt.span_at(at);
            if let Some(&(previous, previous_span)) = declared_at.get(name.as_str()) {
                if (previous == "wire") == (category == "wire") {
                    return Err(ParseNetlistError::at(
                        span,
                        format!(
                            "signal `{name}` declared twice (first as {previous} on line {})",
                            previous_span.line
                        ),
                    ));
                }
                if previous == "wire" {
                    // The port declaration wins: `wire y; output y;` makes `y`
                    // an output.
                    wires.retain(|wire| wire != &name);
                    declared_at.insert(name.clone(), (category, span));
                    if category == "input" {
                        inputs.push(name);
                    } else {
                        outputs.push(name);
                    }
                }
                // `input a; wire a;` — the wire re-declaration adds nothing.
                continue;
            }
            declared_at.insert(name.clone(), (category, span));
            match category {
                "input" => inputs.push(name),
                "output" => outputs.push(name),
                _ => wires.push(name),
            }
        }
        Ok(())
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

    /// A `;`-terminated statement with a `(line, column)` position recorded for
    /// every byte of its (whitespace-trimmed, comment-stripped) text.
    struct Statement {
        text: String,
        pos: Vec<(usize, usize)>,
    }

    impl Statement {
        /// The span of the statement's first character.
        fn start(&self) -> SourceSpan {
            self.span_at(0)
        }

        /// The span of the byte at `offset` into [`Statement::text`], clamped to
        /// the last recorded position.
        fn span_at(&self, offset: usize) -> SourceSpan {
            self.pos
                .get(offset)
                .or_else(|| self.pos.last())
                .map_or(SourceSpan::UNKNOWN, |&(line, column)| SourceSpan::new(line, column))
        }
    }

    /// Splits the source into `;`-terminated statements, stripping `//` comments
    /// and recording the original (line, column) of every retained character.
    fn split_statements(source: &str) -> Vec<Statement> {
        fn flush(text: &mut String, pos: &mut Vec<(usize, usize)>, out: &mut Vec<Statement>) {
            let start = text.len() - text.trim_start().len();
            let end = text.trim_end().len();
            if end > start {
                out.push(Statement {
                    text: text[start..end].to_owned(),
                    pos: pos[start..end].to_vec(),
                });
            }
            text.clear();
            pos.clear();
        }

        let mut statements = Vec::new();
        let mut text = String::new();
        let mut pos: Vec<(usize, usize)> = Vec::new();
        for (i, raw_line) in source.lines().enumerate() {
            let line_no = i + 1;
            let line = raw_line.split("//").next().unwrap_or("");
            let mut column = 0;
            for ch in line.chars() {
                column += 1;
                if ch == ';' {
                    flush(&mut text, &mut pos, &mut statements);
                } else {
                    text.push(ch);
                    // One position entry per byte keeps `pos` indexable by the
                    // byte offsets string searches produce.
                    for _ in 0..ch.len_utf8() {
                        pos.push((line_no, column));
                    }
                }
            }
            text.push(' ');
            pos.push((line_no, column + 1));
        }
        flush(&mut text, &mut pos, &mut statements);
        statements
    }

    /// Splits the comma-separated list starting `offset` bytes into the
    /// statement's text, returning each trimmed piece with the offset of its
    /// first character. Empty pieces are dropped.
    fn split_signals(stmt: &Statement, offset: usize) -> Vec<(String, usize)> {
        let list = &stmt.text[offset..];
        split_signals_in(list, offset).into_iter().filter(|(name, _)| !name.is_empty()).collect()
    }

    /// Like [`split_signals`] but keeps empty pieces (so instantiation port
    /// lists can report them), over an explicit `slice` of the statement found
    /// at byte offset `base`.
    fn split_signals_in(slice: &str, base: usize) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        let mut cursor = 0;
        for piece in slice.split(',') {
            let lead = piece.len() - piece.trim_start().len();
            out.push((piece.trim().to_owned(), base + cursor + lead));
            cursor += piece.len() + 1;
        }
        out
    }

    /// The first two words of `name`, which starts `at` bytes into the
    /// statement's text, and the span of the second, when `name` has
    /// whitespace inside.
    fn two_words(stmt: &Statement, name: &str, at: usize) -> Option<(String, String, SourceSpan)> {
        let (first, rest) = name.split_once(char::is_whitespace)?;
        let rest = rest.trim_start();
        let second = rest.split(char::is_whitespace).next().unwrap_or(rest);
        Some((first.to_owned(), second.to_owned(), stmt.span_at(at + name.len() - rest.len())))
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

    fn build_netlist(
        module_name: &str,
        inputs: &[String],
        outputs: &[String],
        wires: &[String],
        instances: &[Instance],
        declared_at: &HashMap<String, (&'static str, SourceSpan)>,
    ) -> Result<ParsedDesign, ParseNetlistError> {
        let mut netlist = Netlist::new(module_name);
        let mut recovered: Vec<RecoveredDefect> = Vec::new();
        // Map from signal name to the gate that drives it.
        let mut driver: HashMap<String, GateId> = HashMap::new();
        // Placeholders injected for undriven signals, one per signal.
        let mut placeholders: HashMap<String, GateId> = HashMap::new();
        for name in inputs {
            let id = netlist.add_input(name.clone());
            if let Some(&(_, span)) = declared_at.get(name.as_str()) {
                netlist.set_span(id, span);
            }
            driver.insert(name.clone(), id);
        }

        let declared: std::collections::HashSet<&str> =
            inputs.iter().chain(outputs.iter()).chain(wires.iter()).map(String::as_str).collect();

        // First pass: create the gates so forward references resolve; we place
        // gates in instance order and patch fan-ins in a second pass.
        let mut pending: Vec<(GateId, &Instance)> = Vec::new();
        for instance in instances {
            let kind = primitive_kind(&instance.prim).ok_or_else(|| {
                ParseNetlistError::at(
                    instance.span,
                    format!("unknown gate primitive `{}`", instance.prim),
                )
            })?;
            if instance.ports.len() != kind.input_count() + 1 {
                return Err(ParseNetlistError::at(
                    instance.span,
                    format!(
                        "primitive `{}` expects {} ports, found {}",
                        instance.prim,
                        kind.input_count() + 1,
                        instance.ports.len()
                    ),
                ));
            }
            let (out_signal, out_span) = &instance.ports[0];
            if !declared.contains(out_signal.as_str()) {
                return Err(ParseNetlistError::at(
                    *out_span,
                    format!("undeclared signal `{out_signal}`"),
                ));
            }
            let gate_name = if instance.name.is_empty() {
                format!("u_{out_signal}")
            } else {
                instance.name.clone()
            };
            let id = netlist.add_gate(kind, gate_name, vec![]);
            netlist.set_span(id, instance.span);
            if driver.insert(out_signal.clone(), id).is_some() {
                return Err(ParseNetlistError::at(
                    *out_span,
                    format!("signal `{out_signal}` has multiple drivers"),
                ));
            }
            pending.push((id, instance));
        }

        // Second pass: resolve fan-ins now that all drivers are known; missing
        // drivers are patched with recorded placeholders.
        for (id, instance) in pending {
            let mut fanin = Vec::with_capacity(instance.ports.len() - 1);
            for (signal, span) in &instance.ports[1..] {
                if !declared.contains(signal.as_str()) {
                    return Err(ParseNetlistError::at(
                        *span,
                        format!("undeclared signal `{signal}`"),
                    ));
                }
                let src = match driver.get(signal) {
                    Some(src) => *src,
                    None => placeholder(
                        &mut netlist,
                        &mut placeholders,
                        &mut recovered,
                        signal,
                        RecoveredKind::UndrivenSignal,
                        *span,
                    ),
                };
                fanin.push(src);
            }
            netlist.gate_mut(id).fanin = fanin;
        }

        for name in outputs {
            let declaration = declared_at.get(name).map_or(SourceSpan::UNKNOWN, |&(_, span)| span);
            let src = match driver.get(name).or_else(|| placeholders.get(name)) {
                Some(src) => *src,
                None => placeholder(
                    &mut netlist,
                    &mut placeholders,
                    &mut recovered,
                    name,
                    RecoveredKind::UndrivenOutput,
                    declaration,
                ),
            };
            let id = netlist.add_output(format!("po_{name}"), src);
            netlist.set_span(id, declaration);
        }

        Ok(ParsedDesign { netlist, recovered })
    }
}

pub(super) mod blif {
    use aqfp_cells::CellKind;
    use std::collections::HashMap;

    use super::placeholder;
    use super::{ParseNetlistError, ParsedDesign, RecoveredDefect, RecoveredKind};
    use crate::gate::GateId;
    use crate::netlist::Netlist;
    use crate::span::SourceSpan;

    /// One `.gate`/`.names` record: the directive's span, the cell kind, the
    /// ordered input signals and the output signal, each with its token span.
    struct GateRecord {
        span: SourceSpan,
        kind: CellKind,
        inputs: Vec<(String, SourceSpan)>,
        output: (String, SourceSpan),
    }

    /// Parses gate-level BLIF, patching undriven signals with constant-0
    /// placeholder gates instead of failing, and recording each patch as a
    /// [`RecoveredDefect`] with its exact source span.
    ///
    /// Malformed records (unknown gate types, bad bindings, `.latch`, duplicate
    /// drivers) are still hard errors.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseNetlistError`] for the unrecoverable problems above.
    pub fn parse_blif_recovering(source: &str) -> Result<ParsedDesign, ParseNetlistError> {
        let mut model = String::from("blif");
        let mut inputs: Vec<(String, SourceSpan)> = Vec::new();
        let mut input_spans: HashMap<String, SourceSpan> = HashMap::new();
        let mut outputs: Vec<(String, SourceSpan)> = Vec::new();
        let mut output_spans: HashMap<String, SourceSpan> = HashMap::new();
        let mut gates: Vec<GateRecord> = Vec::new();

        let logical_lines = join_continuations(source);
        let mut pending_names: Option<(SourceSpan, Vec<(String, SourceSpan)>)> = None;
        let mut pending_cover: Vec<String> = Vec::new();

        let flush_names = |pending: &mut Option<(SourceSpan, Vec<(String, SourceSpan)>)>,
                           cover: &mut Vec<String>,
                           gates: &mut Vec<GateRecord>|
         -> Result<(), ParseNetlistError> {
            if let Some((span, signals)) = pending.take() {
                let names: Vec<&str> = signals.iter().map(|(name, _)| name.as_str()).collect();
                let kind = names_kind(&names, cover)
                    .ok_or_else(|| ParseNetlistError::at(span, "unsupported .names cover"))?;
                // Guarded at the `.names` directive, but a typed error beats an
                // unreachable-by-construction panic if that invariant ever slips.
                let output = signals
                    .last()
                    .ok_or_else(|| ParseNetlistError::at(span, ".names needs at least an output"))?
                    .clone();
                let inputs = signals[..signals.len() - 1].to_vec();
                gates.push(GateRecord { span, kind, inputs, output });
                cover.clear();
            }
            Ok(())
        };

        for line in logical_lines {
            // `#` starts a comment; truncating keeps byte offsets into `text`
            // aligned with the position table.
            let text = &line.text[..line.text.find('#').unwrap_or(line.text.len())];
            let tokens = tokenize(text);
            let Some(&(first_offset, first)) = tokens.first() else { continue };
            if !first.starts_with('.') {
                // Part of a .names cover.
                if pending_names.is_some() {
                    pending_cover.push(text.trim().to_owned());
                }
                continue;
            }
            flush_names(&mut pending_names, &mut pending_cover, &mut gates)?;
            let directive_span = line.span_at(first_offset);
            let line_no = directive_span.line;
            let rest = &tokens[1..];
            match first {
                ".model" => {
                    model = rest.first().map_or("blif", |&(_, token)| token).to_owned();
                }
                ".inputs" => {
                    for &(offset, signal) in rest {
                        let span = line.span_at(offset);
                        if let Some(previous) = input_spans.insert(signal.to_owned(), span) {
                            return Err(ParseNetlistError::at(
                                span,
                                format!(
                                    "input `{signal}` declared twice (first on line {})",
                                    previous.line
                                ),
                            ));
                        }
                        inputs.push((signal.to_owned(), span));
                    }
                }
                ".outputs" => {
                    for &(offset, signal) in rest {
                        let span = line.span_at(offset);
                        if let Some(previous) = output_spans.insert(signal.to_owned(), span) {
                            return Err(ParseNetlistError::at(
                                span,
                                format!(
                                    "output `{signal}` declared twice (first on line {})",
                                    previous.line
                                ),
                            ));
                        }
                        outputs.push((signal.to_owned(), span));
                    }
                }
                ".gate" => {
                    let &(_, cell) = rest.first().ok_or_else(|| {
                        ParseNetlistError::new(line_no, ".gate missing cell name")
                    })?;
                    let kind = gate_kind(cell).ok_or_else(|| {
                        ParseNetlistError::at(directive_span, format!("unknown gate type `{cell}`"))
                    })?;
                    let mut pin_map: HashMap<String, (String, SourceSpan)> = HashMap::new();
                    for &(offset, binding) in &rest[1..] {
                        let (pin, signal) = binding.split_once('=').ok_or_else(|| {
                            ParseNetlistError::at(
                                line.span_at(offset),
                                format!("malformed binding `{binding}`"),
                            )
                        })?;
                        let signal_span = line.span_at(offset + pin.len() + 1);
                        pin_map.insert(pin.to_lowercase(), (signal.to_owned(), signal_span));
                    }
                    let output = pin_map
                        .remove("o")
                        .or_else(|| pin_map.remove("y"))
                        .or_else(|| pin_map.remove("out"))
                        .or_else(|| pin_map.remove("xout"))
                        .ok_or_else(|| {
                            ParseNetlistError::new(line_no, ".gate missing output pin")
                        })?;
                    let mut gate_inputs = Vec::new();
                    for pin in ["a", "b", "c"].iter().take(kind.input_count()) {
                        let signal = pin_map.remove(*pin).ok_or_else(|| {
                            ParseNetlistError::new(
                                line_no,
                                format!(".gate missing input pin `{pin}`"),
                            )
                        })?;
                        gate_inputs.push(signal);
                    }
                    gates.push(GateRecord {
                        span: directive_span,
                        kind,
                        inputs: gate_inputs,
                        output,
                    });
                }
                ".names" => {
                    let signals: Vec<(String, SourceSpan)> = rest
                        .iter()
                        .map(|&(offset, token)| (token.to_owned(), line.span_at(offset)))
                        .collect();
                    if signals.is_empty() {
                        return Err(ParseNetlistError::new(
                            line_no,
                            ".names needs at least an output",
                        ));
                    }
                    pending_names = Some((directive_span, signals));
                }
                ".end" => break,
                ".latch" => {
                    return Err(ParseNetlistError::at(
                        directive_span,
                        "sequential elements (.latch) are not supported",
                    ))
                }
                _ => {
                    // Ignore other directives (.clock, .area, ...).
                }
            }
        }
        flush_names(&mut pending_names, &mut pending_cover, &mut gates)?;

        build(&model, &inputs, &outputs, &gates)
    }

    /// A BLIF logical line (continuations joined) with a `(line, column)`
    /// position recorded per byte of its text.
    struct LogicalLine {
        text: String,
        pos: Vec<(usize, usize)>,
    }

    impl LogicalLine {
        fn span_at(&self, offset: usize) -> SourceSpan {
            self.pos
                .get(offset)
                .or_else(|| self.pos.last())
                .map_or(SourceSpan::UNKNOWN, |&(line, column)| SourceSpan::new(line, column))
        }
    }

    /// Joins BLIF continuation lines (trailing `\`), recording the original
    /// position of every retained character.
    fn join_continuations(source: &str) -> Vec<LogicalLine> {
        let mut lines = Vec::new();
        let mut text = String::new();
        let mut pos: Vec<(usize, usize)> = Vec::new();
        for (i, raw) in source.lines().enumerate() {
            let line_no = i + 1;
            let (content, continued) = match raw.trim_end().strip_suffix('\\') {
                Some(stripped) => (stripped, true),
                None => (raw, false),
            };
            let mut column = 0;
            for ch in content.chars() {
                column += 1;
                text.push(ch);
                for _ in 0..ch.len_utf8() {
                    pos.push((line_no, column));
                }
            }
            if continued {
                // The backslash becomes a joining space at its own position.
                text.push(' ');
                pos.push((line_no, column + 1));
            } else {
                lines.push(LogicalLine {
                    text: std::mem::take(&mut text),
                    pos: std::mem::take(&mut pos),
                });
            }
        }
        if !text.is_empty() {
            lines.push(LogicalLine { text, pos });
        }
        lines
    }

    /// Whitespace-tokenizes `text`, returning each token with its byte offset.
    fn tokenize(text: &str) -> Vec<(usize, &str)> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for (i, ch) in text.char_indices() {
            if ch.is_whitespace() {
                if let Some(s) = start.take() {
                    out.push((s, &text[s..i]));
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(s) = start {
            out.push((s, &text[s..]));
        }
        out
    }

    fn gate_kind(cell: &str) -> Option<CellKind> {
        let upper = cell.to_uppercase();
        let base = upper.trim_end_matches(|c: char| c.is_ascii_digit() || c == '_' || c == 'X');
        match base {
            "AND" => Some(CellKind::And),
            "OR" => Some(CellKind::Or),
            "NAND" => Some(CellKind::Nand),
            "NOR" => Some(CellKind::Nor),
            "XOR" => Some(CellKind::Xor),
            "INV" | "NOT" => Some(CellKind::Inverter),
            "BUF" | "BUFF" => Some(CellKind::Buffer),
            "MAJ" | "MAJORITY" => Some(CellKind::Majority3),
            "ZERO" | "CONST" => Some(CellKind::Constant0),
            "ONE" | "VDD" => Some(CellKind::Constant1),
            _ => None,
        }
    }

    /// Recognizes the small set of `.names` covers needed for mapped netlists:
    /// constants, buffers, inverters, 2-input AND/OR.
    fn names_kind(signals: &[&str], cover: &[String]) -> Option<CellKind> {
        let n_inputs = signals.len().checked_sub(1)?;
        match n_inputs {
            0 => {
                if cover.iter().any(|c| c.trim() == "1") {
                    Some(CellKind::Constant1)
                } else {
                    Some(CellKind::Constant0)
                }
            }
            1 => {
                let c: Vec<&str> = cover.iter().map(|s| s.trim()).collect();
                if c == ["1 1"] {
                    Some(CellKind::Buffer)
                } else if c == ["0 1"] {
                    Some(CellKind::Inverter)
                } else {
                    None
                }
            }
            2 => {
                let mut rows: Vec<&str> = cover.iter().map(|s| s.trim()).collect();
                rows.sort_unstable();
                if rows == ["11 1"] {
                    Some(CellKind::And)
                } else if rows == ["-1 1", "1- 1"] {
                    Some(CellKind::Or)
                } else if rows == ["01 1", "10 1"] {
                    Some(CellKind::Xor)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn build(
        model: &str,
        inputs: &[(String, SourceSpan)],
        outputs: &[(String, SourceSpan)],
        gates: &[GateRecord],
    ) -> Result<ParsedDesign, ParseNetlistError> {
        let mut netlist = Netlist::new(model);
        let mut recovered: Vec<RecoveredDefect> = Vec::new();
        let mut driver: HashMap<String, GateId> = HashMap::new();
        let mut placeholders: HashMap<String, GateId> = HashMap::new();
        for (name, span) in inputs {
            let id = netlist.add_input(name.clone());
            netlist.set_span(id, *span);
            driver.insert(name.clone(), id);
        }
        let mut pending: Vec<(GateId, &GateRecord)> = Vec::new();
        for record in gates {
            let (output, output_span) = &record.output;
            let id = netlist.add_gate(record.kind, format!("u_{output}"), vec![]);
            netlist.set_span(id, record.span);
            if driver.insert(output.clone(), id).is_some() {
                return Err(ParseNetlistError::at(
                    *output_span,
                    format!("signal `{output}` has multiple drivers"),
                ));
            }
            pending.push((id, record));
        }
        for (id, record) in pending {
            let mut fanin = Vec::with_capacity(record.inputs.len());
            for (signal, span) in &record.inputs {
                let src = match driver.get(signal) {
                    Some(src) => *src,
                    None => placeholder(
                        &mut netlist,
                        &mut placeholders,
                        &mut recovered,
                        signal,
                        RecoveredKind::UndrivenSignal,
                        *span,
                    ),
                };
                fanin.push(src);
            }
            netlist.gate_mut(id).fanin = fanin;
        }
        for (name, span) in outputs {
            let src = match driver.get(name).or_else(|| placeholders.get(name)) {
                Some(src) => *src,
                None => placeholder(
                    &mut netlist,
                    &mut placeholders,
                    &mut recovered,
                    name,
                    RecoveredKind::UndrivenOutput,
                    *span,
                ),
            };
            let id = netlist.add_output(format!("po_{name}"), src);
            netlist.set_span(id, *span);
        }
        Ok(ParsedDesign { netlist, recovered })
    }
}

mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::{blif, verilog};
    use crate::generators::random::{random_dag, RandomDagConfig};
    use crate::generators::{benchmark_circuit, Benchmark, LargeFamily};
    use crate::netlist::Netlist;
    use crate::parsers::{parse_blif_recovering, parse_verilog_recovering};
    use crate::writers::{to_blif, to_verilog};

    /// Sources with what the writers never emit: comments, tabs, non-ASCII
    /// names, statements and records over several lines, `.names` covers.
    /// Each is also read with CRLF line ends.
    const VERILOG: [&str; 2] = [
        "// A commented module over several lines.\nmodule top(a, b, // inputs\n  y, z);\n  \
         input a,\n        b;\n  input p,\n q;\n  output y, z;\n  wire n1, ü;\n  \
         and g1(n1, a, b); // first\n  maj g2(y, n1,\n         a, b);\n  buf (z, ü);\nendmodule\n",
        "module\tt(a,\ty);\n\tinput\ta;\n\toutput\ty;\n\tnot\tg1(y,\ta);\nendmodule",
    ];
    const BLIF: [&str; 2] = [
        "# A commented model with continuations and covers.\n.model top\n.inputs a b \\\n  c\n\
         .outputs y z k\n.gate AND2 a=a b=b O=n1 # first\n.gate MAJ3 a=n1 \\\n  b=b c=c O=y\n\
         .names a b z\n11 1\n.names c k\n0 1\n.end\n",
        ".model m\n.inputs\tä b\n.outputs y\n.gate\tAND2\ta=ä\tb=ü\tO=y\n.end",
    ];

    /// What an edit inserts or substitutes: the readers' punctuation,
    /// whitespace, line ends and a few name characters.
    const EDIT_CHARS: &[u8] = b";,()=.#/\\ \t\r\nabOoy01";

    /// `text` with one seeded ASCII edit: a character inserted, deleted or
    /// replaced, or the text cut short; and a description of the edit.
    fn edit(text: &str, rng: &mut StdRng) -> (String, String) {
        let mut at = rng.gen_range(0..text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let ch = char::from(EDIT_CHARS[rng.gen_range(0..EDIT_CHARS.len())]);
        let next = text[at..].chars().next().map_or(0, char::len_utf8);
        let (edited, what) = match rng.gen_range(0..4) {
            0 => (format!("{}{ch}{}", &text[..at], &text[at..]), format!("insert {ch:?}")),
            1 => (format!("{}{}", &text[..at], &text[at + next..]), "delete".to_owned()),
            2 => (format!("{}{ch}{}", &text[..at], &text[at + next..]), format!("replace {ch:?}")),
            _ => (text[..at].to_owned(), "truncate".to_owned()),
        };
        let near: String = edited[at.min(edited.len())..].chars().take(20).collect();
        let what = format!("{what} at byte {at}, before {near:?}");
        (edited, what)
    }

    /// Both readers of both formats agree on `text`, `edits` seeded edits of
    /// it, and each of those read with CRLF line ends.
    fn agree(text: &str, verilog_text: bool, edits: usize, seed: u64) {
        let check = |text: &str, context: &str| {
            if verilog_text {
                let (new, old) =
                    (parse_verilog_recovering(text), verilog::parse_verilog_recovering(text));
                assert_eq!(new, old, "Verilog, {context}");
            } else {
                let (new, old) = (parse_blif_recovering(text), blif::parse_blif_recovering(text));
                assert_eq!(new, old, "BLIF, {context}");
            }
        };
        check(text, "unedited");
        check(&text.replace('\n', "\r\n"), "unedited, CRLF");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..edits {
            let (edited, what) = edit(text, &mut rng);
            check(&edited, &what);
        }
    }

    fn generated() -> Vec<Netlist> {
        let mut designs: Vec<Netlist> = Benchmark::ALL.into_iter().map(benchmark_circuit).collect();
        designs.extend(LargeFamily::ALL.into_iter().map(|family| family.by_cells(300, 3)));
        designs.extend((1..=3).map(|seed| random_dag(&RandomDagConfig::small(seed))));
        designs
    }

    #[test]
    fn readers_match_the_reference_on_written_designs_and_their_edits() {
        // Each edit reads the whole text, so the longest texts get fewest.
        let edits = |text: &str| (100_000 / text.len()).clamp(3, 40);
        for (i, netlist) in generated().iter().enumerate() {
            let (verilog_text, blif_text) = (to_verilog(netlist), to_blif(netlist));
            agree(&verilog_text, true, edits(&verilog_text), i as u64);
            agree(&blif_text, false, edits(&blif_text), i as u64);
        }
    }

    #[test]
    fn readers_match_the_reference_on_hand_written_sources_and_their_edits() {
        for (i, (verilog_text, blif_text)) in VERILOG.iter().zip(BLIF).enumerate() {
            for (verilog_text, blif_text) in [
                (verilog_text.to_string(), blif_text.to_string()),
                (verilog_text.replace('\n', "\r\n"), blif_text.replace('\n', "\r\n")),
            ] {
                agree(&verilog_text, true, 1000, i as u64);
                agree(&blif_text, false, 1000, i as u64);
            }
        }
    }
}
