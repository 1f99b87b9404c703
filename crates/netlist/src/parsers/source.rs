//! Source positions and names shared by both readers.
//!
//! A reader walks its source once and keeps byte offsets and `&str` slices
//! of it. Only a gate, a recovered defect or an error turns an offset into
//! a [`SourceSpan`], through the [`LineIndex`] of line starts. A Verilog
//! statement or a BLIF line that runs over several source lines is read as
//! one [`Text`]: its lines joined by one space each, comments cut out, with
//! the source offset each joined run starts at, so every offset into the
//! text still maps back to its source character.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;

use aqfp_cells::CellKind;

use super::{RecoveredDefect, RecoveredKind, PLACEHOLDER_PREFIX};
use crate::gate::GateId;
use crate::netlist::Netlist;
use crate::span::SourceSpan;

/// The byte offset of `part` within `whole`; `part` must be a slice of it.
pub(crate) fn offset_in(whole: &str, part: &str) -> usize {
    part.as_ptr() as usize - whole.as_ptr() as usize
}

/// `text[range]` without its leading and trailing whitespace. An all-blank
/// range trims to the empty range at its end.
pub(crate) fn trim(text: &str, range: Range<usize>) -> Range<usize> {
    let piece = &text[range.clone()];
    let start = range.start + piece.len() - piece.trim_start().len();
    start..(range.start + piece.trim_end().len()).max(start)
}

/// Maps byte offsets to 1-based line and column numbers, the column
/// counted in characters, from the offsets at which lines start.
pub(crate) struct LineIndex<'a> {
    source: &'a str,
    /// The byte offset at which each line starts.
    starts: Vec<usize>,
    /// Whether every character is one byte, so a column is a byte distance.
    ascii: bool,
    /// The offset and column of the latest lookup: lookups that climb one
    /// long line of multi-byte characters count only the characters in
    /// between.
    last: Cell<(usize, usize)>,
}

impl<'a> LineIndex<'a> {
    pub(crate) fn new(source: &'a str) -> Self {
        let mut starts = vec![0];
        starts.extend(source.match_indices('\n').map(|(at, _)| at + 1));
        Self { source, starts, ascii: source.is_ascii(), last: Cell::new((0, 1)) }
    }

    /// The span of the character at byte `offset`.
    pub(crate) fn span(&self, offset: usize) -> SourceSpan {
        let line = self.starts.partition_point(|&start| start <= offset);
        let start = self.starts[line - 1];
        if self.ascii {
            return SourceSpan::new(line, offset - start + 1);
        }
        let (last, last_column) = self.last.get();
        let (from, column) =
            if start <= last && last <= offset { (last, last_column) } else { (start, 1) };
        let column = column
            + self.source.as_bytes()[from..offset].iter().filter(|&&b| b & 0xC0 != 0x80).count();
        self.last.set((offset, column));
        SourceSpan::new(line, column)
    }
}

/// The text a reader parses as one unit, a Verilog statement or a BLIF
/// line with its continuations, and where in the source each byte lies.
pub(crate) struct Text<'t, 'a> {
    source: &'a str,
    text: &'t str,
    /// `(text offset, source offset)` at which each run of text copied from
    /// one stretch of source starts; a joining space is a run of its own,
    /// placed at the line end or comment it stands for.
    runs: &'t [(usize, usize)],
}

impl<'t, 'a> Text<'t, 'a> {
    pub(crate) fn as_str(&self) -> &'t str {
        self.text
    }

    /// The source offset of the character at text byte `at`, or of the last
    /// character when `at` is past it.
    pub(crate) fn offset(&self, at: usize) -> usize {
        let at = if at < self.text.len() {
            at
        } else {
            self.text.char_indices().next_back().map_or(0, |(last, _)| last)
        };
        let (text_at, source_at) = self.runs[self.runs.partition_point(|&(t, _)| t <= at) - 1];
        source_at + at - text_at
    }

    /// The span of the character at text byte `at` (see [`Text::offset`]).
    pub(crate) fn span(&self, lines: &LineIndex, at: usize) -> SourceSpan {
        lines.span(self.offset(at))
    }

    /// `text[range]`, borrowed from the source when it is a verbatim copy.
    pub(crate) fn slice(&self, range: Range<usize>) -> Cow<'a, str> {
        let text = &self.text[range.clone()];
        let start = self.offset(range.start);
        match self.source.get(start..start + text.len()) {
            Some(verbatim) if verbatim == text => Cow::Borrowed(verbatim),
            _ => Cow::Owned(text.to_owned()),
        }
    }
}

/// The buffers a [`Text`] is built in, reused from one unit to the next.
#[derive(Default)]
pub(crate) struct Joiner {
    text: String,
    runs: Vec<(usize, usize)>,
}

impl Joiner {
    /// One stretch of the source, read as it stands.
    pub(crate) fn verbatim<'t, 'a: 't>(
        &'t mut self,
        source: &'a str,
        range: Range<usize>,
    ) -> Text<'t, 'a> {
        self.clear();
        self.runs.push((0, range.start));
        Text { source, text: &source[range], runs: &self.runs }
    }

    /// Appends `part`, which starts at byte `offset` of the source, or
    /// stands for what starts there.
    pub(crate) fn push(&mut self, offset: usize, part: &str) {
        self.runs.push((self.text.len(), offset));
        self.text.push_str(part);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.runs.clear();
    }

    /// What was pushed since the last [`Joiner::clear`].
    pub(crate) fn text<'t, 'a>(&'t self, source: &'a str) -> Text<'t, 'a> {
        Text { source, text: &self.text, runs: &self.runs }
    }
}

/// Every signal a reader resolves, numbered in first-seen order, with the
/// gate that drives it and the placeholder that stands in when none does.
#[derive(Default)]
pub(crate) struct Signals<'a> {
    ids: HashMap<Cow<'a, str>, usize>,
    driver: Vec<Option<GateId>>,
    placeholder: Vec<Option<GateId>>,
}

impl<'a> Signals<'a> {
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.ids.get(name).copied()
    }

    /// The number of `name`, given the next one if it has none yet.
    pub(crate) fn id(&mut self, name: Cow<'a, str>) -> usize {
        let next = self.driver.len();
        let id = *self.ids.entry(name).or_insert(next);
        if id == next {
            self.driver.push(None);
            self.placeholder.push(None);
        }
        id
    }

    /// Records `gate` as the driver of signal `id`, returning the driver it
    /// already had.
    pub(crate) fn drive(&mut self, id: usize, gate: GateId) -> Option<GateId> {
        self.driver[id].replace(gate)
    }

    /// The gate that feeds a reader of signal `id` (named `name`): its
    /// driver, else the constant-0 placeholder standing in for it, which is
    /// injected and recorded as a defect of `kind` at `span` on first sight.
    pub(crate) fn source(
        &mut self,
        id: usize,
        name: &str,
        kind: RecoveredKind,
        span: impl FnOnce() -> SourceSpan,
        netlist: &mut Netlist,
        recovered: &mut Vec<RecoveredDefect>,
    ) -> GateId {
        if let Some(gate) = self.driver[id].or(self.placeholder[id]) {
            return gate;
        }
        let span = span();
        let gate =
            netlist.add_gate(CellKind::Constant0, format!("{PLACEHOLDER_PREFIX}{name}"), vec![]);
        netlist.set_span(gate, span);
        self.placeholder[id] = Some(gate);
        recovered.push(RecoveredDefect { signal: name.to_owned(), kind, span, placeholder: gate });
        gate
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn spans_count_lines_and_characters() {
        let source = "ab\r\nçd é\n\nx";
        let lines = LineIndex::new(source);
        let span = |needle: &str| lines.span(source.find(needle).unwrap());
        assert_eq!(span("b"), SourceSpan::new(1, 2));
        assert_eq!(span("\r"), SourceSpan::new(1, 3));
        assert_eq!(span("d"), SourceSpan::new(2, 2));
        assert_eq!(span("é"), SourceSpan::new(2, 4));
        assert_eq!(span("\n\n"), SourceSpan::new(2, 5));
        assert_eq!(span("x"), SourceSpan::new(4, 1));
        // Backwards and repeated lookups on a non-ASCII line stay exact.
        assert_eq!(span("d"), SourceSpan::new(2, 2));
        assert_eq!(span("d"), SourceSpan::new(2, 2));
    }

    #[test]
    fn joined_text_maps_every_offset_back_to_the_source() {
        let source = "a b\\\n  c";
        let mut joiner = Joiner::default();
        joiner.push(0, "a b");
        joiner.push(3, " ");
        joiner.push(5, "  c");
        let text = joiner.text(source);
        assert_eq!(text.as_str(), "a b   c");
        assert_eq!(text.offset(2), 2);
        assert_eq!(text.offset(3), 3);
        assert_eq!(text.offset(6), 7);
        assert_eq!(text.offset(99), 7);
        assert!(matches!(text.slice(6..7), Cow::Borrowed("c")));
        assert!(matches!(text.slice(2..7), Cow::Owned(ref joined) if joined == "b   c"));
        assert_eq!(trim(text.as_str(), 1..5), 2..3);
        assert_eq!(trim(text.as_str(), 3..5), 5..5);
    }
}
