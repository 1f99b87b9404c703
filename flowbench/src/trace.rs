//! In-memory span and counter recorder for the traced run, written out as
//! Chrome trace-event JSON (opens offline in Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Serialize, Value};

/// One timed call: name, interval, causing span and design.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    design: String,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// A count recorded at a span boundary.
#[derive(Debug, Clone)]
struct Counter {
    name: String,
    design: String,
    at: Instant,
    value: f64,
}

/// Records spans and counters in memory. Spans nest through an explicit
/// stack: a span begun while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counters: Vec<Counter>,
    open: Vec<usize>,
}

/// Handle of an open span, closed by [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), counters: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Opens a span named `name` for `design`, child of the innermost open
    /// span.
    pub fn begin(&mut self, name: &str, design: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            design: design.to_owned(),
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `span` (and any span left open inside it) and returns its
    /// seconds.
    pub fn end(&mut self, span: SpanId) -> f64 {
        let now = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end.get_or_insert(now);
            if top == span.0 {
                break;
            }
        }
        now.duration_since(self.spans[span.0].start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(&mut self, name: &str, design: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, design);
        let value = f();
        self.end(id);
        value
    }

    /// Records an already-finished interval as a child of the innermost
    /// open span (used for boundaries reported by flow observers).
    pub fn record(&mut self, name: &str, design: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_owned(),
            design: design.to_owned(),
            start,
            end: Some(end),
            parent: self.open.last().copied(),
        });
    }

    /// Records a count for `design` at the current instant.
    pub fn count(&mut self, name: &str, design: &str, value: f64) {
        self.counters.push(Counter {
            name: name.to_owned(),
            design: design.to_owned(),
            at: Instant::now(),
            value,
        });
    }

    /// Total seconds of every closed span, by name.
    pub fn span_totals(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            if let Some(end) = span.end {
                *totals.entry(span.name.clone()).or_insert(0.0) +=
                    end.duration_since(span.start).as_secs_f64();
            }
        }
        totals
    }

    /// Sum of every counter, by name.
    pub fn counter_totals(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for counter in &self.counters {
            *totals.entry(counter.name.clone()).or_insert(0.0) += counter.value;
        }
        totals
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// The trace as Chrome trace-event JSON: one complete (`X`) event per
    /// span carrying its id, parent and design, and one counter (`C`)
    /// event per count.
    pub fn to_chrome_json(&self) -> Result<String, serde::Error> {
        let text = |s: &str| Value::Str(s.to_owned());
        let mut events = Vec::with_capacity(self.spans.len() + self.counters.len());
        for (id, span) in self.spans.iter().enumerate() {
            let end = span.end.unwrap_or(span.start);
            let mut args = vec![
                ("id".to_owned(), Value::U64(id as u64)),
                ("design".to_owned(), text(&span.design)),
            ];
            if let Some(parent) = span.parent {
                args.push(("parent".to_owned(), Value::U64(parent as u64)));
            }
            events.push(Value::Map(vec![
                ("name".to_owned(), text(&span.name)),
                ("cat".to_owned(), text(span.name.split('.').next().unwrap_or("flow"))),
                ("ph".to_owned(), text("X")),
                ("ts".to_owned(), Value::F64(self.micros(span.start))),
                ("dur".to_owned(), Value::F64(self.micros(end) - self.micros(span.start))),
                ("pid".to_owned(), Value::U64(1)),
                ("tid".to_owned(), Value::U64(1)),
                ("args".to_owned(), Value::Map(args)),
            ]));
        }
        for counter in &self.counters {
            events.push(Value::Map(vec![
                ("name".to_owned(), text(&counter.name)),
                ("ph".to_owned(), text("C")),
                ("ts".to_owned(), Value::F64(self.micros(counter.at))),
                ("pid".to_owned(), Value::U64(1)),
                ("tid".to_owned(), Value::U64(1)),
                (
                    "args".to_owned(),
                    Value::Map(vec![(counter.design.clone(), Value::F64(counter.value))]),
                ),
            ]));
        }
        let document = Value::Map(vec![
            ("traceEvents".to_owned(), Value::Seq(events)),
            ("displayTimeUnit".to_owned(), text("ms")),
        ]);
        serde_json::to_string(&Json(document))
    }
}

/// Adapter that lets a ready-made [`Value`] tree go through `serde_json`.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut tracer = Tracer::default();
        let outer = tracer.begin("outer", "d");
        tracer.span("inner", "d", || std::hint::black_box(1 + 1));
        tracer.count("cells", "d", 3.0);
        tracer.count("cells", "e", 4.0);
        tracer.end(outer);
        let totals = tracer.span_totals();
        assert!(totals["outer"] >= totals["inner"]);
        assert_eq!(tracer.counter_totals()["cells"], 7.0);
        let json = tracer.to_chrome_json().expect("finite times");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"parent\":0"));
    }
}
