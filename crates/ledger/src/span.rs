//! Harness-side spans: one per call into the product.
//!
//! A traced run keeps a span (`name, start_ns, end_ns, parent, run_id`)
//! around every harness call into the product and around every layer
//! replay batch, in memory, and writes them as JSON Lines when the run
//! ends. An untraced run carries a disabled recorder: every call is one
//! branch. Spans inside the product are a later change.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`Spans::ROOT`] for "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Parent of a top-level span.
    pub const ROOT: SpanId = u32::MAX;

    /// A recorder for run `run_id` (the seed); `enabled = false` records
    /// nothing.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Spans {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return Self::ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`Spans::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn record<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation, write and flush errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            )?;
            if span.parent == Self::ROOT {
                out.write_all(b"null")?;
            } else {
                write!(out, "{}", span.parent)?;
            }
            writeln!(out, ",\"run_id\":{}}}", self.run_id)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_nest_and_export_as_jsonl() {
        let mut spans = Spans::new(true, 42);
        let outer = spans.begin("harness.window", Spans::ROOT);
        let value = spans.record("harness.poll", outer, || 7);
        spans.end(outer);
        assert_eq!((value, spans.len()), (7, 2));
        let path = std::env::temp_dir().join(format!("ledger-spans-{}.jsonl", std::process::id()));
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some("harness.poll"));
        assert_eq!(lines[1].get("run_id").unwrap().as_f64(), Some(42.0));
        let (start, end) = (
            lines[0].get("start_ns").unwrap().as_f64().unwrap(),
            lines[0].get("end_ns").unwrap().as_f64().unwrap(),
        );
        assert!(end >= start);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false, 1);
        let id = spans.begin("x", Spans::ROOT);
        spans.end(id);
        assert!(spans.is_empty());
    }
}
