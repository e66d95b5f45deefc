//! Client-side spans: one per RPC and one per timed call into a layer,
//! held in memory and written to `trace.jsonl` when the run ends.
//!
//! Spans are recorded from this package only — around `Client` calls and
//! around the public functions `layers.rs` times. Spans inside the
//! server are a later change.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// `round/conn/seq`: spans of one round share `round`, spans of one
/// connection share `conn`. The round span itself is `round/0/0`.
pub type SpanId = [u32; 3];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: SpanId,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span store of one thread (or of the whole run, once
/// the threads' stores are appended to it).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// A store for another thread, on the same clock.
    pub fn fork(&self) -> SpanLog {
        SpanLog::new(self.epoch)
    }

    pub fn record(&mut self, name: &'static str, id: SpanId, parent: SpanId, start: Instant) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":\"{}/{}/{}\",\"parent\":\"{}/{}/{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id[0], s.id[1], s.id[2], s.parent[0], s.parent[1], s.parent[2],
                s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Times `f`, and records the call as a span when a store is given.
pub fn timed<T>(
    log: Option<&mut SpanLog>,
    name: &'static str,
    id: SpanId,
    parent: SpanId,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    if let Some(log) = log {
        log.record(name, id, parent, start);
    }
    (out, took)
}
