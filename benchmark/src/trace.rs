//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each layer: name, start, end, the span that caused it and
//! the bundle ticket. Kept in memory and written out when the run ends,
//! as Chrome trace JSON (`chrome://tracing`, Perfetto).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed or still-open span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was made (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Bundle ticket (or block number, tenant index, round) it served.
    pub ticket: u64,
}

/// An in-memory span recorder. Disabled, every method is a no-op.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

/// Handle returned by [`Tracer::enter`] for the matching [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A recorder with room for `capacity` spans. Everything it will
    /// need is allocated here, so that recording leaves the replica's
    /// allocation counts and peak heap as they are without it.
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(if enabled { 16 } else { 0 }),
            enabled,
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, ticket: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            ticket,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id` (and anything left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == index {
                break;
            }
        }
    }

    /// Opens a span, runs `f`, closes it.
    pub fn span<T>(&mut self, name: &'static str, ticket: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, ticket);
        let out = f();
        self.exit(id);
        out
    }

    /// Writes complete (`"ph":"X"`) events, microsecond timestamps.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"ticket\":{}}}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.ticket,
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new(true, 8);
        let outer = t.enter("outer", 7);
        t.span("inner", 8, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[1].ticket, 8);
        assert!(spans[1].end_ns - spans[1].start_ns >= 2_000_000);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 8);
        let id = t.enter("x", 0);
        t.exit(id);
        assert!(t.spans.is_empty());
    }
}
