//! Spans around the benchmark's own calls into the stack.
//!
//! The benchmark cannot see inside a call, so a span covers one outermost
//! public call (or one cell of many identical calls) it makes. Spans live in a
//! buffer allocated up front — recording is two clock reads and one `push`
//! that never reallocates — and are written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// `parent` of a span nobody caused.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the owning buffer) of the span that caused this one.
    pub parent: u32,
    /// Spans of one request share this; 0 for spans that are not a request.
    pub request: u64,
}

/// One thread's span buffer. A disabled tracer records nothing, so the
/// untraced run pays one predictable branch per call site.
pub struct Tracer {
    spans: Vec<Span>,
    epoch: Instant,
    enabled: bool,
    dropped: u64,
}

impl Tracer {
    /// A tracer with room for `cap` spans; `epoch` is shared by every tracer
    /// of a run so their timestamps line up.
    pub fn new(enabled: bool, cap: usize, epoch: Instant) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(if enabled { cap } else { 0 }),
            epoch,
            enabled,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span; returns `f`'s result and the span's index (to
    /// name as the parent of spans `f`'s effects cause later).
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        if !self.enabled {
            return (f(), ROOT);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        (r, self.push(Span { name, start_ns, end_ns, parent, request }))
    }

    fn push(&mut self, s: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(s);
        (self.spans.len() - 1) as u32
    }

    /// Move another thread's spans in, re-basing their parent links: a link to
    /// [`ROOT`] becomes `parent`, the span on this tracer that spawned the thread.
    pub fn absorb(&mut self, other: Tracer, parent: u32) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        for mut s in other.spans {
            s.parent = if s.parent == ROOT { parent } else { s.parent + base };
            self.push(s);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"dropped\":{},\"spans\":[", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_merge_and_never_grow_the_buffer() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, 4, epoch);
        let ((), cell) = t.span("cell", ROOT, 0, || ());
        let mut child = Tracer::new(true, 2, epoch);
        let ((), a) = child.span("call", ROOT, 7, || ());
        child.span("reply", a, 7, || ());
        child.span("overflow", ROOT, 8, || ());
        t.absorb(child, cell);
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans[1].parent, cell);
        assert_eq!(t.spans[2].parent, 1);
        assert!(t.spans.iter().all(|s| s.start_ns <= s.end_ns));
        assert_eq!(t.spans.capacity(), 4);

        let mut off = Tracer::new(false, 4, epoch);
        assert_eq!(off.span("x", ROOT, 0, || 5), (5, ROOT));
        assert_eq!(off.len(), 0);
    }
}
