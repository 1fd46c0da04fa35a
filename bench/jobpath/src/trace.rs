//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded from outside the program under test (spans inside it
//! are a later change): one root span per job, one child per step the
//! client or the staged replay takes. They stay in memory until the run
//! ends and are then written to `bench/out/trace-<workload>.json`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Span ids are unique across every tracer of the process; 0 is "none".
static NEXT_SPAN_ID: AtomicU32 = AtomicU32::new(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// Shared by every span of one job (or one replayed request).
    pub job: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Switched off it records nothing and costs a
/// branch per call, which is how the end-to-end run executes.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is the zero point of the span timestamps.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Reserves an id, so children can name a parent that closes after
    /// them. Doubles as the job number of a root span.
    pub fn alloc(&mut self) -> u32 {
        if !self.on {
            return 0;
        }
        // Relaxed: the counter publishes nothing but itself.
        NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    pub fn close(
        &mut self,
        id: u32,
        parent: u32,
        job: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records a finished leaf span.
    pub fn leaf(&mut self, parent: u32, job: u32, name: &'static str, start: Instant) {
        let end = Instant::now();
        let id = self.alloc();
        self.close(id, parent, job, name, start, end);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children count once and a
/// child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Durations, in microseconds, of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Writes the spans, with their self times, as one JSON document.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    let own = self_times(spans);
    let mut out = BufWriter::new(File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns, own[&s.id]
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            // Overlaps its sibling: 20..30 counts once.
            span(3, 1, 20, 50),
            // Runs past the parent: only 90..100 is the parent's time.
            span(4, 1, 90, 120),
            // A grandchild takes from its own parent only.
            span(5, 3, 25, 45),
            // Contained in a sibling: adds nothing.
            span(6, 1, 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - (40 + 10));
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30 - 20);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 20);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(false, epoch);
        let root = t.alloc();
        t.leaf(root, root, "x", epoch);
        assert_eq!(root, 0);
        assert!(t.into_spans().is_empty());

        let mut t = Tracer::new(true, epoch);
        let root = t.alloc();
        t.leaf(root, root, "child", epoch);
        t.close(root, 0, root, "root", epoch, Instant::now());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root);
        assert_eq!(spans[1].id, root);
        assert_ne!(spans[0].id, root);
    }
}
