//! Benchmark-side span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer; nothing here reaches inside the program. They live in a
//! pre-faulted buffer and are written out after the last slice.

use crate::report::json_field;
use std::io::{BufRead, Write};
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The calls the benchmark brackets; the text before the dot is the layer.
pub const NAMES: [&str; 10] = [
    "bench.op",
    "server.submit",
    "server.wait",
    "engine.execute",
    "engine.execute_snapshot",
    "engine.execute_points",
    "engine.execute_conjunction",
    "engine.queue_insert",
    "engine.queue_delete",
    "planner.estimate",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    BenchOp = 0,
    ServerSubmit,
    ServerWait,
    EngineExecute,
    EngineSnapshot,
    EnginePoints,
    EngineConjunction,
    EngineInsert,
    EngineDelete,
    PlannerEstimate,
}

/// One recorded interval. A span's id is its index in the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// The operation this span belongs to (shared by all its spans).
    pub op: u32,
    /// Index into [`NAMES`].
    pub name: u8,
    /// Id of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        let name = NAMES[self.name as usize];
        &name[..name.find('.').unwrap_or(name.len())]
    }
}

/// Fixed-capacity span buffer: never allocates after construction; spans
/// past capacity are counted, not stored.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    origin: Instant,
    dropped: u64,
}

impl Recorder {
    pub fn with_capacity(cap: usize, origin: Instant) -> Self {
        // Fill-then-clear touches every page now instead of on first push.
        let mut spans = vec![Span::default(); cap];
        spans.clear();
        Recorder {
            spans,
            origin,
            dropped: 0,
        }
    }

    /// The instant timestamps count from (shared by every recorder of a
    /// run, so merged spans stay on one clock).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the run's origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    #[inline]
    pub fn push(&mut self, op: u32, name: Name, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            op,
            name: name as u8,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is not known yet (its children need its id).
    #[inline]
    pub fn open(&mut self, op: u32, name: Name, parent: u32, start_ns: u64) -> u32 {
        self.push(op, name, parent, start_ns, start_ns)
    }

    #[inline]
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends another recorder's spans (per-client buffers merge after
    /// the last slice), re-basing their parent ids.
    pub fn absorb(&mut self, other: &Recorder) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..*s
        }));
    }
}

/// Self time per span: its duration minus the part of its interval that its
/// direct children cover (overlapping children are not double-counted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT && (s.parent as usize) < spans.len())
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    kids.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::duration).collect();
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let p = &spans[parent as usize];
        let p_end = p.end_ns.max(p.start_ns);
        let mut covered = 0u64;
        let mut reach = p.start_ns; // everything before `reach` is accounted
        while i < kids.len() && kids[i].0 == parent {
            let start = kids[i].1.clamp(reach, p_end);
            let end = kids[i].2.clamp(reach, p_end);
            covered += end - start;
            reach = reach.max(end);
            i += 1;
        }
        out[parent as usize] = p.duration().saturating_sub(covered);
    }
    out
}

/// Total self time per layer, in [`NAMES`] order of first appearance.
pub fn layer_self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for name in NAMES {
        let layer = &name[..name.find('.').unwrap_or(name.len())];
        if !out.iter().any(|(l, _)| *l == layer) {
            out.push((layer, 0));
        }
    }
    for (s, t) in spans.iter().zip(selfs) {
        let slot = out.iter_mut().find(|(l, _)| *l == s.layer());
        slot.expect("every span name has a layer").1 += t;
    }
    out
}

/// One span per line, as a JSON object with a fixed key order.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"op_id\":{},\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.op,
            id,
            NAMES[s.name as usize],
            parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

/// Reads back what [`write_jsonl`] wrote; a malformed line is an error.
pub fn read_jsonl(input: impl BufRead) -> std::io::Result<Vec<Span>> {
    let bad = |line: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed span line: {line}"),
        )
    };
    let mut spans = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let parsed = (|| {
            let name = json_field(&line, "name")?;
            let parent: i64 = json_field(&line, "parent")?.parse().ok()?;
            Some(Span {
                op: json_field(&line, "op_id")?.parse().ok()?,
                name: NAMES.iter().position(|n| *n == name)? as u8,
                parent: u32::try_from(parent).unwrap_or(NO_PARENT),
                start_ns: json_field(&line, "start_ns")?.parse().ok()?,
                end_ns: json_field(&line, "end_ns")?.parse().ok()?,
            })
        })();
        spans.push(parsed.ok_or_else(|| bad(&line))?);
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            name: name as u8,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let spans = [
            span(Name::BenchOp, NO_PARENT, 0, 100),   // 0: root
            span(Name::ServerSubmit, 0, 10, 30),      // 1
            span(Name::ServerWait, 0, 30, 90),        // 2
            span(Name::EngineExecute, 2, 50, 80),     // 3: grandchild
            span(Name::PlannerEstimate, 0, 20, 40),   // 4: overlaps 1 and 2
            span(Name::EngineExecute, 0, 95, 140),    // 5: runs past the root
            span(Name::BenchOp, NO_PARENT, 200, 250), // 6: childless root
        ];
        let s = self_times(&spans);
        // Root: children cover [10,90) ∪ [95,100) = 85 → self 15.
        assert_eq!(s[0], 15);
        assert_eq!(s[1], 20);
        assert_eq!(s[2], 30); // 60 minus its grandchild's 30
        assert_eq!(s[3], 30);
        assert_eq!(s[4], 20);
        assert_eq!(s[5], 45);
        assert_eq!(s[6], 50);
        // Self times of a tree whose children stay inside their parents
        // add up to the roots' durations.
        let tidy = &spans[..4];
        let total: u64 = self_times(tidy).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn layers_aggregate_self_time() {
        let spans = [
            span(Name::BenchOp, NO_PARENT, 0, 100),
            span(Name::ServerSubmit, 0, 0, 10),
            span(Name::ServerWait, 0, 10, 90),
            span(Name::EngineExecute, 2, 40, 90),
        ];
        let layers = layer_self_times(&spans);
        let get = |l: &str| layers.iter().find(|(n, _)| *n == l).unwrap().1;
        assert_eq!(get("bench"), 10);
        assert_eq!(get("server"), 40);
        assert_eq!(get("engine"), 50);
        assert_eq!(get("planner"), 0);
    }

    #[test]
    fn recorder_never_grows_and_counts_drops() {
        let mut r = Recorder::with_capacity(2, Instant::now());
        let root = r.open(7, Name::BenchOp, NO_PARENT, 5);
        assert_eq!(root, 0);
        assert_eq!(r.push(7, Name::EngineExecute, root, 6, 9), 1);
        assert_eq!(r.push(8, Name::BenchOp, NO_PARENT, 10, 11), NO_PARENT);
        r.close(root, 12);
        r.close(NO_PARENT, 99); // closing a dropped span is a no-op
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[0].end_ns, 12);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn absorb_rebases_parents() {
        let t = Instant::now();
        let mut a = Recorder::with_capacity(8, t);
        let mut b = Recorder::with_capacity(8, t);
        a.push(0, Name::BenchOp, NO_PARENT, 0, 1);
        let root = b.open(1, Name::BenchOp, NO_PARENT, 2);
        b.push(1, Name::ServerWait, root, 2, 3);
        a.absorb(&b);
        assert_eq!(a.spans()[1].parent, NO_PARENT);
        assert_eq!(a.spans()[2].parent, 1);
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = vec![
            span(Name::BenchOp, NO_PARENT, 1, 9),
            span(Name::EngineConjunction, 0, 2, 8),
        ];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with(
            "{\"op_id\":0,\"id\":0,\"name\":\"bench.op\",\"parent\":-1,\"start_ns\":1,\"end_ns\":9}\n"
        ));
        assert_eq!(read_jsonl(&buf[..]).unwrap(), spans);
        assert!(read_jsonl(&b"{\"op_id\":1}\n"[..]).is_err());
    }
}
