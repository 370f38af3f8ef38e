//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (nothing inside the libraries is traced).
//! Every span carries a name, start, end, the span that caused it, and a
//! request id shared by all spans of one request, tick or fleet-day. The
//! spans stay in memory while the workload runs and are written out, one
//! JSON object per line, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `cloudbot.collect`.
    pub name: &'static str,
    /// Request (or tick, or fleet-day) the span belongs to.
    pub req: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
}

/// Per-name aggregate of a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by children), ns.
    pub self_ns: u64,
}

/// A span recorder with one time origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose origin is now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span whose endpoints were taken elsewhere (e.g. by the
    /// writer and reader threads of the open-loop generator).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            req,
            parent,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; [`Trace::close`] sets its end.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, req, parent, now, now)
    }

    /// Close a span opened with [`Trace::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id].end = end;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now());
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn by_layer(&self) -> BTreeMap<&'static str, LayerTime> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_default();
            e.count += 1;
            e.total_ns += span.end.saturating_sub(span.start);
            e.self_ns += self_ns;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once; a
/// child sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if p < spans.len() && p != id {
                children[p].push(id);
            }
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end.saturating_sub(s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            req: 7,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),  // overlaps a: union 10..50
            span("c", Some(0), 90, 120), // sticks out: counts 90..100
            span("a.inner", Some(1), 12, 28),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20 - 16, "a's own child is subtracted from a only");
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 16);
    }

    #[test]
    fn leaf_and_disjoint_children() {
        let spans = vec![
            span("root", None, 0, 50),
            span("x", Some(0), 0, 10),
            span("y", Some(0), 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 10]);
    }

    #[test]
    fn by_layer_aggregates_per_name() {
        let mut t = Trace::new();
        let origin = t.origin;
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        let root = t.record("tick", 1, None, at(0), at(100));
        t.record("step", 1, Some(root), at(0), at(60));
        let root2 = t.record("tick", 2, None, at(100), at(200));
        t.record("step", 2, Some(root2), at(100), at(180));
        let layers = t.by_layer();
        assert_eq!(
            layers["tick"],
            LayerTime {
                count: 2,
                total_ns: 200,
                self_ns: 60
            }
        );
        assert_eq!(
            layers["step"],
            LayerTime {
                count: 2,
                total_ns: 140,
                self_ns: 140
            }
        );
    }
}
