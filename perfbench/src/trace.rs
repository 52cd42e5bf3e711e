//! Spans recorded around the benchmark's calls into each layer: kept in
//! memory during the run, written out as JSON lines at the end, and
//! folded into per-name self times (duration minus the time covered by
//! child spans).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// The request (or replayed call) this span belongs to; 0 for phases.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are unique across tracers that were
/// given distinct `lane`s.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread or component, on the same clock.
    pub fn fork(&self, lane: u64) -> Self {
        Self::new(self.epoch, lane)
    }

    /// Reserves an id for a span that is recorded once it ends (so
    /// children can name it as their parent first).
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 40) | self.next
    }

    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |at: Instant| {
            u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Runs `f` as a child span of `parent` and returns its result with
    /// the elapsed time in microseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (result, end.duration_since(start).as_secs_f64() * 1e6)
    }
}

/// Per span name: (count, total µs, self µs).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(span.parent).or_default() += span.end_ns.saturating_sub(span.start_ns);
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for span in spans {
        let total = span.end_ns.saturating_sub(span.start_ns);
        let own = total.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += total as f64 / 1e3;
        entry.2 += own as f64 / 1e3;
    }
    out
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "sitting",
                request: 0,
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                id: 2,
                parent: 1,
                name: "post",
                request: 1,
                start_ns: 1_000,
                end_ns: 4_000,
            },
            Span {
                id: 3,
                parent: 1,
                name: "post",
                request: 2,
                start_ns: 5_000,
                end_ns: 9_000,
            },
        ];
        let times = self_times(&spans);
        assert_eq!(times["sitting"], (1, 10.0, 3.0));
        assert_eq!(times["post"], (2, 7.0, 7.0));
    }
}
