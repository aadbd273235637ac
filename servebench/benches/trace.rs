//! Spans around the replay's calls into each layer: name, start, end,
//! parent and request id, kept in memory and written out at the end.

use parking_lot::Mutex;
use std::time::Instant;

/// One timed call. `parent` indexes the same span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one request. A request may start on one thread and end
/// on another (serve hands it to a pool worker), so it travels with the
/// work and is flushed into the [`Sink`] once, when the request ends.
/// With tracing off every call is a no-op except the timing closure.
pub struct RequestTrace {
    on: bool,
    epoch: Instant,
    request: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl RequestTrace {
    pub fn new(on: bool, epoch: Instant, request: u32) -> RequestTrace {
        RequestTrace {
            on,
            epoch,
            request,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span at `at` under the innermost open span.
    pub fn enter_at(&mut self, name: &'static str, at: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().map(|&p| p as u32),
            start_ns: self.ns(at),
            end_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span at `at`.
    pub fn exit_at(&mut self, at: Instant) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.ns(at);
        }
    }

    /// Record an interval measured elsewhere (a queue wait) under the
    /// innermost open span.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.enter_at(name, start);
        self.exit_at(end);
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.enter_at(name, Instant::now());
        let out = f();
        self.exit_at(Instant::now());
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Where finished requests leave their spans.
#[derive(Default)]
pub struct Sink {
    spans: Mutex<Vec<Span>>,
}

impl Sink {
    pub fn flush(&self, trace: RequestTrace) {
        if trace.spans.is_empty() {
            return;
        }
        let mut all = self.spans.lock();
        let base = all.len() as u32;
        all.extend(trace.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The spans `keep` selects as tab-separated lines: span id (its index),
/// request, name, parent id, start and end (ns since the replay began).
pub fn to_tsv(spans: &[Span], keep: impl Fn(&Span) -> bool) -> String {
    let mut out = String::from("id\trequest\tname\tparent\tstart_ns\tend_ns\n");
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| keep(s)) {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{id}\t{}\t{}\t{parent}\t{}\t{}\n",
            s.request, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("parse", Some(0), 10, 30),
            span("solve", Some(0), 40, 90),
            // A grandchild counts against its parent only.
            span("search", Some(2), 50, 80),
            // Overlapping siblings cover their union, not their sum.
            span("a", Some(3), 55, 70),
            span("b", Some(3), 60, 75),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 10, 15, 15]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("wait", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn nested_recording_and_flush_rebase_parents() {
        let epoch = Instant::now();
        let sink = Sink::default();
        for request in 0..2 {
            let mut t = RequestTrace::new(true, epoch, request);
            t.enter_at("request", Instant::now());
            t.time("inner", || std::hint::black_box(1 + 1));
            t.exit_at(Instant::now());
            sink.flush(t);
        }
        let spans = sink.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].request, 1);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], spans[0].duration_ns() - spans[1].duration_ns());
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = RequestTrace::new(false, Instant::now(), 0);
        assert_eq!(t.time("x", || 7), 7);
        t.add("wait", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
