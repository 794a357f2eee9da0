//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, pass)`: the benchmark opens one
//! around each public call it makes into a layer, nested under the
//! pass's root span. Nothing is written while a pass runs; the spans are
//! kept in memory and written out once, after the last pass. A disabled
//! recorder never reads the clock, so the untraced passes pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Spans {
    epoch: Option<Instant>,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing and never reads the clock.
    pub fn off() -> Self {
        Spans {
            epoch: None,
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording recorder; span times are nanoseconds since `epoch`.
    pub fn on(epoch: Instant) -> Self {
        Spans {
            epoch: Some(epoch),
            ..Self::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Tags every span opened from now on with pass `id`.
    pub fn begin_pass(&mut self, id: u32) {
        self.pass = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if self.epoch.is_none() {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` and any span opened inside it that is still open
    /// (an early return on error leaves children open).
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-pass aggregates derived from the spans of that pass.
#[derive(Debug, Clone, Default)]
pub struct PassSummary {
    /// Duration of the pass's root span (the traced wall time), s.
    pub wall_s: f64,
    /// Sum of the root's direct children, s.
    pub top_level_s: f64,
    /// Total duration per span name, s.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Self time per span name (duration minus direct children), s.
    pub self_s: BTreeMap<&'static str, f64>,
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children never overlap (one thread opens them).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Summarises one pass. `root` names the pass's root span; spans of the
/// pass outside the root (e.g. the standalone roofline probes) count in
/// the per-name totals but not in the wall time.
pub fn summarize(spans: &[Span], pass: u32, root: &str) -> PassSummary {
    let selfs = self_ns(spans);
    let mut out = PassSummary::default();
    for (i, s) in spans.iter().enumerate() {
        if s.pass != pass {
            continue;
        }
        let d = s.dur_ns() as f64 * 1e-9;
        *out.total_s.entry(s.name).or_default() += d;
        *out.self_s.entry(s.name).or_default() += selfs[i] as f64 * 1e-9;
        if s.parent.is_none() && s.name == root {
            out.wall_s += d;
        }
        if let Some(p) = s.parent {
            if spans[p].parent.is_none() && spans[p].name == root {
                out.top_level_s += d;
            }
        }
    }
    out
}

/// JSON Lines rendering: one object per span, in open order, with its
/// self time.
pub fn to_jsonl(spans: &[Span], workload: &str, seed: u64) -> String {
    let selfs = self_ns(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"pass\":{},\"id\":{i},\
             \"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.pass, s.name, s.start_ns, s.end_ns, selfs[i]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::off();
        let id = s.enter("a");
        s.time("b", || ());
        s.exit(id);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn nesting_self_time_and_top_level_sum() {
        let mut s = Spans::on(Instant::now());
        s.begin_pass(3);
        let root = s.enter("pass");
        let setup = s.enter("setup");
        s.time("fleet.validate", || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        s.exit(setup);
        s.time("fleet.run", || std::hint::black_box((0..1000).sum::<u64>()));
        s.exit(root);
        s.time("roofline.build", || ());
        let spans = s.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[4].parent.is_none());
        let sum = summarize(spans, 3, "pass");
        assert!(sum.top_level_s <= sum.wall_s);
        assert_eq!(sum.total_s.len(), 5);
        let selfs = self_ns(spans);
        assert_eq!(selfs[1], spans[1].dur_ns() - spans[2].dur_ns());
        assert!(to_jsonl(spans, "w", 1).lines().count() == 5);
        // Other passes are excluded.
        assert_eq!(summarize(spans, 4, "pass").wall_s, 0.0);
    }

    #[test]
    fn exit_closes_children_left_open() {
        let mut s = Spans::on(Instant::now());
        let root = s.enter("pass");
        let _child = s.enter("setup");
        s.exit(root);
        assert!(s
            .spans()
            .iter()
            .all(|x| x.end_ns >= x.start_ns && x.end_ns > 0));
    }
}
