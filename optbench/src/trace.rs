//! In-memory span recorder for the traced replay.
//!
//! A span is one call into a layer, recorded around the call from the
//! benchmark's side: name (`layer.phase`), parent, the design/style/
//! iteration it worked on, start and end in nanoseconds since the
//! tracer's epoch, and work counters. Spans stay in memory until the run
//! ends; [`Tracer::chrome_json`] renders them as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in [`Tracer::spans`].
    pub id: usize,
    /// The enclosing span (the call's root span), `None` for a root.
    pub parent: Option<usize>,
    /// `layer.phase`, e.g. `sim.monitored`.
    pub name: &'static str,
    /// Design the call worked on.
    pub design: Arc<str>,
    /// Isolation style label of the call.
    pub style: &'static str,
    /// Algorithm 1 iteration (1-based), 0 outside the main loop.
    pub iteration: usize,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Work counters, keyed by metric name.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    design: Arc<str>,
    style: &'static str,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            design: Arc::from(""),
            style: "",
        }
    }

    /// Sets the design and style stamped on spans opened from now on.
    pub fn set_call(&mut self, design: &str, style: &'static str) {
        if &*self.design != design {
            self.design = Arc::from(design);
        }
        self.style = style;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, iteration: usize) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            design: Arc::clone(&self.design),
            style: self.style,
            iteration,
            start_ns,
            end_ns: 0,
            counters: Vec::new(),
        });
        id
    }

    /// Adds `value` to counter `key` of span `id`.
    pub fn count(&mut self, id: usize, key: &'static str, value: u64) {
        let counters = &mut self.spans[id].counters;
        match counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += value,
            None => counters.push((key, value)),
        }
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond times)
    /// of every span; opens in `chrome://tracing` or Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"design\":\"{}\",\
                 \"style\":\"{}\",\"iteration\":{}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                oiso_core::escape_json(&s.design),
                s.style,
                s.iteration,
            );
            for (k, v) in &s.counters {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Totals {
    /// Self time (duration minus the part covered by child spans) summed
    /// per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Wall time of root spans (no parent), summed per name.
    pub root_ns: BTreeMap<&'static str, u64>,
    /// Counters summed per key.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Totals {
    /// Aggregates `spans`. Children of one span never overlap (the replay
    /// is sequential), so a span's self time is its duration minus the
    /// sum of its children's durations.
    pub fn of(spans: &[Span]) -> Totals {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut t = Totals::default();
        for (s, covered) in spans.iter().zip(child_ns) {
            *t.self_ns.entry(s.name).or_default() += s.duration_ns().saturating_sub(covered);
            if s.parent.is_none() {
                *t.root_ns.entry(s.name).or_default() += s.duration_ns();
            }
            for &(k, v) in &s.counters {
                *t.counters.entry(k).or_default() += v;
            }
        }
        t
    }

    /// Self time of spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Counter `key`, 0 when never recorded.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Share of the wall time of the root spans named `root` that their
    /// phases cover: Σ self time of the spans below them / their wall
    /// time, which is 1 − the roots' own self time / their wall time.
    /// Roots of other names (the proofs) do not count.
    pub fn coverage(&self, root: &str) -> f64 {
        match self.root_ns.get(root) {
            Some(&wall) if wall > 0 => {
                1.0 - self.self_ns.get(root).copied().unwrap_or(0) as f64 / wall as f64
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_phases() {
        let mut tr = Tracer::new();
        tr.set_call("d", "AND");
        let root = tr.begin("bench.optimize", None, 0);
        let a = tr.begin("sim.baseline", Some(root), 0);
        tr.count(a, "sim.runs", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(a);
        tr.end(root);
        let t = Totals::of(tr.spans());
        assert_eq!(t.counter("sim.runs"), 1);
        let root_span = &tr.spans()[root];
        let phase = &tr.spans()[a];
        assert_eq!(
            t.self_ns["bench.optimize"],
            root_span.duration_ns() - phase.duration_ns()
        );
        let coverage = t.coverage("bench.optimize");
        assert!(coverage > 0.5 && coverage <= 1.0);
        let json = tr.chrome_json();
        assert!(json.contains("\"name\":\"sim.baseline\"") && json.contains("\"sim.runs\":1"));
    }

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            design: Arc::from("d"),
            style: "AND",
            iteration: 0,
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        }
    }

    #[test]
    fn an_uncovered_gap_lowers_coverage_whatever_the_proof_spans_cover() {
        // An optimize call of 100 ns whose one phase covers 40 ns, then a
        // proof of 300 ns fully covered by its phase.
        let spans = [
            span(0, None, "bench.optimize", 0, 100),
            span(1, Some(0), "sim.baseline", 10, 50),
            span(2, None, "bench.prove", 100, 400),
            span(3, Some(2), "verify.plan", 100, 400),
        ];
        let t = Totals::of(&spans);
        assert!((t.coverage("bench.optimize") - 0.4).abs() < 1e-12);
        assert_eq!(t.coverage("bench.prove"), 1.0);
        assert_eq!(t.coverage("absent"), 0.0);
    }
}
