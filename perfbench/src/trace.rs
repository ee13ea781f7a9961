//! Host-time spans recorded from the benchmark's own code around each call
//! into a layer. Spans live in memory and are written out when the traced
//! pass ends; a disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Units of work the span did (particles, bytes, calls, …).
    units: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    job: u64,
    open: Vec<usize>,
    spans: Vec<SpanRec>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Tag the spans opened from now on with job id `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(SpanRec {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            units: 0.0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `span`, which did `units` of work. Spans close innermost first.
    pub fn end(&mut self, span: SpanId, units: f64) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let end_ns = self.ns(Instant::now());
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.units = units;
    }

    /// Record a closed span timed elsewhere (inside a rank thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, units: f64) {
        if !self.on {
            return;
        }
        let rec = SpanRec {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            units,
        };
        self.spans.push(rec);
    }

    /// Set a count measured at a layer boundary.
    pub fn count(&mut self, name: &str, value: f64) {
        if self.on {
            self.counts.insert(name.to_string(), value);
        }
    }

    pub fn counts(&self) -> &BTreeMap<String, f64> {
        &self.counts
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one parent never overlap: they run in sequence).
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per-span self nanoseconds per unit of work for spans named `name`.
    pub fn ns_per_unit(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name && s.units > 0.0)
            .map(|(s, ns)| ns as f64 / s.units)
            .collect()
    }

    /// Durations in seconds of spans named `name` (children included).
    pub fn total_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The recording as JSON: every span with its parent, job and self
    /// time, then the counts.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut s = String::from("{\"spans\": [\n");
        for (i, (sp, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"units\": {}}}{sep}",
                sp.name, sp.job, sp.start_ns, sp.end_ns, sp.units
            );
        }
        s.push_str("],\n\"counts\": {");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}\"{k}\": {v}");
        }
        s.push_str("}}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(child, 10.0);
        t.end(root, 1.0);
        let child_s = t.total_secs("child")[0];
        let root_self_ns = t.ns_per_unit("root")[0];
        let root_total = t.total_secs("root")[0];
        assert!(child_s >= 0.005);
        assert!((root_total - child_s - root_self_ns * 1e-9).abs() < 1e-9);
        assert!(
            t.ns_per_unit("child")[0] >= 5e5,
            "10 units in at least 5 ms"
        );

        let mut off = Tracer::new(false);
        let s = off.begin("x");
        off.end(s, 1.0);
        off.count("c", 1.0);
        assert!(off.total_secs("x").is_empty() && off.counts().is_empty());
    }
}
