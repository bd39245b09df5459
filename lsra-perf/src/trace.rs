//! In-memory spans around the calls into each layer, written out as a
//! Chrome trace-event file when the run ends.
//!
//! A span records its name, start, end, the span that was open when it
//! began (its parent) and the request or item it belongs to. A layer's self
//! time is its spans' durations minus the parts covered by their children.

use std::collections::BTreeMap;
use std::time::Instant;

use lsra_trace::json::JsonWriter;

/// One closed span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Records nested spans when on; when off, [`Tracer::span`] only runs its
/// closure, so the same code serves the traced and the untraced pass.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), req: 0 }
    }

    /// Tags the spans that follow with request or item `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req: self.req });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Sum of all self times in milliseconds: the wall time the spans
    /// account for.
    pub fn covered_ms(&self) -> f64 {
        self.self_ns().iter().sum::<u64>() as f64 / 1e6
    }

    /// The spans as a Chrome trace-event document (complete `X` events,
    /// microsecond times).
    pub fn chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.field_str("name", s.name);
            w.field_str("cat", "lsra-perf");
            w.field_str("ph", "X");
            w.field_float("ts", s.start_ns as f64 / 1e3);
            w.field_float("dur", (s.end_ns - s.start_ns) as f64 / 1e3);
            w.field_uint("pid", 1);
            w.field_uint("tid", 1);
            w.key("args");
            w.begin_object();
            w.field_uint("span", i as u64);
            w.key("parent");
            match s.parent {
                Some(p) => w.uint(p as u64),
                None => w.null(),
            }
            w.field_uint("req", s.req);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.field_str("displayTimeUnit", "ms");
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_covers_the_root() {
        let mut t = Tracer::new(true);
        t.set_request(3);
        t.span("outer", |t| {
            spin(2);
            t.span("inner", |_| spin(4));
        });
        let own = t.self_ms();
        assert!(own["inner"] >= 4.0 && own["outer"] >= 2.0 && own["outer"] < 4.0, "{own:?}");
        let root = t.spans[0].end_ns - t.spans[0].start_ns;
        assert!((t.covered_ms() - root as f64 / 1e6).abs() < 1e-6);
        let doc = t.chrome_json();
        lsra_trace::json::validate(&doc).unwrap();
        assert!(doc.contains(r#""parent": 0, "req": 3"#), "{doc}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.self_ms().is_empty());
        assert_eq!(t.covered_ms(), 0.0);
    }
}
