//! The service's telemetry surface: every counter, gauge, and histogram the
//! server maintains, plus the `--telemetry-log` span stream.
//!
//! [`ServerTelemetry`] owns one `lsra_telemetry::Registry` and a handle to
//! each registered metric. The hot paths in [`crate::service`] update the
//! handles directly (sharded counters, relaxed histogram records); the
//! `metrics` protocol op renders the registry in both exposition formats.
//!
//! The conservation invariant the whole layout is designed around:
//!
//! ```text
//! requests == ok + errors + timeouts + overloaded + too_large + inline
//! ```
//!
//! holds whenever the service is quiescent (`in_flight == 0` and
//! `queue_depth == 0`) — every accepted request line ends in exactly one of
//! the six terminal counters. `inline` covers `stats`/`metrics`/`shutdown`
//! responses, which consume a request without being allocations; `panics`
//! is supplementary (each confined panic also produces one `error`
//! response). Mid-flight the books are transiently open, which is why the
//! load generator quiesces through a drain barrier before asserting.
//!
//! [`SpanLog`] streams completed [`SpanRecord`]s as JSONL. When a slow
//! threshold is configured, any span over it additionally captures an
//! annotated decision trace by re-running the allocation through the traced
//! path — the production response already shipped; the re-run only feeds
//! the log.

use std::fs::File;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

use lsra_telemetry::{Counter, Gauge, Histogram, Registry, SpanRecord, Unit};
use lsra_trace::json::JsonWriter;
use lsra_trace::{annotate, RecordSink};

use crate::protocol::{self, Request};

/// Histogram metric names per allocation phase, index-aligned with
/// [`PHASE_NAMES`] (drift-guarded by a test below).
const PHASE_METRIC_NAMES: [&str; 6] = [
    "lsra_phase_order",
    "lsra_phase_liveness",
    "lsra_phase_lifetimes",
    "lsra_phase_scan",
    "lsra_phase_resolve",
    "lsra_phase_consistency",
];

/// Every metric the service maintains. See the module docs for the
/// conservation invariant over the counters.
pub struct ServerTelemetry {
    registry: Registry,
    /// Request lines received, including rejected ones.
    pub requests: Arc<Counter>,
    /// Successful `alloc`/`lint` responses.
    pub ok: Arc<Counter>,
    /// Structured error responses (parse, validation, run faults, panics).
    pub errors: Arc<Counter>,
    /// Requests answered `timeout`.
    pub timeouts: Arc<Counter>,
    /// Requests answered `overloaded`.
    pub overloaded: Arc<Counter>,
    /// Requests answered `too_large`.
    pub too_large: Arc<Counter>,
    /// `stats`/`metrics`/`shutdown` responses: requests that terminate
    /// inline without being allocations.
    pub inline: Arc<Counter>,
    /// Worker panics confined by `catch_unwind`.
    pub panics: Arc<Counter>,
    /// Cache lookups answered from the cache.
    pub cache_hits: Arc<Counter>,
    /// Cache lookups that computed (or failed before caching).
    pub cache_misses: Arc<Counter>,
    /// Jobs a worker has dequeued and not yet answered.
    pub in_flight: Arc<Gauge>,
    /// Jobs waiting in the bounded queue (synced at exposition time).
    pub queue_depth: Arc<Gauge>,
    /// Entries resident in the cache (synced at exposition time).
    pub cache_entries: Arc<Gauge>,
    /// Bytes charged against the cache budget (synced at exposition time).
    pub cache_bytes: Arc<Gauge>,
    /// Total `alloc`-op latency, accept → response handoff, every status.
    pub request_ns: Arc<Histogram>,
    /// Total latency of inline ops (`stats`, `metrics`, `lint`, …) — kept
    /// out of `request_ns` so monitoring polls don't skew alloc latency.
    pub inline_ns: Arc<Histogram>,
    /// Envelope JSON parse time.
    pub parse_ns: Arc<Histogram>,
    /// Queue wait, enqueue → worker dequeue (executed jobs only).
    pub queue_ns: Arc<Histogram>,
    /// Worker allocation time: materialize + cache probe + allocate.
    pub alloc_ns: Arc<Histogram>,
    /// Response rendering time in the worker.
    pub serialize_ns: Arc<Histogram>,
    /// Transport write time (TCP/stdio connections only).
    pub write_ns: Arc<Histogram>,
    /// Per-phase allocation breakdown, index-aligned with
    /// [`PHASE_NAMES`](lsra_core::PHASE_NAMES) (recorded only when the allocator timed its phases).
    pub phase_ns: Vec<Arc<Histogram>>,
}

impl Default for ServerTelemetry {
    fn default() -> Self {
        ServerTelemetry::new()
    }
}

impl ServerTelemetry {
    /// Builds the registry and registers every metric, in exposition order.
    pub fn new() -> Self {
        let mut r = Registry::new();
        let requests = r.counter("lsra_requests_total", "request lines received");
        let ok = r.counter("lsra_responses_ok_total", "successful alloc/lint responses");
        let errors = r.counter("lsra_responses_error_total", "structured error responses");
        let timeouts = r.counter("lsra_responses_timeout_total", "requests answered timeout");
        let overloaded =
            r.counter("lsra_responses_overloaded_total", "requests answered overloaded");
        let too_large = r.counter("lsra_responses_too_large_total", "requests answered too_large");
        let inline = r.counter(
            "lsra_responses_inline_total",
            "stats/metrics/shutdown responses answered inline",
        );
        let panics = r.counter("lsra_worker_panics_total", "worker panics confined per-request");
        let cache_hits = r.counter("lsra_cache_hits_total", "cache lookups answered from cache");
        let cache_misses = r.counter("lsra_cache_misses_total", "cache lookups that computed");
        let in_flight = r.gauge("lsra_in_flight", "jobs dequeued and not yet answered");
        let queue_depth = r.gauge("lsra_queue_depth", "jobs waiting in the bounded queue");
        let cache_entries = r.gauge("lsra_cache_entries", "entries resident in the cache");
        let cache_bytes = r.gauge("lsra_cache_bytes", "bytes charged against the cache budget");
        let ns = Unit::Nanoseconds;
        let request_ns =
            r.histogram("lsra_request", "alloc request latency, accept to response", ns);
        let inline_ns = r.histogram("lsra_inline", "inline op latency (stats/metrics/lint)", ns);
        let parse_ns = r.histogram("lsra_parse", "request envelope parse time", ns);
        let queue_ns = r.histogram("lsra_queue_wait", "queue wait before a worker dequeued", ns);
        let alloc_ns =
            r.histogram("lsra_alloc", "worker allocation time (materialize+probe+allocate)", ns);
        let serialize_ns = r.histogram("lsra_serialize", "response rendering time", ns);
        let write_ns = r.histogram("lsra_write", "transport write time", ns);
        let phase_ns = PHASE_METRIC_NAMES
            .iter()
            .map(|name| r.histogram(name, "allocation phase wall-clock", ns))
            .collect();
        ServerTelemetry {
            registry: r,
            requests,
            ok,
            errors,
            timeouts,
            overloaded,
            too_large,
            inline,
            panics,
            cache_hits,
            cache_misses,
            in_flight,
            queue_depth,
            cache_entries,
            cache_bytes,
            request_ns,
            inline_ns,
            parse_ns,
            queue_ns,
            alloc_ns,
            serialize_ns,
            write_ns,
            phase_ns,
        }
    }

    /// The Prometheus text exposition of every metric.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The structured JSON exposition (exact nanoseconds, sparse buckets).
    pub fn write_json(&self, w: &mut JsonWriter) {
        self.registry.write_json(w);
    }

    /// Records a per-phase timing breakdown (seconds, as the allocator
    /// reports them) into the phase histograms.
    pub fn record_phases(&self, timings: &lsra_core::AllocTimings) {
        for (h, secs) in self.phase_ns.iter().zip(timings.seconds) {
            h.record(secs_to_ns(secs));
        }
    }
}

/// Seconds → whole nanoseconds, saturating (phase clocks are far below the
/// ~584-year overflow point; the clamp is for NaN/negative hygiene).
pub fn secs_to_ns(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e9) as u64
    } else {
        0
    }
}

/// The `--telemetry-log` JSONL stream of completed spans.
pub struct SpanLog {
    file: Mutex<File>,
    /// Spans with `total_ns` above this capture an annotated decision
    /// trace; `None` disables capture.
    slow_ns: Option<u64>,
}

impl SpanLog {
    /// Creates (truncating) the log file.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be created.
    pub fn create(path: &str, slow_ms: Option<u64>) -> Result<SpanLog, String> {
        let file = File::create(path).map_err(|e| format!("creating telemetry log {path}: {e}"))?;
        Ok(SpanLog {
            file: Mutex::new(file),
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
        })
    }

    /// True when slow-request trace capture is configured (the service only
    /// clones the request for spans that might need it).
    pub fn captures_slow(&self) -> bool {
        self.slow_ns.is_some()
    }

    /// Appends one span as a JSONL line, capturing a decision trace first
    /// when the span is over the slow threshold and its request is
    /// available.
    pub fn write(&self, mut record: SpanRecord, req: Option<&Request>) {
        if let (Some(slow), Some(req)) = (self.slow_ns, req) {
            if record.total_ns > slow {
                record.trace = Some(slow_trace(req));
            }
        }
        let line = record.render_jsonl();
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // A full disk must not take the serving path down; the span is
        // simply lost.
        let _ = f.write_all(line.as_bytes()).and_then(|()| f.write_all(b"\n"));
        let _ = f.flush();
    }
}

/// Re-runs `req`'s allocation through the traced path and renders the
/// annotated decision trace (the allocated IR with decisions interleaved,
/// before identity-move removal). Allocators without an instrumented path
/// get a note instead of a trace.
pub fn slow_trace(req: &Request) -> String {
    let (mut m, _input, _canonical) = match protocol::materialize(req) {
        Ok(x) => x,
        Err(e) => return format!("trace unavailable: {e}"),
    };
    let spec = &req.machine;
    let mut sink = RecordSink::default();
    // The request parsed, so the name is registered.
    let traced = protocol::allocator_by_name(&req.allocator, 1, false)
        .and_then(|a| a.allocate_module_traced(&mut m, spec, &mut sink));
    if traced.is_none() {
        return format!("trace unavailable: {}", protocol::untraced_allocator(&req.allocator));
    }
    annotate(&m, &sink.events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_core::PHASE_NAMES;

    #[test]
    fn phase_metric_names_track_phase_names() {
        assert_eq!(PHASE_METRIC_NAMES.len(), PHASE_NAMES.len());
        for (metric, phase) in PHASE_METRIC_NAMES.iter().zip(PHASE_NAMES) {
            assert_eq!(metric.strip_prefix("lsra_phase_"), Some(phase), "{metric}");
        }
    }

    #[test]
    fn expositions_are_well_formed() {
        let tel = ServerTelemetry::new();
        tel.requests.inc();
        tel.request_ns.record(1_000_000);
        tel.record_phases(&lsra_core::AllocTimings { seconds: [1e-6; 6] });
        let text = tel.render_prometheus();
        assert!(text.contains("# TYPE lsra_requests_total counter"));
        assert!(text.contains("# TYPE lsra_request_seconds histogram"));
        assert!(text.contains("# TYPE lsra_phase_scan_seconds histogram"));
        let mut w = JsonWriter::new();
        tel.write_json(&mut w);
        lsra_trace::json::validate(&w.finish()).unwrap();
    }

    #[test]
    fn secs_to_ns_is_defensive() {
        assert_eq!(secs_to_ns(1.5e-3), 1_500_000);
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(-1.0), 0);
        assert_eq!(secs_to_ns(f64::NAN), 0);
    }

    #[test]
    fn slow_trace_annotates_binpack_and_notes_uninstrumented() {
        let line = r#"{"id": "t", "workload": "wc"}"#;
        let crate::protocol::ParsedLine::Alloc(req) = protocol::parse_request(line).unwrap() else {
            panic!("not alloc")
        };
        let trace = slow_trace(&req);
        assert!(trace.contains("annotated decision trace"), "{trace}");
        let mut poletto = (*req).clone();
        poletto.allocator = "poletto".to_string();
        assert!(slow_trace(&poletto).contains("no instrumented path"));
    }
}
