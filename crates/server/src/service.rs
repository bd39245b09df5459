//! The allocation service: a bounded work queue feeding a worker pool,
//! fronted by the content-addressed result cache.
//!
//! One [`Service`] owns `workers` OS threads. [`Service::call`] is the
//! whole client API: hand it one request line, get one response line back.
//! It never blocks on a full queue (queue-full requests are answered
//! `"status":"overloaded"` immediately) and never waits past the request's
//! deadline (the caller gets `"status":"timeout"` and the queued job is
//! cancelled; a worker that already started it finishes and discards the
//! result, but still populates the cache so a retry hits). Worker panics
//! are confined to the failing request by `catch_unwind` — the worker
//! thread, its scratch arena, and every other request survive.
//!
//! Each worker owns one [`AllocScratch`] arena for its whole lifetime, so
//! steady-state serving does no per-request growth of the allocator's
//! working vectors (the server-shaped version of PR 1's per-module reuse).
//!
//! Every request is observed end to end: [`Service::call_span`] returns the
//! response *plus* a [`PendingSpan`] carrying the request's
//! accept → parse → queue → allocate → serialize timeline, which the
//! connection loop completes with the transport write time via
//! [`Service::finish_span`]. The same instrumentation feeds the
//! [`ServerTelemetry`] registry exposed by the `metrics` op; see
//! [`crate::telemetry`] for the metric inventory and the conservation
//! invariant relating the counters.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lsra_core::{AllocScratch, AllocTimings, PHASE_NAMES};
use lsra_telemetry::SpanRecord;
use lsra_trace::json::JsonWriter;

use crate::cache::{Cache, Key, Outcome};
use crate::protocol::{self, ParsedLine, Request, Source};
use crate::telemetry::{secs_to_ns, ServerTelemetry, SpanLog};

/// Service configuration; every knob has a `lsra serve` flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (0 = available parallelism).
    pub workers: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Bounded queue depth; requests beyond it are answered `overloaded`.
    pub max_queue: usize,
    /// Default per-request deadline, milliseconds (requests may override).
    pub default_timeout_ms: u64,
    /// Requests longer than this many bytes are answered `too_large`
    /// without being parsed.
    pub max_request_bytes: usize,
    /// Stream completed request spans as JSONL to this file.
    pub telemetry_log: Option<String>,
    /// Spans over this many milliseconds additionally capture an annotated
    /// decision trace (requires `telemetry_log`).
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            cache_bytes: 64 << 20,
            max_queue: 256,
            default_timeout_ms: 30_000,
            max_request_bytes: 4 << 20,
            telemetry_log: None,
            slow_ms: None,
        }
    }
}

impl ServeConfig {
    fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// A point-in-time copy of the service counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Request lines received (including rejected ones).
    pub requests: u64,
    /// Successful allocation responses.
    pub ok: u64,
    /// Structured error responses (parse, validation, run faults, panics).
    pub errors: u64,
    /// Requests answered `timeout`.
    pub timeouts: u64,
    /// Requests answered `overloaded`.
    pub overloaded: u64,
    /// Requests answered `too_large`.
    pub too_large: u64,
    /// `stats`/`metrics`/`shutdown` responses answered inline.
    pub inline: u64,
    /// Worker panics confined by `catch_unwind` (each also counts as one
    /// error response).
    pub panics: u64,
    /// Gauge: jobs a worker has dequeued and not yet answered. A job is
    /// in flight from the moment it leaves the queue, so `in_flight > 0`
    /// implies the queue had drained by that amount.
    pub in_flight: u64,
    /// Gauge: jobs waiting in the bounded queue right now.
    pub queue_depth: u64,
    /// Cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Cache lookups that computed.
    pub cache_misses: u64,
    /// Entries resident in the cache.
    pub cache_entries: u64,
    /// Bytes charged against the cache budget.
    pub cache_bytes: u64,
}

impl CountersSnapshot {
    /// Cache hit rate over all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Sum of the terminal response counters. Equals `requests` whenever
    /// the service is quiescent (`in_flight == 0 && queue_depth == 0`) —
    /// the conservation invariant [`crate::telemetry`] documents.
    pub fn accounted(&self) -> u64 {
        self.ok + self.errors + self.timeouts + self.overloaded + self.too_large + self.inline
    }
}

/// Worker-side timings for one executed job, delivered back to the caller
/// alongside the response so the span can carry them.
#[derive(Copy, Clone, Debug, Default)]
struct WorkerTiming {
    queue_ns: u64,
    alloc_ns: u64,
    serialize_ns: u64,
    cache: Option<bool>,
    phases: Option<AllocTimings>,
    ok: bool,
}

/// What `compute` measured alongside the response it produced.
struct ComputeOut {
    resp: String,
    cache_hit: bool,
    phases: Option<AllocTimings>,
    serialize_ns: u64,
}

/// A span awaiting its transport write time. Returned by
/// [`Service::call_span`]; hand it back via [`Service::finish_span`] once
/// the response is on the wire (or with `write_ns = 0` for in-process
/// callers). The request is retained only when the span log may need it
/// for slow-request trace capture.
pub struct PendingSpan {
    record: SpanRecord,
    req: Option<Box<Request>>,
}

impl PendingSpan {
    /// Read-only view of the span record accumulated so far.
    pub fn record(&self) -> &SpanRecord {
        &self.record
    }
}

enum JobState {
    Pending,
    Cancelled,
    Done((String, WorkerTiming)),
}

struct Job {
    req: Request,
    enqueued: Instant,
    state: Mutex<JobState>,
    done: Condvar,
}

struct Inner {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    cache: Mutex<Cache>,
    tel: ServerTelemetry,
    span_log: Option<SpanLog>,
    seq: AtomicU64,
    shutdown: AtomicBool,
}

/// Locks `m`, recovering from poisoning: the service's locks are never held
/// across request computation, so inner state behind a poisoned lock is
/// still consistent and one panicked worker must not wedge the server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whole nanoseconds of a duration (saturating far beyond any real span).
fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// A running allocation service. Dropping it drains the queue and joins
/// the workers.
pub struct Service {
    inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service").field("cfg", &self.inner.cfg).finish()
    }
}

impl Service {
    /// Starts the worker pool. A telemetry log that cannot be created is
    /// reported on stderr and disabled — observability must not stop the
    /// server from serving.
    pub fn start(cfg: ServeConfig) -> Self {
        let workers = cfg.effective_workers().max(1);
        let span_log =
            cfg.telemetry_log.as_ref().and_then(|path| match SpanLog::create(path, cfg.slow_ms) {
                Ok(log) => Some(log),
                Err(e) => {
                    eprintln!("lsra serve: {e}; span logging disabled");
                    None
                }
            });
        let inner = Arc::new(Inner {
            cache: Mutex::new(Cache::new(cfg.cache_bytes)),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            tel: ServerTelemetry::new(),
            span_log,
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("lsra-serve-{i}"))
                    .spawn(move || worker(&inner))
                    .expect("spawning service worker")
            })
            .collect();
        Service { inner, handles: Mutex::new(handles) }
    }

    /// True once a shutdown request was received (or [`Service::shutdown`]
    /// called); queued work still drains, new work is refused.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful drain: lets queued jobs finish, then joins every worker.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        let handles = std::mem::take(&mut *lock(&self.handles));
        for h in handles {
            let _ = h.join();
        }
    }

    /// The live telemetry registry (counters, gauges, histograms).
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.inner.tel
    }

    /// A snapshot of the service counters and cache occupancy.
    pub fn counters(&self) -> CountersSnapshot {
        let t = &self.inner.tel;
        let (entries, bytes) = {
            let cache = lock(&self.inner.cache);
            (cache.len() as u64, cache.bytes() as u64)
        };
        let queue_depth = lock(&self.inner.queue).len() as u64;
        CountersSnapshot {
            requests: t.requests.get(),
            ok: t.ok.get(),
            errors: t.errors.get(),
            timeouts: t.timeouts.get(),
            overloaded: t.overloaded.get(),
            too_large: t.too_large.get(),
            inline: t.inline.get(),
            panics: t.panics.get(),
            in_flight: t.in_flight.get().max(0) as u64,
            queue_depth,
            cache_hits: t.cache_hits.get(),
            cache_misses: t.cache_misses.get(),
            cache_entries: entries,
            cache_bytes: bytes,
        }
    }

    /// Handles one request line, returning one response line.
    ///
    /// Every outcome is a structured JSON response — malformed requests,
    /// oversized requests, full queues, deadlines, and worker panics
    /// included — so a client never kills the conversation by sending one
    /// bad line. Blocks until the response is ready or the request's
    /// deadline passes, never on a full queue.
    pub fn call(&self, line: &str) -> String {
        let (resp, span) = self.call_span(line);
        self.finish_span(span, 0);
        resp
    }

    /// [`Service::call`] with the request's span exposed: returns the
    /// response line plus a [`PendingSpan`] the connection loop completes
    /// (with the measured transport write time) via
    /// [`Service::finish_span`].
    pub fn call_span(&self, line: &str) -> (String, PendingSpan) {
        let start = Instant::now();
        let tel = &self.inner.tel;
        tel.requests.inc();
        let mut record = SpanRecord {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            ..Default::default()
        };
        if line.len() > self.inner.cfg.max_request_bytes {
            tel.too_large.inc();
            record.op = "invalid".to_string();
            let resp = protocol::render_status("", "too_large");
            return self.finish_call(resp, record, "too_large", start, None);
        }
        let parse_start = Instant::now();
        let parsed = protocol::parse_request(line);
        record.parse_ns = ns(parse_start.elapsed());
        tel.parse_ns.record(record.parse_ns);
        let req = match parsed {
            Ok(ParsedLine::Stats { id }) => {
                tel.inline.inc();
                record.id = id.clone();
                record.op = "stats".to_string();
                let resp = self.stats_response(&id);
                return self.finish_call(resp, record, "ok", start, None);
            }
            Ok(ParsedLine::Metrics { id }) => {
                tel.inline.inc();
                record.id = id.clone();
                record.op = "metrics".to_string();
                let resp = self.metrics_response(&id);
                return self.finish_call(resp, record, "ok", start, None);
            }
            Ok(ParsedLine::Shutdown { id }) => {
                tel.inline.inc();
                record.id = id.clone();
                record.op = "shutdown".to_string();
                self.inner.shutdown.store(true, Ordering::SeqCst);
                self.inner.queue_cv.notify_all();
                let mut w = JsonWriter::new();
                w.begin_object();
                w.field_str("id", &id);
                w.field_str("status", "ok");
                w.field_str("op", "shutdown");
                w.end_object();
                return self.finish_call(w.finish(), record, "ok", start, None);
            }
            Ok(ParsedLine::Alloc(req)) => req,
            Ok(ParsedLine::Lint(req)) => {
                // Lint is cheap and cacheless; answer inline (like stats)
                // with the same panic isolation the workers give alloc.
                record.id = req.id.clone();
                record.op = "lint".to_string();
                if self.is_shutting_down() {
                    tel.errors.inc();
                    let resp = protocol::render_error(&req.id, "server is shutting down");
                    return self.finish_call(resp, record, "error", start, None);
                }
                let result = catch_unwind(AssertUnwindSafe(|| protocol::run_lint(&req)));
                let (resp, is_ok) = match result {
                    Ok(Ok(resp)) => (resp, true),
                    Ok(Err(msg)) => (protocol::render_error(&req.id, &msg), false),
                    Err(p) => {
                        tel.panics.inc();
                        let msg = format!("panic: {}", panic_message(p));
                        (protocol::render_error(&req.id, &msg), false)
                    }
                };
                if is_ok {
                    tel.ok.inc();
                } else {
                    tel.errors.inc();
                }
                let status = if is_ok { "ok" } else { "error" };
                return self.finish_call(resp, record, status, start, None);
            }
            Err((id, msg)) => {
                tel.errors.inc();
                record.id = id.clone();
                record.op = "invalid".to_string();
                let resp = protocol::render_error(&id, &msg);
                return self.finish_call(resp, record, "error", start, None);
            }
        };
        record.id = req.id.clone();
        record.op = "alloc".to_string();
        if self.is_shutting_down() {
            tel.errors.inc();
            let resp = protocol::render_error(&req.id, "server is shutting down");
            return self.finish_call(resp, record, "error", start, None);
        }
        // The request is cloned only when a slow-span trace might need to
        // re-run it; the common path moves it into the job.
        let captured = if self.inner.span_log.as_ref().is_some_and(SpanLog::captures_slow) {
            Some(req.clone())
        } else {
            None
        };
        let timeout = req.timeout_ms.unwrap_or(self.inner.cfg.default_timeout_ms);
        let deadline = Instant::now() + Duration::from_millis(timeout);
        let job = Arc::new(Job {
            req: *req,
            enqueued: Instant::now(),
            state: Mutex::new(JobState::Pending),
            done: Condvar::new(),
        });
        {
            let mut q = lock(&self.inner.queue);
            if q.len() >= self.inner.cfg.max_queue {
                tel.overloaded.inc();
                let resp = protocol::render_status(&job.req.id, "overloaded");
                return self.finish_call(resp, record, "overloaded", start, captured);
            }
            q.push_back(Arc::clone(&job));
        }
        self.inner.queue_cv.notify_one();
        let mut st = lock(&job.state);
        loop {
            if matches!(*st, JobState::Done(_)) {
                // The caller is the job's only reader: move the response out
                // rather than copy it.
                let JobState::Done((resp, wt)) = std::mem::replace(&mut *st, JobState::Pending)
                else {
                    unreachable!("checked above")
                };
                record.queue_ns = wt.queue_ns;
                record.alloc_ns = wt.alloc_ns;
                record.serialize_ns = wt.serialize_ns;
                record.cache = wt.cache;
                if let Some(t) = wt.phases {
                    record.phases = PHASE_NAMES
                        .iter()
                        .zip(t.seconds)
                        .map(|(name, secs)| (*name, secs_to_ns(secs)))
                        .collect();
                }
                let status = if wt.ok { "ok" } else { "error" };
                drop(st);
                return self.finish_call(resp, record, status, start, captured);
            }
            let now = Instant::now();
            if now >= deadline {
                *st = JobState::Cancelled;
                tel.timeouts.inc();
                let resp = protocol::render_status(&job.req.id, "timeout");
                drop(st);
                return self.finish_call(resp, record, "timeout", start, captured);
            }
            let (guard, _) =
                job.done.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Completes a span: records the transport write time and streams the
    /// span to the telemetry log, if one is configured.
    pub fn finish_span(&self, pending: PendingSpan, write_ns: u64) {
        let PendingSpan { mut record, req } = pending;
        record.write_ns = write_ns;
        if write_ns > 0 {
            self.inner.tel.write_ns.record(write_ns);
        }
        if let Some(log) = &self.inner.span_log {
            log.write(record, req.as_deref());
        }
    }

    /// Seals a span record (status, total, latency histogram) and pairs it
    /// with the response.
    fn finish_call(
        &self,
        resp: String,
        mut record: SpanRecord,
        status: &str,
        start: Instant,
        req: Option<Box<Request>>,
    ) -> (String, PendingSpan) {
        record.status = status.to_string();
        record.total_ns = ns(start.elapsed());
        // Alloc latency and everything else live in separate histograms so
        // monitoring polls (stats/metrics) never skew the serving numbers.
        if record.op == "alloc" {
            self.inner.tel.request_ns.record(record.total_ns);
        } else {
            self.inner.tel.inline_ns.record(record.total_ns);
        }
        (resp, PendingSpan { record, req })
    }

    fn stats_response(&self, id: &str) -> String {
        let s = self.counters();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("id", id);
        w.field_str("status", "ok");
        w.field_str("op", "stats");
        w.field_uint("requests", s.requests);
        w.field_uint("ok", s.ok);
        w.field_uint("errors", s.errors);
        w.field_uint("timeouts", s.timeouts);
        w.field_uint("overloaded", s.overloaded);
        w.field_uint("too_large", s.too_large);
        w.field_uint("inline", s.inline);
        w.field_uint("panics", s.panics);
        w.field_uint("in_flight", s.in_flight);
        w.field_uint("queue_depth", s.queue_depth);
        w.field_uint("cache_hits", s.cache_hits);
        w.field_uint("cache_misses", s.cache_misses);
        w.field_uint("cache_entries", s.cache_entries);
        w.field_uint("cache_bytes", s.cache_bytes);
        w.end_object();
        w.finish()
    }

    /// Renders the `metrics` response: the full registry in both exposition
    /// formats. The lazily-maintained gauges are synced first so the
    /// exposition matches what `stats` would report.
    fn metrics_response(&self, id: &str) -> String {
        self.sync_gauges();
        let text = self.inner.tel.render_prometheus();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("id", id);
        w.field_str("status", "ok");
        w.field_str("op", "metrics");
        w.field_str("prometheus", &text);
        w.key("json");
        self.inner.tel.write_json(&mut w);
        w.end_object();
        w.finish()
    }

    /// Copies the queue/cache occupancy into their registry gauges.
    /// `in_flight` is maintained live by the workers and needs no sync.
    fn sync_gauges(&self) {
        let t = &self.inner.tel;
        t.queue_depth.set(lock(&self.inner.queue).len() as i64);
        let (entries, bytes) = {
            let cache = lock(&self.inner.cache);
            (cache.len() as i64, cache.bytes() as i64)
        };
        t.cache_entries.set(entries);
        t.cache_bytes.set(bytes);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker: dequeue, compute (through the cache), publish. Lives until
/// shutdown *and* an empty queue, so accepted work drains on shutdown.
fn worker(inner: &Inner) {
    let mut scratch = AllocScratch::default();
    loop {
        let (job, queue_ns) = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    // Counted while the queue lock is still held, so an
                    // observer never sees the job in neither place.
                    inner.tel.in_flight.inc();
                    let wait = ns(j.enqueued.elapsed());
                    break (j, wait);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = inner.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let result = if matches!(*lock(&job.state), JobState::Cancelled) {
            None
        } else {
            Some(handle(inner, &job.req, &mut scratch))
        };
        // Decremented before the response is published: once a caller has
        // its answer, the gauge no longer counts that job.
        inner.tel.in_flight.dec();
        if let Some((response, mut wt)) = result {
            wt.queue_ns = queue_ns;
            // Stage histograms describe work the server actually did, so
            // they are recorded even when the caller has timed out.
            inner.tel.queue_ns.record(wt.queue_ns);
            inner.tel.alloc_ns.record(wt.alloc_ns);
            inner.tel.serialize_ns.record(wt.serialize_ns);
            if let Some(t) = &wt.phases {
                inner.tel.record_phases(t);
            }
            let mut st = lock(&job.state);
            if !matches!(*st, JobState::Cancelled) {
                if wt.ok {
                    inner.tel.ok.inc();
                } else {
                    inner.tel.errors.inc();
                }
                *st = JobState::Done((response, wt));
                job.done.notify_all();
            }
        }
    }
}

/// Computes one response, isolating panics to this request. Returns the
/// response line and the worker-side timing breakdown (`queue_ns` is
/// filled in by the worker loop).
fn handle(inner: &Inner, req: &Request, scratch: &mut AllocScratch) -> (String, WorkerTiming) {
    let start = Instant::now();
    if req.inject_sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(req.inject_sleep_ms));
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        if req.inject_panic {
            panic!("injected panic (inject_panic)");
        }
        compute(inner, req, scratch)
    }));
    match result {
        Ok(Ok(out)) => {
            let alloc_ns = ns(start.elapsed()).saturating_sub(out.serialize_ns);
            let wt = WorkerTiming {
                queue_ns: 0,
                alloc_ns,
                serialize_ns: out.serialize_ns,
                cache: Some(out.cache_hit),
                phases: out.phases,
                ok: true,
            };
            (out.resp, wt)
        }
        Ok(Err(msg)) => error_response(req, start, &msg),
        Err(p) => {
            inner.tel.panics.inc();
            error_response(req, start, &format!("panic: {}", panic_message(p)))
        }
    }
}

/// Renders an error response with its timing breakdown.
fn error_response(req: &Request, start: Instant, msg: &str) -> (String, WorkerTiming) {
    let render = Instant::now();
    let resp = protocol::render_error(&req.id, msg);
    let serialize_ns = ns(render.elapsed());
    let wt = WorkerTiming {
        queue_ns: 0,
        alloc_ns: ns(start.elapsed()).saturating_sub(serialize_ns),
        serialize_ns,
        cache: None,
        phases: None,
        ok: false,
    };
    (resp, wt)
}

/// The cache-fronted execution path. Locks are held only around the cache
/// probes and insert, never across allocation.
///
/// The first probe uses the request as received ([`protocol::probe_key`]),
/// so a hit on a workload name or on canonical program text never touches
/// the IR. Only when it misses is the program materialised; an inline
/// program whose text was not canonical then probes again under its
/// canonical key, so differently formatted copies share one entry.
fn compute(inner: &Inner, req: &Request, scratch: &mut AllocScratch) -> Result<ComputeOut, String> {
    let probe = Key::new(protocol::probe_key(req));
    if let Some(hit) = lock(&inner.cache).get_key(&probe) {
        return Ok(served_hit(inner, req, &hit));
    }
    let (module, input, canonical) = match protocol::materialize(req) {
        Ok(x) => x,
        Err(e) => {
            lock(&inner.cache).note_miss();
            inner.tel.cache_misses.inc();
            return Err(e);
        }
    };
    let key = match &req.source {
        Source::Program(text) if *text != canonical => {
            let key = Key::new(protocol::cache_key(req, &canonical));
            if let Some(hit) = lock(&inner.cache).get_key(&key) {
                return Ok(served_hit(inner, req, &hit));
            }
            key
        }
        _ => probe,
    };
    match protocol::run_allocation(module, &input, req, scratch) {
        Ok((outcome, timings)) => {
            let render = Instant::now();
            let resp = protocol::render_ok(&req.id, &outcome, req.emit_module);
            let serialize_ns = ns(render.elapsed());
            lock(&inner.cache).insert_key(key, outcome);
            inner.tel.cache_misses.inc();
            Ok(ComputeOut { resp, cache_hit: false, phases: timings, serialize_ns })
        }
        Err(e) => {
            lock(&inner.cache).note_miss();
            inner.tel.cache_misses.inc();
            Err(e)
        }
    }
}

/// Counts a cache hit and renders its response.
fn served_hit(inner: &Inner, req: &Request, outcome: &Outcome) -> ComputeOut {
    inner.tel.cache_hits.inc();
    let render = Instant::now();
    let resp = protocol::render_ok(&req.id, outcome, req.emit_module);
    ComputeOut { resp, cache_hit: true, phases: None, serialize_ns: ns(render.elapsed()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_service(workers: usize) -> Service {
        Service::start(ServeConfig {
            workers,
            cache_bytes: 1 << 20,
            max_queue: 8,
            default_timeout_ms: 10_000,
            max_request_bytes: 1 << 16,
            telemetry_log: None,
            slow_ms: None,
        })
    }

    #[test]
    fn serves_and_caches_a_workload_request() {
        let s = small_service(2);
        let line = r#"{"id": "a", "workload": "wc", "emit_module": true}"#;
        let first = s.call(line);
        let second = s.call(line);
        assert_eq!(first, second, "cache hit must be byte-identical");
        let snap = s.counters();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.ok, 2);
    }

    #[test]
    fn lint_op_is_answered_inline() {
        let s = small_service(1);
        let resp = s.call(r#"{"id": "l", "op": "lint", "workload": "wc"}"#);
        assert!(resp.contains("\"op\": \"lint\""), "{resp}");
        assert!(resp.contains("\"status\": \"ok\""), "{resp}");
        let snap = s.counters();
        assert_eq!(snap.ok, 1);
        assert_eq!(snap.cache_misses, 0, "lint responses are not cached");
        let err = s.call(r#"{"id": "e", "op": "lint", "program": "not a module"}"#);
        assert!(err.contains("\"status\": \"error\""), "{err}");
        assert!(err.contains("program:"), "{err}");
    }

    #[test]
    fn stats_and_shutdown_ops() {
        let s = small_service(1);
        let stats = s.call(r#"{"id": "s", "op": "stats"}"#);
        assert!(stats.contains("\"op\": \"stats\""), "{stats}");
        let bye = s.call(r#"{"id": "q", "op": "shutdown"}"#);
        assert!(bye.contains("\"op\": \"shutdown\""), "{bye}");
        assert!(s.is_shutting_down());
        let refused = s.call(r#"{"id": "late", "workload": "wc"}"#);
        assert!(refused.contains("shutting down"), "{refused}");
        s.shutdown();
    }

    #[test]
    fn spans_and_conservation_over_mixed_ops() {
        let s = small_service(2);
        let (resp, span) = s.call_span(r#"{"id": "a1", "workload": "wc"}"#);
        assert!(resp.contains("\"status\": \"ok\""), "{resp}");
        let r = span.record();
        assert_eq!(r.op, "alloc");
        assert_eq!(r.cache, Some(false));
        assert!(!r.phases.is_empty(), "binpack cache miss must carry phase timings");
        assert!(r.total_ns > 0);
        s.finish_span(span, 123);
        let (_, span) = s.call_span(r#"{"id": "a1", "workload": "wc"}"#);
        assert_eq!(span.record().cache, Some(true), "second call is a cache hit");
        assert!(span.record().phases.is_empty(), "cache hits do not re-time phases");
        s.finish_span(span, 0);
        s.call(r#"{"id": "s", "op": "stats"}"#);
        s.call(r#"{"id": "m", "op": "metrics"}"#);
        s.call("not json at all");
        let snap = s.counters();
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(
            snap.requests,
            snap.accounted(),
            "conservation must hold at quiescence: {snap:?}"
        );
        assert_eq!(snap.inline, 2);
        assert_eq!(snap.errors, 1);
    }

    #[test]
    fn oversized_vm_runs_are_answered_with_an_error() {
        let s = small_service(1);
        let body = r"entry @0\nfunc @main() {\n  temps t0:i\nb0:\n  t0 = 1\n  ret\n}\n";
        let line = format!(
            r#"{{"id": "big", "program": "module m (4000000000 words data)\n{body}", "run": true}}"#
        );
        let resp = s.call(&line);
        assert!(resp.contains("\"status\": \"error\""), "{resp}");
        assert!(resp.contains("4000000000 words of data memory exceed"), "{resp}");
        let snap = s.counters();
        assert_eq!((snap.errors, snap.panics, snap.ok), (1, 0, 0), "{snap:?}");
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.requests, snap.accounted(), "conservation at quiescence: {snap:?}");
    }

    #[test]
    fn metrics_op_exposes_both_formats() {
        let s = small_service(1);
        s.call(r#"{"id": "a", "workload": "wc"}"#);
        let resp = s.call(r#"{"id": "m", "op": "metrics"}"#);
        assert!(resp.contains("\"op\": \"metrics\""), "{resp}");
        assert!(resp.contains("lsra_requests_total"), "{resp}");
        assert!(resp.contains("\"json\": "), "{resp}");
        lsra_trace::json::validate(&resp).unwrap();
    }
}
