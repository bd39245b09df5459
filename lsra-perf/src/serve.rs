//! The serve workload: `serve`.
//!
//! An in-process `Service` with one worker is driven by one closed-loop
//! client: it sends its next request only after the previous reply, as a
//! compiler waiting on the service would. The requests are the mix `lsra
//! loadgen` sends: a SPEC-like workload program made distinct by an added
//! tag function, on the `alpha` machine, with `emit_module` on. Pool entry
//! `i` takes workload `i mod 11` and allocator `i mod 5`. The first
//! [`HOT`] entries are the hot set and draw [`HOT_PERCENT`] % of the
//! requests; the rest form a cold tail drawn uniformly. The cache holds the
//! hot set plus a quarter of the tail, so hot requests hit and cold ones
//! mostly miss, insert and evict. Every reply is compared byte for byte with
//! `protocol::expected_response_line`, computed during set-up, and one reply
//! per distinct workload/allocator pair is run on the VM against the
//! unallocated program.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use lsra_core::{AllocScratch, AllocStats};
use lsra_ir::{FunctionBuilder, MachineSpec, Module};
use lsra_perf::host::HostSpeed;
use lsra_server::json_in::{self, JsonValue};
use lsra_server::protocol::{self, ParsedLine};
use lsra_server::{Cache, Outcome, ServeConfig, Service};
use lsra_trace::json::JsonWriter;
use lsra_vm::{RunResult, Vm, VmOptions};
use lsra_workloads::{Lcg, Workload};

use crate::check::Tally;
use crate::compile::code_bytes;
use crate::names::ALLOCATORS;
use crate::stats;
use crate::trace::Tracer;
use crate::{add, note_latencies, set_alloc_throughput, set_setup, timed_setup, Opts, Report};

/// Hot entries and cold entries of the pool.
const HOT: usize = 16;
const COLD: usize = 64;

/// Share of the requests that go to the hot set, in percent.
const HOT_PERCENT: u64 = 80;

/// One distinct request of the pool.
struct Entry {
    line: String,
    program: String,
    expected: String,
    /// Index into `lsra_workloads::all()`.
    workload: usize,
    /// Index into [`ALLOCATORS`].
    alloc: usize,
    /// Static instructions of the program.
    insts: usize,
    /// Spill instructions the expected reply reports.
    spill_insts: u64,
}

/// The distinct requests the workload draws from: `hot` entries, then the
/// cold tail.
struct Pool {
    entries: Vec<Entry>,
    hot: usize,
    /// Cache budget of the service under test.
    budget: usize,
}

impl Pool {
    /// Draws the next request: a hot entry with [`HOT_PERCENT`] % chance,
    /// otherwise a cold one, each uniformly.
    fn draw(&self, rng: &mut Lcg) -> usize {
        let cold = (self.entries.len() - self.hot) as u64;
        if rng.below(100) < HOT_PERCENT {
            rng.below(self.hot as u64) as usize
        } else {
            self.hot + rng.below(cold) as usize
        }
    }
}

/// A workload's program plus a tag function, as `lsra loadgen` builds its
/// requests: the same allocation problem under a distinct cache key.
fn unique_program(w: &Workload, spec: &MachineSpec, tag: usize) -> Module {
    let mut m = (w.build)();
    let mut b = FunctionBuilder::new(spec, format!("uniq_{tag}"), &[]);
    let t = b.int_temp("t");
    b.movi(t, tag as i64);
    b.ret(Some(t.into()));
    m.add_func(b.finish());
    m
}

fn request_line(id: usize, program: &str, allocator: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", &format!("r{id}"));
    w.field_str("program", program);
    w.field_str("allocator", allocator);
    w.field_str("machine", "alpha");
    w.key("emit_module");
    w.bool(true);
    w.end_object();
    w.finish()
}

fn reply_field<'a>(reply: &'a JsonValue, path: &[&str]) -> Result<&'a JsonValue, String> {
    path.iter()
        .try_fold(reply, |v, k| v.get(k))
        .ok_or_else(|| format!("expected reply lacks {}", path.join(".")))
}

fn pool(hot: usize, cold: usize) -> Result<Pool, String> {
    let spec = MachineSpec::alpha_like();
    let workloads = lsra_workloads::all();
    // Sizes the pool's cache footprint with the service's own accounting.
    let mut sizer = Cache::new(usize::MAX);
    let mut hot_bytes = 0;
    let mut entries = Vec::with_capacity(hot + cold);
    for i in 0..hot + cold {
        if i == hot {
            hot_bytes = sizer.bytes();
        }
        let (workload, alloc) = (i % workloads.len(), i % ALLOCATORS.len());
        let module = unique_program(&workloads[workload], &spec, i);
        let program = format!("{module}");
        let line = request_line(i, &program, ALLOCATORS[alloc]);
        let Ok(ParsedLine::Alloc(req)) = protocol::parse_request(&line) else {
            return Err(format!("pool request {i} is not an allocation request"));
        };
        let expected = protocol::expected_response_line(&req);
        let reply = json_in::parse(&expected).map_err(|e| format!("expected reply {i}: {e}"))?;
        if reply.get("status").and_then(JsonValue::as_str) != Some("ok") {
            return Err(format!("pool request {i} fails: {expected}"));
        }
        let spill_insts = reply_field(&reply, &["stats", "inserted"])?
            .as_u64()
            .ok_or("stats.inserted is not a count")?;
        let module_text = reply_field(&reply, &["module"])?.as_str().unwrap_or_default();
        let (_, _, canonical) = protocol::materialize(&req)?;
        let outcome = Outcome {
            stats: AllocStats::default(),
            dyn_counts: None,
            module_text: module_text.to_string(),
        };
        sizer.insert(protocol::cache_key(&req, &canonical), outcome);
        entries.push(Entry {
            line,
            program,
            expected,
            workload,
            alloc,
            insts: module.num_insts(),
            spill_insts,
        });
    }
    let budget = hot_bytes + (sizer.bytes() - hot_bytes) / 4;
    Ok(Pool { entries, hot, budget })
}

/// The requests that warm a cache before timing: the hot set once, then as
/// many draws from the cold tail as it has entries, which leaves the cache
/// in its steady state.
fn warm_sequence(pool: &Pool, seed: u64) -> Vec<usize> {
    let n = pool.entries.len();
    let mut rng = Lcg::new(seed ^ 0x5741_524d);
    let cold = (pool.hot..n).map(|_| pool.hot + rng.below((n - pool.hot) as u64) as usize);
    (0..pool.hot).chain(cold).collect()
}

fn service(pool: &Pool) -> Service {
    Service::start(ServeConfig {
        workers: 1,
        cache_bytes: pool.budget,
        default_timeout_ms: 60_000,
        ..ServeConfig::default()
    })
}

/// One request as the client saw it.
struct Sample {
    entry: usize,
    /// When the reply arrived.
    at: Instant,
    latency_ms: f64,
    /// The service's allocation-stage seconds when the request missed the
    /// cache.
    miss_alloc_s: Option<f64>,
}

/// Sends pool entry `i` and checks the reply.
fn call(svc: &Service, pool: &Pool, i: usize, tally: &mut Tally) -> Sample {
    let e = &pool.entries[i];
    let t = Instant::now();
    let (resp, span) = svc.call_span(&e.line);
    let at = Instant::now();
    let latency_ms = (at - t).as_secs_f64() * 1e3;
    let rec = span.record();
    let miss_alloc_s = (rec.cache == Some(false)).then(|| rec.alloc_ns as f64 / 1e9);
    svc.finish_span(span, 0);
    tally.response("request", &e.expected, &resp);
    Sample { entry: i, at, latency_ms, miss_alloc_s }
}

/// Drives `svc` with the closed-loop client for `seconds`, ticking `host`
/// between requests.
fn drive(
    svc: &Service,
    pool: &Pool,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    host: &mut HostSpeed,
) -> Vec<Sample> {
    let mut rng = Lcg::new(seed);
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    while Instant::now() < until {
        host.tick();
        samples.push(call(svc, pool, pool.draw(&mut rng), tally));
    }
    samples
}

/// A started service with a warm cache, and the warm-up requests, sent
/// with `host` ticking between them.
fn warmed(
    pool: &Pool,
    opts: &Opts,
    tally: &mut Tally,
    host: &mut HostSpeed,
) -> (Service, Vec<Sample>) {
    let svc = service(pool);
    let warm = warm_sequence(pool, opts.seed)
        .into_iter()
        .map(|i| {
            host.tick();
            call(&svc, pool, i, tally)
        })
        .collect();
    (svc, warm)
}

/// Runs one reply per distinct workload/allocator pair on the VM against
/// the unallocated program, and compiles it for its code size. The live
/// replies are byte-identical to the expected ones, so the expected reply
/// stands for them. Returns the dynamic spill instructions and the code
/// bytes, summed over the pairs.
fn check_outputs(pool: &Pool, tally: &mut Tally) -> Result<(u64, u64), String> {
    let spec = MachineSpec::alpha_like();
    let workloads = lsra_workloads::all();
    let mut references: Vec<Option<RunResult>> = vec![None; workloads.len()];
    let mut seen = BTreeSet::new();
    let (mut dyn_spill, mut bytes) = (0, 0);
    for e in pool.entries.iter().filter(|e| seen.insert((e.workload, e.alloc))) {
        let w = &workloads[e.workload];
        let what = format!("{}/{}", w.name, ALLOCATORS[e.alloc]);
        let input = (w.input)();
        let reference = match &mut references[e.workload] {
            Some(r) => r,
            slot => {
                let m =
                    lsra_ir::parse_module(&e.program).map_err(|err| format!("{what}: {err}"))?;
                let r = Vm::new(&m, &spec, &input, VmOptions::default())
                    .run()
                    .map_err(|err| format!("{what}: unallocated program faulted: {err}"))?;
                slot.insert(r)
            }
        };
        let reply = json_in::parse(&e.expected).map_err(|err| format!("{what}: {err}"))?;
        let text = reply_field(&reply, &["module"])?.as_str().unwrap_or_default();
        let mut m = match lsra_ir::parse_module(text) {
            Ok(m) => m,
            Err(err) => {
                tally.record(Some(format!("{what}: reply module does not parse: {err}")));
                continue;
            }
        };
        let got = Vm::new(&m, &spec, &input, VmOptions::default()).run().map_err(|e| e.to_string());
        if let Ok(r) = &got {
            dyn_spill += r.counts.spill_total();
        }
        tally.run(&what, reference, &got);
        let size = code_bytes(&mut m, &spec);
        tally.record(size.as_ref().err().map(|err| format!("{what}: {err}")));
        bytes += size.unwrap_or(0);
    }
    Ok((dyn_spill, bytes))
}

/// Runs the serve workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let (hot, cold) = if opts.tiny { (4, 16) } else { (HOT, COLD) };
    let mut report = Report::default();
    let (pool, setups) = timed_setup(&mut report.host, || pool(hot, cold))?;
    if opts.traced {
        traced(&pool, opts, &mut report);
    } else {
        measured(&pool, opts, &mut report)?;
    }
    set_setup(&mut report, &setups);
    Ok(report)
}

fn measured(pool: &Pool, opts: &Opts, report: &mut Report) -> Result<(), String> {
    let (svc, warm) = warmed(pool, opts, &mut report.tally, &mut report.host);
    let before = svc.counters();
    let samples = drive(&svc, pool, opts.seed, opts.seconds, &mut report.tally, &mut report.host);
    let after = svc.counters();
    svc.shutdown();

    let host = &report.host;
    let scaled = |s: &Sample| host.scaled(s.at, s.latency_ms);
    let mut misses = vec![Vec::new(); pool.entries.len()];
    for s in warm.iter().chain(&samples) {
        if let Some(a) = s.miss_alloc_s {
            misses[s.entry].push(host.scaled(s.at, a));
        }
    }
    // Every request's scaled latency, by entry and by hit or miss: the
    // distinct operations the client's requests repeat.
    let mut per_op: BTreeMap<(usize, bool), Vec<f64>> = BTreeMap::new();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for s in &samples {
        let hit = s.miss_alloc_s.is_none();
        per_op.entry((s.entry, hit)).or_default().push(scaled(s));
        let times = if hit { &mut hit_ms } else { &mut miss_ms };
        times.push(s.latency_ms);
    }
    let fastest = |v: &Vec<f64>| v.iter().copied().fold(f64::INFINITY, f64::min);
    // The rate when every request takes its operation's fastest time.
    let busy_ms: f64 = per_op.values().map(|v| v.len() as f64 * fastest(v)).sum();
    report.set("ops_per_s", samples.len() as f64 * 1e3 / busy_ms);
    let hot: Vec<f64> = (0..pool.hot).filter_map(|e| per_op.get(&(e, true))).map(fastest).collect();
    if let Some(best) = stats::geomean(&hot) {
        report.set("latency_best_ms", best);
    }
    set_alloc_throughput(
        report,
        pool.entries.iter().zip(&misses).map(|(e, m)| (e.alloc, e.insts, m.as_slice())),
    );
    let (dyn_spill, bytes) = check_outputs(pool, &mut report.tally)?;
    report.set("dyn_spill_ops", dyn_spill as f64);
    report.set("spill_insts", pool.entries.iter().map(|e| e.spill_insts).sum::<u64>() as f64);
    report.set("code_bytes", bytes as f64);
    let raw: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    note_latencies(report, &raw);
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    report.note("cache_hit_ratio", hits as f64 / lookups.max(1) as f64);
    if let Some(v) = stats::median(&hit_ms) {
        report.note("hit_latency_p50_ms", v);
    }
    if let Some(v) = stats::median(&miss_ms) {
        report.note("miss_latency_p50_ms", v);
    }
    Ok(())
}

/// One request through the service's layers, called one by one from here,
/// followed by the IR layer alone on the request's program.
fn serve_one(
    tr: &mut Tracer,
    pool: &Pool,
    i: usize,
    cache: &mut Cache,
    scratch: &mut AllocScratch,
    tally: &mut Tally,
    sums: &mut BTreeMap<String, f64>,
) {
    let e = &pool.entries[i];
    let resp = tr.span("request", |tr| -> Result<String, String> {
        let parsed = tr.span("server.parse_request", |_| protocol::parse_request(&e.line));
        let Ok(ParsedLine::Alloc(req)) = parsed else {
            return Err(format!("request {i} did not parse as an allocation"));
        };
        let (m, input, canonical) =
            tr.span("server.materialize", |_| protocol::materialize(&req))?;
        let key = tr.span("server.cache_key", |_| protocol::cache_key(&req, &canonical));
        if let Some(hit) = tr.span("server.cache_get", |_| cache.get(&key)) {
            return Ok(tr.span("server.render_ok", |_| {
                protocol::render_ok(&req.id, &hit, req.emit_module)
            }));
        }
        let (outcome, _) = tr.span("server.run_allocation", |_| {
            protocol::run_allocation(m, &input, &req, scratch)
        })?;
        let resp = tr
            .span("server.render_ok", |_| protocol::render_ok(&req.id, &outcome, req.emit_module));
        tr.span("server.cache_insert", |_| cache.insert(key, outcome));
        Ok(resp)
    });
    match resp {
        Ok(r) => {
            add(sums, "server.request_kib", e.line.len() as f64 / 1024.0);
            add(sums, "server.response_kib", r.len() as f64 / 1024.0);
            tally.response("request", &e.expected, &r);
        }
        Err(err) => tally.record(Some(err)),
    }
    if let Ok(m) = tr.span("ir.parse_module", |_| lsra_ir::parse_module(&e.program)) {
        tr.span("ir.print_module", |_| format!("{m}"));
    }
}

/// One single-threaded replay of the seeded request sequence against a
/// warmed cache: `count` requests, or as many as fit in `seconds`.
struct Replay {
    requests: usize,
    wall_ms: f64,
    sums: BTreeMap<String, f64>,
    tracer: Tracer,
}

fn replay(
    pool: &Pool,
    opts: &Opts,
    count: Option<usize>,
    seconds: f64,
    on: bool,
    tally: &mut Tally,
) -> Replay {
    let mut cache = Cache::new(pool.budget);
    let mut scratch = AllocScratch::default();
    let mut sums = BTreeMap::new();
    let mut off = Tracer::new(false);
    for i in warm_sequence(pool, opts.seed) {
        serve_one(&mut off, pool, i, &mut cache, &mut scratch, tally, &mut BTreeMap::new());
    }
    let (hits0, misses0, len0) = (cache.hits(), cache.misses(), cache.len());
    let mut tr = Tracer::new(on);
    let mut rng = Lcg::new(opts.seed);
    let mut n = 0;
    let t0 = Instant::now();
    while count.map_or(t0.elapsed().as_secs_f64() < seconds, |c| n < c) {
        let i = pool.draw(&mut rng);
        tr.set_request(n as u64);
        serve_one(&mut tr, pool, i, &mut cache, &mut scratch, tally, &mut sums);
        n += 1;
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    add(&mut sums, "server.cache_hit_ratio", (cache.hits() - hits0) as f64);
    let inserts = cache.misses() - misses0;
    add(&mut sums, "server.cache_evictions", (inserts as usize + len0 - cache.len()) as f64);
    for (span, ms) in tr.self_ms() {
        add(&mut sums, format!("{span}_ms"), ms);
    }
    Replay { requests: n, wall_ms, sums, tracer: tr }
}

/// The traced run: a third of the time drives the service to read its
/// queue-wait histogram; the rest replays the same request sequence
/// in this thread, untraced and then traced.
fn traced(pool: &Pool, opts: &Opts, report: &mut Report) {
    let (svc, _) = warmed(pool, opts, &mut report.tally, &mut report.host);
    let q0 = svc.telemetry().queue_ns.snapshot();
    drive(&svc, pool, opts.seed, opts.seconds / 3.0, &mut report.tally, &mut report.host);
    let queue = svc.telemetry().queue_ns.snapshot().diff(&q0);
    svc.shutdown();
    report.set("server.queue_wait_ms.p50", queue.quantile(0.5) as f64 / 1e6);
    report.set("server.queue_wait_ms.p99", queue.quantile(0.99) as f64 / 1e6);
    report.note("queue_wait_samples", queue.count);

    let plain = replay(pool, opts, None, opts.seconds / 3.0, false, &mut report.tally);
    let traced = replay(pool, opts, Some(plain.requests), 0.0, true, &mut report.tally);
    let n = traced.requests.max(1) as f64;
    for (k, v) in traced.sums {
        report.set(k, v / n);
    }
    report.set("trace.overhead_ratio", traced.wall_ms / plain.wall_ms);
    report.set("trace.span_coverage", traced.tracer.covered_ms() / traced.wall_ms);
    report.note("replayed_requests", traced.requests);
    report.trace = Some(traced.tracer.chrome_json());
}
