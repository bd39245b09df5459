//! The allocation service's line protocol: request parsing, request
//! execution, and byte-deterministic response rendering.
//!
//! One request per line, one response per line, both JSON objects. A
//! request names a program (inline `.lsra` text via `"program"`, or a
//! built-in workload via `"workload"`), an allocator, a machine, and
//! options; the response carries a `"status"` plus the allocation
//! statistics, optional dynamic counts, and optionally the allocated
//! module text. Responses contain no wall-clock or cache-state fields, so
//! the same request always yields the same bytes — whether computed or
//! served from cache — which is what lets the load generator and the fuzz
//! service stage compare them byte-for-byte against a direct
//! `allocate_module` run.
//!
//! ## Request
//!
//! ```json
//! {"id": "r1", "workload": "wc", "allocator": "binpack", "machine": "small:4,2",
//!  "cleanup": false, "run": true, "emit_module": true, "timeout_ms": 5000}
//! ```
//!
//! * `id` — echoed back verbatim (default `""`);
//! * `op` — `"alloc"` (default), `"lint"` (static diagnostics for the
//!   program), `"stats"` (server counters), `"metrics"` (full telemetry
//!   exposition), or `"shutdown"` (graceful drain);
//! * exactly one of `program` (inline `.lsra` text) or `workload` (a
//!   built-in benchmark name) for `alloc` and `lint`;
//! * `allocator` — `binpack` (default), `two-pass`, `coloring`, `poletto`,
//!   `ion`;
//! * `machine` — `alpha` (default) or `small:I,F`;
//! * `cleanup` — run identity-move removal and the spill-code post-pass on
//!   the result (default `false`: the response reflects the raw
//!   `allocate_module` output);
//! * `run` — execute the allocated module in the VM and report dynamic
//!   counts (workload requests use the workload's input, inline programs
//!   run with empty input);
//! * `emit_module` — include the allocated module text in the response;
//! * `timeout_ms` — per-request deadline override;
//! * `inject_panic` / `inject_sleep_ms` — fault-injection knobs for
//!   testing panic isolation and deadline/backpressure behaviour.
//!
//! Unknown fields are rejected, so typos fail loudly instead of silently
//! selecting defaults.
//!
//! ## Cache keys
//!
//! [`cache_key`] tags the program component by source — `workload:<name>`
//! or `program:<len>:<canonical text>` — so a workload and an inline copy
//! of its text (which runs on different input) never share an entry.
//! [`probe_key`] is the same key over the inline text as received: the
//! service probes with it first and materialises the program (parse and
//! validate once, print: [`materialize`]) only when it misses. Printed text is
//! a fixpoint of parse-then-print, so this first probe can only hit an
//! entry the canonical key would have hit.
//!
//! ## Response
//!
//! ```json
//! {"id": "r1", "status": "ok", "stats": {"candidates": 12, "...": 0}, "module": "..."}
//! {"id": "r2", "status": "error", "error": "program:line 6: missing address in `st`"}
//! {"id": "r3", "status": "timeout"}
//! {"id": "r4", "status": "overloaded"}
//! {"id": "r5", "status": "too_large"}
//! ```
//!
//! A `lint` response carries per-severity counts and every diagnostic (the
//! Family A input lints, plus — when the input has no errors — the Family B
//! quality lints over the requested allocator's output before identity-move
//! removal). Like every other response it has no wall-clock fields: the
//! same request always yields the same bytes.
//!
//! ```json
//! {"id": "r6", "status": "ok", "op": "lint", "errors": 1, "warnings": 0, "notes": 0,
//!  "diagnostics": [{"code": "L001", "line": 4, "...": "..."}]}
//! ```
//!
//! ## The `stats` response
//!
//! A `stats` response carries exactly the fields of [`STATS_FIELDS`], in
//! that order (the field set is pinned by a test in
//! `tests/serve_subsystem.rs`, so it cannot drift silently):
//!
//! * `id`, `status`, `op` — the response envelope (`status` is always
//!   `ok`, `op` is `stats`);
//! * `requests` — request lines received, including rejected ones;
//! * `ok` — successful `alloc` and `lint` responses;
//! * `errors` — structured error responses: parse/validation failures,
//!   run faults, confined panics, and requests refused during shutdown;
//! * `timeouts` — requests answered `timeout` (deadline passed);
//! * `overloaded` — requests answered `overloaded` (queue full);
//! * `too_large` — requests answered `too_large` (over
//!   `--max-request-bytes`, rejected before parsing);
//! * `inline` — `stats`/`metrics`/`shutdown` responses: requests that
//!   terminate inline without being allocations (the request being
//!   answered counts itself, so the books balance at quiescence);
//! * `panics` — worker panics confined by `catch_unwind`; supplementary
//!   (each panic also produced one `errors` response);
//! * `in_flight` — gauge: jobs a worker has dequeued and not yet answered;
//! * `queue_depth` — gauge: jobs waiting in the bounded queue right now;
//! * `cache_hits` / `cache_misses` — cache lookups answered from the
//!   cache / that computed instead;
//! * `cache_entries` / `cache_bytes` — gauge: current cache occupancy.
//!
//! The six terminal counters conserve: at quiescence (`in_flight == 0`
//! and `queue_depth == 0`), `requests == ok + errors + timeouts +
//! overloaded + too_large + inline`.
//!
//! ## The `metrics` response
//!
//! `{"op": "metrics"}` returns the full telemetry registry twice over: a
//! `prometheus` field holding the text exposition format, and a `json`
//! field holding the structured form — exact integer-nanosecond histogram
//! stats plus each histogram's sparse `[bucket, count]` list, which a
//! client can rebuild, diff against an earlier poll, and reduce to
//! percentiles over exactly its own interval (see `lsra_telemetry`).

use std::fmt::Write as _;

use lsra_core::{AllocScratch, AllocTimings, BinpackAllocator, BinpackConfig, RegisterAllocator};
use lsra_ir::{MachineSpec, Module};
use lsra_trace::json::JsonWriter;
use lsra_trace::NoopSink;
use lsra_vm::{Vm, VmOptions};

use crate::cache::Outcome;
use crate::json_in::{self, JsonValue};

/// Allocator names, in CLI order: the one list that the CLI, the fuzz
/// driver, the service and the tests select from through
/// [`allocator_by_name`].
pub const ALLOCATOR_NAMES: [&str; 5] = ["binpack", "two-pass", "coloring", "poletto", "ion"];

/// Constructs the allocator called `name` in [`ALLOCATOR_NAMES`]; `None`
/// for any other name.
///
/// `workers` and `time_phases` set the [`BinpackConfig`] fields of the
/// binpack family (the service runs one worker with timing on; the CLI
/// passes `--workers` and `--time-phases`). The other allocators ignore
/// them.
pub fn allocator_by_name(
    name: &str,
    workers: usize,
    time_phases: bool,
) -> Option<Box<dyn RegisterAllocator>> {
    let binpack = |base: BinpackConfig| -> Box<dyn RegisterAllocator> {
        Box::new(BinpackAllocator::new(BinpackConfig { workers, time_phases, ..base }))
    };
    Some(match name {
        "binpack" => binpack(BinpackConfig::default()),
        "two-pass" => binpack(BinpackConfig::two_pass()),
        "coloring" => Box::new(lsra_coloring::ColoringAllocator),
        "poletto" => Box::new(lsra_poletto::PolettoAllocator),
        "ion" => Box::new(lsra_ion::IonAllocator),
        _ => return None,
    })
}

/// The error for a name that is not in [`ALLOCATOR_NAMES`].
pub fn unknown_allocator(name: &str) -> String {
    format!("unknown allocator `{name}` (expected {})", ALLOCATOR_NAMES.join(" | "))
}

/// The error for an allocator without an instrumented path, naming the
/// allocators whose [`RegisterAllocator::allocate_module_traced`] answers
/// (probed on an empty module, so the list follows the trait impls).
pub fn untraced_allocator(name: &str) -> String {
    let (mut empty, spec) = (Module::new("", 0), MachineSpec::alpha_like());
    let traced: Vec<&str> = ALLOCATOR_NAMES
        .into_iter()
        .filter(|n| {
            let alloc = allocator_by_name(n, 1, false).expect("registered name");
            alloc.allocate_module_traced(&mut empty, &spec, &mut NoopSink).is_some()
        })
        .collect();
    format!("`{name}` has no instrumented path (expected {})", traced.join(" | "))
}

/// Every field of a `stats` response, in render order. Documented
/// field-by-field in the module docs ("The `stats` response"); the exact
/// set is asserted by `tests/serve_subsystem.rs`, so adding a counter
/// without documenting it here fails the build's test tier.
pub const STATS_FIELDS: [&str; 17] = [
    "id",
    "status",
    "op",
    "requests",
    "ok",
    "errors",
    "timeouts",
    "overloaded",
    "too_large",
    "inline",
    "panics",
    "in_flight",
    "queue_depth",
    "cache_hits",
    "cache_misses",
    "cache_entries",
    "cache_bytes",
];

/// Where a request's program comes from.
#[derive(Clone, Debug)]
pub enum Source {
    /// Inline `.lsra` module text.
    Program(String),
    /// A built-in workload name (see `lsra workloads`).
    Workload(String),
}

/// One parsed allocation request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client correlation id, echoed into the response.
    pub id: String,
    /// The program to allocate.
    pub source: Source,
    /// Allocator name (one of [`ALLOCATOR_NAMES`]).
    pub allocator: String,
    /// Target machine.
    pub machine: MachineSpec,
    /// Run identity-move removal plus the spill post-pass on the result.
    pub cleanup: bool,
    /// Execute the allocated module and report [`lsra_vm::DynCounts`].
    pub run: bool,
    /// Include the allocated module text in the response.
    pub emit_module: bool,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Fault injection: panic inside the worker (tests panic isolation).
    pub inject_panic: bool,
    /// Fault injection: sleep this long before allocating (tests deadlines
    /// and backpressure).
    pub inject_sleep_ms: u64,
}

/// One parsed protocol line.
#[derive(Clone, Debug)]
pub enum ParsedLine {
    /// An allocation request.
    Alloc(Box<Request>),
    /// A static-diagnostics request (same shape as `alloc`; the
    /// result-shaping flags are ignored).
    Lint(Box<Request>),
    /// A server-counters query.
    Stats {
        /// Echoed correlation id.
        id: String,
    },
    /// A full telemetry-exposition query (Prometheus text + structured
    /// JSON in one response).
    Metrics {
        /// Echoed correlation id.
        id: String,
    },
    /// A graceful-drain request.
    Shutdown {
        /// Echoed correlation id.
        id: String,
    },
}

/// Parses one request line.
///
/// # Errors
///
/// Returns `(id, message)` — the id is whatever could be recovered from the
/// malformed request (possibly empty), so the error response still
/// correlates when the envelope itself was readable.
pub fn parse_request(line: &str) -> Result<ParsedLine, (String, String)> {
    let v = json_in::parse(line).map_err(|e| (String::new(), format!("parse: {e}")))?;
    let JsonValue::Object(fields) = &v else {
        return Err((
            String::new(),
            format!("request must be a JSON object, got {}", v.type_name()),
        ));
    };
    let id = v.get("id").and_then(JsonValue::as_str).unwrap_or("").to_string();
    let fail = |msg: String| (id.clone(), msg);

    let mut op = "alloc";
    let mut program: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut allocator = "binpack".to_string();
    let mut machine = "alpha".to_string();
    let mut cleanup = false;
    let mut run = false;
    let mut emit_module = false;
    let mut timeout_ms = None;
    let mut inject_panic = false;
    let mut inject_sleep_ms = 0;

    let str_field = |key: &str, val: &JsonValue| -> Result<String, (String, String)> {
        val.as_str()
            .map(str::to_string)
            .ok_or_else(|| fail(format!("field `{key}` must be a string, got {}", val.type_name())))
    };
    let bool_field = |key: &str, val: &JsonValue| -> Result<bool, (String, String)> {
        val.as_bool().ok_or_else(|| {
            fail(format!("field `{key}` must be a boolean, got {}", val.type_name()))
        })
    };
    let uint_field = |key: &str, val: &JsonValue| -> Result<u64, (String, String)> {
        val.as_u64().ok_or_else(|| {
            fail(format!("field `{key}` must be a non-negative integer, got {}", val.type_name()))
        })
    };

    let mut seen: Vec<&str> = Vec::new();
    for (key, val) in fields {
        if seen.contains(&key.as_str()) {
            return Err(fail(format!("duplicate field `{key}`")));
        }
        match key.as_str() {
            "id" => {
                str_field("id", val)?;
            }
            "op" => {
                let o = str_field("op", val)?;
                op = match o.as_str() {
                    "alloc" => "alloc",
                    "lint" => "lint",
                    "stats" => "stats",
                    "metrics" => "metrics",
                    "shutdown" => "shutdown",
                    other => {
                        return Err(fail(format!(
                            "unknown op `{other}` (alloc | lint | stats | metrics | shutdown)"
                        )))
                    }
                };
            }
            "program" => program = Some(str_field("program", val)?),
            "workload" => workload = Some(str_field("workload", val)?),
            "allocator" => allocator = str_field("allocator", val)?,
            "machine" => machine = str_field("machine", val)?,
            "cleanup" => cleanup = bool_field("cleanup", val)?,
            "run" => run = bool_field("run", val)?,
            "emit_module" => emit_module = bool_field("emit_module", val)?,
            "timeout_ms" => timeout_ms = Some(uint_field("timeout_ms", val)?),
            "inject_panic" => inject_panic = bool_field("inject_panic", val)?,
            "inject_sleep_ms" => inject_sleep_ms = uint_field("inject_sleep_ms", val)?,
            other => return Err(fail(format!("unknown field `{other}`"))),
        }
        seen.push(key.as_str());
    }

    match op {
        "stats" => return Ok(ParsedLine::Stats { id }),
        "metrics" => return Ok(ParsedLine::Metrics { id }),
        "shutdown" => return Ok(ParsedLine::Shutdown { id }),
        _ => {}
    }

    let source = match (program, workload) {
        (Some(p), None) => Source::Program(p),
        (None, Some(w)) => {
            if lsra_workloads::by_name(&w).is_none() {
                return Err(fail(format!("unknown workload `{w}` (see `lsra workloads`)")));
            }
            Source::Workload(w)
        }
        (Some(_), Some(_)) => {
            return Err(fail("`program` and `workload` are mutually exclusive".to_string()))
        }
        (None, None) => {
            return Err(fail("request needs `program` or `workload`".to_string()));
        }
    };
    if !ALLOCATOR_NAMES.contains(&allocator.as_str()) {
        return Err(fail(unknown_allocator(&allocator)));
    }
    let machine = MachineSpec::parse(&machine).map_err(|e| fail(format!("machine: {e}")))?;
    let req = Box::new(Request {
        id,
        source,
        allocator,
        machine,
        cleanup,
        run,
        emit_module,
        timeout_ms,
        inject_panic,
        inject_sleep_ms,
    });
    Ok(if op == "lint" { ParsedLine::Lint(req) } else { ParsedLine::Alloc(req) })
}

/// Builds the request's module, its VM input, and the canonical text of an
/// inline program (the display form of the parsed module — the cache key's
/// program component, so formatting differences never split cache
/// entries). A workload's key is its name, so its module is not printed
/// and the text is empty.
///
/// # Errors
///
/// Returns a message for unparseable or invalid inline programs, unknown
/// workloads, and programs with an instruction the requested machine
/// cannot hold (see [`Module::check_fits`]).
pub fn materialize(req: &Request) -> Result<(Module, Vec<u8>, String), String> {
    match &req.source {
        Source::Program(text) => {
            let m = lsra_ir::parse_module(text).map_err(|e| format!("program:{e}"))?;
            check_fits(&req.source, &m, &req.machine)?;
            let canonical = format!("{m}");
            Ok((m, Vec::new(), canonical))
        }
        Source::Workload(name) => {
            let w = lsra_workloads::by_name(name)
                .ok_or_else(|| format!("unknown workload `{name}`"))?;
            let m = (w.build)();
            check_fits(&req.source, &m, &req.machine)?;
            Ok((m, (w.input)(), String::new()))
        }
    }
}

/// [`Module::check_fits`], its refusal naming the request's source.
fn check_fits(source: &Source, m: &Module, machine: &MachineSpec) -> Result<(), String> {
    m.check_fits(machine).map_err(|e| match source {
        Source::Program(_) => format!("program: {e}"),
        Source::Workload(name) => format!("workload `{name}`: {e}"),
    })
}

/// The full cache-key string for `req` given its canonical program text:
/// every input that shapes the cached [`Outcome`] — program, allocator,
/// machine, and the result-shaping options (`emit_module` is *not* part of
/// the key; the module text is always cached and dropped at render time).
///
/// The program component is tagged by source, so the two kinds never share
/// a key: `workload:<name>` for a built-in, whose module and VM input are
/// both fixed by its name (`canonical` is ignored), and
/// `program:<len>:<canonical>` for inline text, which runs on empty input.
/// The length prefix keeps the key unambiguous whatever bytes the text
/// holds.
pub fn cache_key(req: &Request, canonical: &str) -> String {
    let mut key = match &req.source {
        Source::Workload(name) => format!("workload:{name}"),
        Source::Program(_) => {
            let mut key = String::with_capacity(canonical.len() + 64);
            let _ = write!(key, "program:{}:", canonical.len());
            key.push_str(canonical);
            key
        }
    };
    let _ = write!(
        key,
        "\u{0}{}\u{0}{}\u{0}cleanup={},run={}",
        req.allocator,
        req.machine.name(),
        req.cleanup as u8,
        req.run as u8
    );
    key
}

/// The key to probe before materialising `req`: [`cache_key`] over an
/// inline program's text exactly as received (a workload's key needs no
/// materialising). Stored keys are built from canonical text, and
/// canonical text is what the printer, `lsra loadgen` and the fuzz service
/// stage send, so such a request hits without its module being parsed,
/// validated or printed.
///
/// The probe is sound because printing is a fixpoint of parse-then-print
/// on printed text (`print(parse(print(m))) == print(m)`, pinned by
/// `tests/text_roundtrip.rs`): text that equals some stored canonical text
/// is its own canonical text, so it would have built the same key anyway.
pub fn probe_key(req: &Request) -> String {
    match &req.source {
        Source::Program(text) => cache_key(req, text),
        Source::Workload(_) => cache_key(req, ""),
    }
}

/// Allocates `m` as `req` asks, reusing `scratch` for the binpack family.
///
/// The binpack family runs with per-phase timing enabled; the measured
/// [`AllocTimings`] are returned *alongside* the outcome, never inside it —
/// `without_wall_clock` strips them from the cached [`Outcome`] so response
/// bytes stay deterministic whether or not telemetry consumes the timings.
///
/// # Errors
///
/// Returns a message when the requested VM run faults.
pub fn run_allocation(
    mut m: Module,
    input: &[u8],
    req: &Request,
    scratch: &mut AllocScratch,
) -> Result<(Outcome, Option<AllocTimings>), String> {
    let spec = &req.machine;
    let alloc = allocator_by_name(&req.allocator, 1, true)
        .ok_or_else(|| unknown_allocator(&req.allocator))?;
    let stats = alloc.allocate_module_reusing(&mut m, spec, scratch);
    if req.cleanup {
        for id in m.func_ids().collect::<Vec<_>>() {
            lsra_analysis::remove_identity_moves(m.func_mut(id));
            lsra_core::optimize_spill_code(m.func_mut(id), spec);
            lsra_analysis::remove_identity_moves(m.func_mut(id));
        }
    }
    let dyn_counts = if req.run {
        let r = Vm::new(&m, spec, input, VmOptions::default())
            .run()
            .map_err(|e| format!("run faulted: {e}"))?;
        Some(r.counts)
    } else {
        None
    };
    let timings = stats.timings;
    let outcome =
        Outcome { stats: stats.without_wall_clock(), dyn_counts, module_text: format!("{m}") };
    Ok((outcome, timings))
}

/// Renders a successful response. Deterministic: two renders of the same
/// outcome and id are byte-identical, and carry no wall-clock or
/// cache-state fields.
pub fn render_ok(id: &str, outcome: &Outcome, emit_module: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", id);
    w.field_str("status", "ok");
    w.key("stats");
    w.begin_object();
    w.field_uint("candidates", outcome.stats.candidates as u64);
    w.field_uint("spilled_temps", outcome.stats.spilled_temps as u64);
    w.field_uint("inserted", outcome.stats.inserted_total());
    w.field_uint("evictions", outcome.stats.evictions);
    w.field_uint("moves_coalesced", outcome.stats.moves_coalesced);
    w.field_uint("lifetime_splits", outcome.stats.lifetime_splits);
    w.field_uint("stores_suppressed", outcome.stats.stores_suppressed);
    w.field_uint("iterations", outcome.stats.iterations as u64);
    w.end_object();
    if let Some(d) = &outcome.dyn_counts {
        w.key("dyn");
        w.begin_object();
        w.field_uint("total", d.total);
        w.field_uint("spill", d.spill_total());
        w.field_uint("calls", d.calls);
        w.field_uint("memory_ops", d.memory_ops);
        w.field_uint("moves", d.moves);
        w.end_object();
    }
    if emit_module {
        w.field_str("module", &outcome.module_text);
    }
    w.end_object();
    w.finish()
}

/// Runs the `lint` op: the Family A input lints, then — when the input has
/// no errors — the Family B quality lints over the requested allocator's
/// output *before* identity-move removal. Inline programs are parsed for
/// syntax only, with a source-line map, so the input lints report every
/// IR rule a program breaks at its line.
///
/// # Errors
///
/// Returns a message for unparseable inline programs, unknown workloads,
/// and error-free input with an instruction the requested machine cannot
/// hold (refused as the `alloc` op refuses it). Diagnostics are not
/// errors: a program that parses always lints.
pub fn run_lint(req: &Request) -> Result<String, String> {
    let (m, lines) = match &req.source {
        Source::Program(text) => {
            let (m, lines) =
                lsra_ir::parse_module_syntax(text).map_err(|e| format!("program:{e}"))?;
            (m, Some(lines))
        }
        Source::Workload(name) => {
            let w = lsra_workloads::by_name(name)
                .ok_or_else(|| format!("unknown workload `{name}`"))?;
            ((w.build)(), None)
        }
    };
    let mut report = lsra_lint::lint_input(&m, lines.as_ref());
    // Quality lints need a sound allocation. The input lints cover every
    // IR rule, so input without errors validates.
    if report.count_severity(lsra_lint::Severity::Error) == 0 {
        let spec = &req.machine;
        check_fits(&req.source, &m, spec)?;
        let mut allocated = m;
        allocator_by_name(&req.allocator, 1, false)
            .ok_or_else(|| unknown_allocator(&req.allocator))?
            .allocate_module(&mut allocated, spec);
        report.merge(lsra_lint::lint_quality(&allocated, spec));
    }
    Ok(render_lint(&req.id, &report))
}

/// Renders a `lint` response: per-severity counts plus every diagnostic in
/// canonical order. Deterministic — no wall-clock fields.
pub fn render_lint(id: &str, report: &lsra_lint::LintReport) -> String {
    use lsra_lint::Severity;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", id);
    w.field_str("status", "ok");
    w.field_str("op", "lint");
    w.field_uint("errors", report.count_severity(Severity::Error) as u64);
    w.field_uint("warnings", report.count_severity(Severity::Warning) as u64);
    w.field_uint("notes", report.count_severity(Severity::Note) as u64);
    w.key("diagnostics");
    w.begin_array();
    for d in &report.diags {
        d.write_json(&mut w);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Renders an error response.
pub fn render_error(id: &str, msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", id);
    w.field_str("status", "error");
    w.field_str("error", msg);
    w.end_object();
    w.finish()
}

/// Renders a bare status response (`timeout`, `overloaded`, `too_large`).
pub fn render_status(id: &str, status: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", id);
    w.field_str("status", status);
    w.end_object();
    w.finish()
}

/// The response the service *must* produce for `req`: a direct, cache-free,
/// queue-free execution with a fresh scratch arena. The load generator and
/// the fuzz service stage compare live responses byte-for-byte against
/// this.
pub fn expected_response_line(req: &Request) -> String {
    let direct = materialize(req)
        .and_then(|(m, input, _)| run_allocation(m, &input, req, &mut AllocScratch::default()));
    match direct {
        Ok((outcome, _)) => render_ok(&req.id, &outcome, req.emit_module),
        Err(msg) => render_error(&req.id, &msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let line = r#"{"id": "r1", "workload": "wc", "allocator": "poletto",
                       "machine": "small:4,2", "run": true, "emit_module": true}"#;
        let ParsedLine::Alloc(req) = parse_request(line).unwrap() else { panic!("not alloc") };
        assert_eq!(req.id, "r1");
        assert!(matches!(req.source, Source::Workload(ref w) if w == "wc"));
        assert_eq!(req.allocator, "poletto");
        assert_eq!(req.machine.name(), "small-4i2f");
        assert!(req.run && req.emit_module && !req.cleanup);
    }

    #[test]
    fn rejects_bad_requests_with_recovered_id() {
        for (line, what) in [
            (r#"{"id": "x", "workload": "nope"}"#, "unknown workload"),
            (r#"{"id": "x", "program": "m", "workload": "wc"}"#, "mutually exclusive"),
            (r#"{"id": "x"}"#, "needs `program` or `workload`"),
            (r#"{"id": "x", "workload": "wc", "allocator": "llvm"}"#, "unknown allocator"),
            (r#"{"id": "x", "workload": "wc", "machine": "small:1,0"}"#, "machine:"),
            (r#"{"id": "x", "workload": "wc", "frobnicate": 1}"#, "unknown field"),
            (r#"{"id": "x", "workload": "wc", "run": "yes"}"#, "must be a boolean"),
            (r#"{"id": "x", "id": "y", "workload": "wc"}"#, "duplicate field"),
        ] {
            let (id, msg) = parse_request(line).expect_err(line);
            assert_eq!(id, "x", "{line}");
            assert!(msg.contains(what), "{line}: {msg}");
        }
        let (id, msg) = parse_request("not json").expect_err("garbage");
        assert!(id.is_empty());
        assert!(msg.starts_with("parse:"), "{msg}");
    }

    #[test]
    fn cache_key_separates_what_it_must() {
        let base = match parse_request(r#"{"workload": "wc"}"#).unwrap() {
            ParsedLine::Alloc(r) => *r,
            _ => unreachable!(),
        };
        let canonical = "module m (0 words data)\n";
        let k0 = cache_key(&base, canonical);
        let mut other = base.clone();
        other.allocator = "poletto".to_string();
        assert_ne!(k0, cache_key(&other, canonical));
        let mut other = base.clone();
        other.machine = MachineSpec::small(4, 2);
        assert_ne!(k0, cache_key(&other, canonical));
        let mut other = base.clone();
        other.cleanup = true;
        assert_ne!(k0, cache_key(&other, canonical));
        let mut other = base.clone();
        other.run = true;
        assert_ne!(k0, cache_key(&other, canonical));
        // emit_module and id shape the response, not the outcome.
        let mut other = base.clone();
        other.emit_module = true;
        other.id = "different".to_string();
        assert_eq!(k0, cache_key(&other, canonical));
    }

    #[test]
    fn responses_are_valid_json_and_deterministic() {
        let ParsedLine::Alloc(req) =
            parse_request(r#"{"id": "d", "workload": "wc", "run": true, "emit_module": true}"#)
                .unwrap()
        else {
            panic!()
        };
        let a = expected_response_line(&req);
        let b = expected_response_line(&req);
        assert_eq!(a, b, "direct execution must be byte-deterministic");
        lsra_trace::json::validate(&a).unwrap();
        let v = json_in::parse(&a).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert!(v.get("stats").is_some());
        assert!(v.get("dyn").unwrap().get("total").and_then(JsonValue::as_u64).unwrap() > 0);
        let module = v.get("module").and_then(JsonValue::as_str).unwrap();
        lsra_ir::parse_module(module).expect("emitted module text parses back");
    }

    #[test]
    fn lint_op_reports_the_offending_line() {
        // `t0` is read before any definition on file line 6.
        let program = "module m (0 words data)\nentry @0\nfunc @f() {\n  temps t0:i t1:i\nb0:\n  t1 = add t0, t0\n  ret\n}\n";
        let mut line = JsonWriter::new();
        line.begin_object();
        line.field_str("id", "l");
        line.field_str("op", "lint");
        line.field_str("program", program);
        line.end_object();
        let ParsedLine::Lint(req) = parse_request(&line.finish()).unwrap() else {
            panic!("not lint")
        };
        let a = run_lint(&req).unwrap();
        let b = run_lint(&req).unwrap();
        assert_eq!(a, b, "lint responses must be byte-deterministic");
        lsra_trace::json::validate(&a).unwrap();
        let v = json_in::parse(&a).unwrap();
        assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("lint"));
        assert_eq!(v.get("errors").and_then(JsonValue::as_u64), Some(1));
        assert!(a.contains(r#""code": "L001""#), "{a}");
        assert!(a.contains(r#""line": 6"#), "{a}");
    }

    #[test]
    fn lint_op_runs_quality_lints_on_clean_input() {
        let line = r#"{"id": "q", "op": "lint", "workload": "wc", "machine": "small:2,1"}"#;
        let ParsedLine::Lint(req) = parse_request(line).unwrap() else { panic!("not lint") };
        let resp = run_lint(&req).unwrap();
        let v = json_in::parse(&resp).unwrap();
        assert_eq!(v.get("errors").and_then(JsonValue::as_u64), Some(0), "{resp}");
        // Under this much register pressure the pre-postopt allocation
        // always carries at least an identity-move or spill note.
        assert!(v.get("notes").and_then(JsonValue::as_u64).unwrap() > 0, "{resp}");
    }

    #[test]
    fn lint_op_parse_errors_carry_the_line() {
        let program =
            "module m (0 words data)\nentry @0\nfunc @f() {\nb0:\n  t0 = frobnicate t1\n  ret\n}\n";
        let mut line = JsonWriter::new();
        line.begin_object();
        line.field_str("op", "lint");
        line.field_str("program", program);
        line.end_object();
        let ParsedLine::Lint(req) = parse_request(&line.finish()).unwrap() else {
            panic!("not lint")
        };
        let msg = run_lint(&req).unwrap_err();
        assert!(msg.starts_with("program:line 5:"), "{msg}");
    }

    #[test]
    fn inline_program_round_trips() {
        // An inline program: take a workload's display text and submit it.
        let w = lsra_workloads::by_name("wc").unwrap();
        let text = format!("{}", (w.build)());
        let mut line = JsonWriter::new();
        line.begin_object();
        line.field_str("id", "p");
        line.field_str("program", &text);
        line.field_str("machine", "small:6,4");
        line.end_object();
        let ParsedLine::Alloc(req) = parse_request(&line.finish()).unwrap() else { panic!() };
        let resp = expected_response_line(&req);
        let v = json_in::parse(&resp).unwrap();
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"), "{resp}");
    }
}
