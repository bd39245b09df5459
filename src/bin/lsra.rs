//! `lsra` — command-line driver for the register-allocation toolkit.
//!
//! ```text
//! lsra print <file.lsra>                      parse, validate, pretty-print
//! lsra run <file.lsra> [--input FILE] [--machine SPEC]
//! lsra alloc <file.lsra> [--allocator NAME] [--machine SPEC] [--cleanup]
//!                        [--check] [--run] [--backend vm|native]
//!                        [--lint] [--deny CODE]...
//!                        [--verify-native] [--emit-asm] [--corrupt-byte OFF]
//!                        [--time-phases] [--workers N]
//!                        [--trace FILE] [--trace-format FMT]
//! lsra lint <file.lsra> [--allocator NAME] [--machine SPEC]
//!                       [--format human|json] [--deny CODE]...
//! lsra report <file.lsra> [--allocator NAME] [--machine SPEC] [--json FILE]
//! lsra workloads                              list the built-in benchmarks
//! lsra bench <workload> [--allocator NAME] [--time-phases] [--workers N]
//!                       [--backend vm|native] [--exec-runs N]
//! lsra fuzz [--seed N] [--iters N] [--machine SPEC]... [--allocator NAME]...
//!           [--shrink] [--no-serve] [--no-native] [--no-verify]
//! lsra serve [--stdio | --addr HOST:PORT] [--workers N] [--cache-bytes B]
//!            [--max-queue N] [--timeout-ms T]
//!            [--telemetry-log FILE] [--slow-ms T]
//! lsra loadgen <workload>... [--requests N] [--concurrency C] [--dup-percent P]
//!              [--allocator NAME] [--machine SPEC] [--seed N] [--addr HOST:PORT]
//! lsra top --addr HOST:PORT [--interval-ms T] [--frames N]
//! ```
//!
//! `SPEC` is `alpha` (default) or `small:I,F` (e.g. `small:4,2`).
//! `NAME` is `binpack` (default), `two-pass`, `coloring`, `poletto`, or
//! `ion`.
//! `--time-phases` prints a per-phase wall-clock breakdown and `--workers N`
//! sets the module-level thread count (0 = all cores, 1 = serial); both
//! apply to the binpack and two-pass allocators.
//!
//! Wherever a `<file.lsra>` is expected, a built-in workload name (see
//! `lsra workloads`) is accepted too.
//!
//! `alloc --trace FILE` records every allocation decision (binpack,
//! two-pass, and ion) and writes it in `--trace-format FMT`: `log` (human
//! lines, the default), `jsonl` (one JSON object per event), `chrome`
//! (Chrome `trace_event` JSON — open in Perfetto; implies per-phase
//! timing), or `annotate` (the allocated IR with decisions interleaved as
//! comments). `report` allocates with the metrics registry and prints
//! counters and histograms — register pressure, hole-fit rate, spill
//! reasons, resolution op mix; `--json FILE` additionally writes them as
//! JSON. `bench` writes the same registry to `BENCH_alloc_metrics.json`.
//!
//! `alloc --check` proves the allocation with the symbolic checker before
//! identity-move removal; `alloc --run` executes
//! both the original and the allocated module and reports any observational
//! mismatch (return value, output trace, final memory). `--backend native`
//! runs the allocated side as JIT-compiled x86-64 machine code instead of
//! on the VM (the original always runs interpreted, so the comparison also
//! cross-checks the JIT); on hosts that cannot map executable memory it
//! falls back to the VM with a message.
//!
//! `bench --backend native` JIT-compiles the workload under every allocator
//! and measures wall-clock execute time over `--exec-runs` repeated runs
//! (default 10), recording each run into a telemetry histogram; the
//! resulting p50/p95/min/mean — alongside one interpreted run for scale and
//! a native-vs-VM equality check — are written to `BENCH_exec_time.json`.
//! This is the reproduction's analogue of the paper's §4 quality metric:
//! allocators are judged by how fast their *output code* runs, not only by
//! dynamic spill counts.
//!
//! `lint` runs the static diagnostics engine: the input-IR validation lints
//! (`L0xx` — every IR rule the input breaks, each at its source line since
//! a `.lsra` file is parsed for syntax only, then use-before-def,
//! unreachable blocks, duplicate branch targets, critical-edge advisories)
//! and, when the input has no errors, the allocation-quality lints (`Q1xx`
//! — dead spill stores, redundant reloads, identity moves and move chains,
//! low-pressure spills) over the chosen allocator's output *before*
//! identity-move removal. `--format json` emits one JSON object per
//! diagnostic (JSONL, byte-deterministic); `--deny CODE` (repeatable, code
//! or kebab-case name) makes that lint's diagnostics fail the run with a
//! nonzero exit. `alloc --lint` runs the same quality lints on the
//! allocation it prints, reporting to stderr and honouring `--deny`.
//!
//! `alloc --verify-native` JIT-compiles the allocation and statically
//! verifies the machine code against the allocated IR (`N0xx` diagnostics:
//! strict decode, symbolic dataflow, counter/frame/call ABI) — no
//! executable memory needed, so it works on noexec hosts; any diagnostic
//! fails the run. `--emit-asm` prints a deterministic disassembly listing
//! annotated with the allocated IR instead of the module text.
//! `--corrupt-byte OFF` flips one byte of the compiled image before
//! verifying (a self-test hook: the verifier must reject the corruption).
//!
//! `fuzz` generates random adversarial modules and runs each requested
//! allocator (default: all five) on each requested machine (default:
//! `small:2,1`, `small:4,2`, `alpha`) under the full oracle — symbolic
//! checker, differential execution, native-vs-VM execution
//! (`--no-native` to skip), static machine-code verification of every
//! compiled case (`--no-verify` to skip; runs even on noexec hosts), and a
//! service round-trip (each case is also sent through an in-process
//! allocation server and the response compared byte-for-byte against
//! direct allocation; disable with `--no-serve`). `--shrink` minimizes any
//! failing module with delta debugging before printing it. Runs are
//! deterministic in `--seed`.
//!
//! `serve` starts the allocation service: one line-delimited JSON request
//! per line in, one JSON response per line out, over stdin/stdout (the
//! default) or TCP (`--addr`). Requests name a program (inline text or a
//! built-in workload), an allocator, and a machine; responses carry status
//! and allocation statistics, and results are cached content-addressed
//! under `--cache-bytes`. `loadgen` drives a server (in-process by
//! default, `--addr` for a remote one) with a deterministic request mix —
//! `--dup-percent` of requests repeat earlier ones to exercise the cache —
//! verifies every response byte-for-byte against direct allocation,
//! cross-checks its latency measurements against the server's own
//! histograms (pulled via the `metrics` op), asserts the counter
//! conservation invariant at quiescence, and writes
//! throughput/latency/hit-rate figures — client- and server-side — to
//! `BENCH_serve.json`.
//!
//! The server is observable three ways. The `metrics` protocol op returns
//! every counter, gauge, and latency histogram in one response (Prometheus
//! text exposition plus exact-nanosecond JSON). `serve --telemetry-log
//! FILE` streams one JSON span per completed request — parse/queue/alloc/
//! serialize/write nanoseconds, cache hit/miss, per-phase allocator
//! timings — and with `--slow-ms T` any span over the threshold embeds an
//! annotated allocation decision trace for post-hoc debugging. `top` polls
//! a running server's `metrics` op and redraws a one-screen live view
//! (throughput, latency percentiles, queue depth, cache hit rate,
//! rejection counts) every `--interval-ms`; `--frames N` stops after N
//! frames (`--frames 1` prints once without clearing the screen).

use std::process::ExitCode;

use second_chance_regalloc::allocate_and_cleanup;
use second_chance_regalloc::binpack::optimize_spill_code;
use second_chance_regalloc::lint::LintCode;
use second_chance_regalloc::prelude::*;
use second_chance_regalloc::server::protocol::{
    allocator_by_name, unknown_allocator, untraced_allocator, ALLOCATOR_NAMES,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lsra print <file.lsra>\n  lsra run <file.lsra> [--input FILE] [--machine SPEC]\n  \
         lsra alloc <file.lsra> [--allocator NAME] [--machine SPEC] [--cleanup] [--check] [--run]\n           \
         [--backend vm|native] [--lint] [--deny CODE]... [--time-phases] [--workers N]\n           \
         [--verify-native] [--emit-asm] [--corrupt-byte OFF]\n           \
         [--trace FILE] [--trace-format log|jsonl|chrome|annotate]\n  \
         lsra lint <file.lsra> [--allocator NAME] [--machine SPEC] [--format human|json]\n          \
         [--deny CODE]...\n  \
         lsra report <file.lsra> [--allocator NAME] [--machine SPEC] [--json FILE]\n  \
         lsra workloads\n  lsra bench [<workload>] [--allocator NAME] [--time-phases] [--workers N]\n            \
         [--backend vm|native] [--exec-runs N]\n  \
         lsra fuzz [--seed N] [--iters N] [--machine SPEC]... [--allocator NAME]... [--shrink]\n       \
         [--no-serve] [--no-native] [--no-verify]\n  \
         lsra serve [--stdio | --addr HOST:PORT] [--workers N] [--cache-bytes B] [--max-queue N]\n           \
         [--timeout-ms T] [--telemetry-log FILE] [--slow-ms T]\n  \
         lsra loadgen <workload>... [--requests N] [--concurrency C] [--dup-percent P]\n             \
         [--allocator NAME] [--machine SPEC] [--seed N] [--addr HOST:PORT]\n  \
         lsra top --addr HOST:PORT [--interval-ms T] [--frames N]\n\n\
         SPEC: alpha | small:I,F     NAME: {}\n\
         <file.lsra> may also be a built-in workload name (see `lsra workloads`)",
        ALLOCATOR_NAMES.join(" | ")
    );
    ExitCode::from(2)
}

fn parse_machine(s: &str) -> Result<MachineSpec, String> {
    // Fallible all the way down: `small:1,0` is a flag error, not a panic.
    MachineSpec::parse(s)
}

/// Builds the allocator selected by `--allocator` with `--workers` and
/// `--time-phases`; `force_phases` turns on per-phase timing regardless
/// (the Chrome trace sink needs the marks).
fn make_allocator(o: &Opts, force_phases: bool) -> Result<Box<dyn RegisterAllocator>, String> {
    let name = o.allocator();
    allocator_by_name(name, o.workers, o.time_phases || force_phases)
        .ok_or_else(|| unknown_allocator(name))
}

/// Prints the per-phase breakdown when `--time-phases` collected one, and
/// the binpacking sweep's hole-probe count beside it.
fn report_timings(stats: &second_chance_regalloc::binpack::AllocStats) {
    let Some(t) = &stats.timings else { return };
    eprintln!("; phase breakdown:");
    for (name, secs) in second_chance_regalloc::binpack::PHASE_NAMES.iter().zip(t.seconds) {
        eprintln!(";   {name:<12} {:>9.3} ms", secs * 1e3);
    }
    eprintln!(";   {:<12} {:>9.3} ms", "total", t.total() * 1e3);
    eprintln!("; hole probes: {}", stats.hole_probes);
}

struct Opts {
    positional: Vec<String>,
    /// Every `--machine` occurrence, in order; commands that take a single
    /// machine use the last one (default `alpha`), `fuzz` uses them all.
    machines: Vec<MachineSpec>,
    /// Every `--allocator` occurrence; single-allocator commands use the
    /// last one (default `binpack`), `fuzz` uses them all.
    allocators: Vec<String>,
    input: Vec<u8>,
    cleanup: bool,
    check: bool,
    run: bool,
    time_phases: bool,
    workers: usize,
    seed: u64,
    iters: u64,
    shrink: bool,
    /// `--trace FILE`: record allocation decisions into this file.
    trace: Option<String>,
    /// `--trace-format`: log | jsonl | chrome | annotate.
    trace_format: String,
    /// `--json FILE` (report): also write the metrics registry as JSON.
    json: Option<String>,
    /// `--stdio` (serve): explicit stdin/stdout transport (the default).
    stdio: bool,
    /// `--addr HOST:PORT`: TCP transport (serve) or remote server (loadgen).
    addr: Option<String>,
    /// `--cache-bytes B` (serve/loadgen): result-cache budget.
    cache_bytes: usize,
    /// `--max-queue N` (serve/loadgen): bounded work-queue depth.
    max_queue: usize,
    /// `--timeout-ms T` (serve/loadgen): default per-request deadline.
    timeout_ms: u64,
    /// `--requests N` (loadgen): total requests to issue.
    requests: usize,
    /// `--concurrency C` (loadgen): client threads.
    concurrency: usize,
    /// `--dup-percent P` (loadgen): share of repeated requests.
    dup_percent: u64,
    /// `--no-serve` (fuzz): skip the service round-trip stage.
    no_serve: bool,
    /// `--lint` (alloc): run the quality lints on the allocation.
    lint: bool,
    /// `--format human|json` (lint): diagnostic rendering.
    format: String,
    /// `--deny CODE` occurrences: lints whose diagnostics fail the run.
    deny: Vec<LintCode>,
    /// `--telemetry-log FILE` (serve): stream request spans as JSONL.
    telemetry_log: Option<String>,
    /// `--slow-ms T` (serve): spans over this capture a decision trace.
    slow_ms: Option<u64>,
    /// `--interval-ms T` (top): refresh period.
    interval_ms: u64,
    /// `--frames N` (top): stop after N frames (0 = run until killed).
    frames: u64,
    /// `--backend vm|native` (alloc --run, bench): execution backend for
    /// the allocated module.
    backend: String,
    /// `--exec-runs N` (bench --backend native): repeated native runs per
    /// allocator feeding the execute-time histogram.
    exec_runs: usize,
    /// `--no-native` (fuzz): skip the native-vs-VM differential stage.
    no_native: bool,
    /// `--no-verify` (fuzz): skip the static native-verification stage.
    no_verify: bool,
    /// `--verify-native` (alloc): statically verify the compiled machine
    /// code against the allocated IR (no executable memory needed).
    verify_native: bool,
    /// `--emit-asm` (alloc): print an annotated disassembly listing instead
    /// of the allocated IR.
    emit_asm: bool,
    /// `--corrupt-byte OFF` (alloc): XOR the machine-code byte at OFF with
    /// 0xFF before verification — the verifier must reject the image.
    corrupt_byte: Option<usize>,
}

impl Opts {
    fn machine(&self) -> MachineSpec {
        self.machines.last().cloned().unwrap_or_else(MachineSpec::alpha_like)
    }

    fn allocator(&self) -> &str {
        self.allocators.last().map(String::as_str).unwrap_or("binpack")
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        machines: Vec::new(),
        allocators: Vec::new(),
        input: Vec::new(),
        cleanup: false,
        check: false,
        run: false,
        time_phases: false,
        workers: 0,
        seed: 0x5eed_1998,
        iters: 100,
        shrink: false,
        trace: None,
        trace_format: "log".to_string(),
        json: None,
        stdio: false,
        addr: None,
        cache_bytes: 64 << 20,
        max_queue: 256,
        timeout_ms: 30_000,
        requests: 200,
        concurrency: 8,
        dup_percent: 50,
        no_serve: false,
        lint: false,
        format: "human".to_string(),
        deny: Vec::new(),
        telemetry_log: None,
        slow_ms: None,
        interval_ms: 1000,
        frames: 0,
        backend: "vm".to_string(),
        exec_runs: 10,
        no_native: false,
        no_verify: false,
        verify_native: false,
        emit_asm: false,
        corrupt_byte: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => {
                let v = it.next().ok_or("--machine needs a value")?;
                o.machines.push(parse_machine(v)?);
            }
            "--allocator" => {
                o.allocators.push(it.next().ok_or("--allocator needs a value")?.clone());
            }
            "--input" => {
                let path = it.next().ok_or("--input needs a file")?;
                o.input = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
            }
            "--cleanup" => o.cleanup = true,
            "--check" => o.check = true,
            "--run" => o.run = true,
            "--time-phases" => o.time_phases = true,
            "--workers" => {
                let v = it.next().ok_or("--workers needs a count")?;
                o.workers = v.parse().map_err(|_| "bad worker count")?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                o.seed = v.parse().map_err(|_| "bad seed")?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a count")?;
                o.iters = v.parse().map_err(|_| "bad iteration count")?;
            }
            "--shrink" => o.shrink = true,
            "--trace" => o.trace = Some(it.next().ok_or("--trace needs a file")?.clone()),
            "--trace-format" => {
                let v = it.next().ok_or("--trace-format needs a value")?;
                if !["log", "jsonl", "chrome", "annotate"].contains(&v.as_str()) {
                    return Err(format!(
                        "unknown trace format `{v}` (log | jsonl | chrome | annotate)"
                    ));
                }
                o.trace_format = v.clone();
            }
            "--json" => o.json = Some(it.next().ok_or("--json needs a file")?.clone()),
            "--stdio" => o.stdio = true,
            "--addr" => o.addr = Some(it.next().ok_or("--addr needs HOST:PORT")?.clone()),
            "--cache-bytes" => {
                let v = it.next().ok_or("--cache-bytes needs a byte count")?;
                o.cache_bytes = v.parse().map_err(|_| "bad cache byte budget")?;
            }
            "--max-queue" => {
                let v = it.next().ok_or("--max-queue needs a count")?;
                o.max_queue = v.parse().map_err(|_| "bad queue depth")?;
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a count")?;
                o.timeout_ms = v.parse().map_err(|_| "bad timeout")?;
            }
            "--requests" => {
                let v = it.next().ok_or("--requests needs a count")?;
                o.requests = v.parse().map_err(|_| "bad request count")?;
            }
            "--concurrency" => {
                let v = it.next().ok_or("--concurrency needs a count")?;
                o.concurrency = v.parse().map_err(|_| "bad concurrency")?;
            }
            "--dup-percent" => {
                let v = it.next().ok_or("--dup-percent needs 0..=100")?;
                o.dup_percent = v.parse().map_err(|_| "bad duplicate percentage")?;
                if o.dup_percent > 100 {
                    return Err("--dup-percent must be 0..=100".to_string());
                }
            }
            "--no-serve" => o.no_serve = true,
            "--no-native" => o.no_native = true,
            "--no-verify" => o.no_verify = true,
            "--verify-native" => o.verify_native = true,
            "--emit-asm" => o.emit_asm = true,
            "--corrupt-byte" => {
                let v = it.next().ok_or("--corrupt-byte needs a byte offset")?;
                o.corrupt_byte = Some(v.parse().map_err(|_| "bad byte offset")?);
            }
            "--exec-runs" => {
                let v = it.next().ok_or("--exec-runs needs a count")?;
                o.exec_runs = v.parse().map_err(|_| "bad run count")?;
                if o.exec_runs == 0 {
                    return Err("--exec-runs must be at least 1".to_string());
                }
            }
            "--telemetry-log" => {
                o.telemetry_log = Some(it.next().ok_or("--telemetry-log needs a file")?.clone());
            }
            "--slow-ms" => {
                let v = it.next().ok_or("--slow-ms needs a count")?;
                o.slow_ms = Some(v.parse().map_err(|_| "bad slow threshold")?);
            }
            "--interval-ms" => {
                let v = it.next().ok_or("--interval-ms needs a count")?;
                o.interval_ms = v.parse().map_err(|_| "bad interval")?;
            }
            "--frames" => {
                let v = it.next().ok_or("--frames needs a count")?;
                o.frames = v.parse().map_err(|_| "bad frame count")?;
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs a value")?;
                if !["vm", "native"].contains(&v.as_str()) {
                    return Err(format!("unknown backend `{v}` (vm | native)"));
                }
                o.backend = v.clone();
            }
            "--lint" => o.lint = true,
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                if !["human", "json"].contains(&v.as_str()) {
                    return Err(format!("unknown format `{v}` (human | json)"));
                }
                o.format = v.clone();
            }
            "--deny" => {
                let v = it.next().ok_or("--deny needs a lint code or name")?;
                let code = LintCode::parse(v).ok_or_else(|| {
                    format!(
                        "unknown lint `{v}` (families: L0xx input, Q1xx allocation quality, \
                         N0xx native verification)"
                    )
                })?;
                o.deny.push(code);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

/// [`load_module_with_lines`], with a text file checked by the IR rules
/// (errors name the offending source line).
fn load_module(path: &str) -> Result<Module, String> {
    let (m, lines) = load_module_with_lines(path)?;
    if let Some(lines) = lines {
        lsra_ir::validate_with_lines(&m, &lines).map_err(|e| format!("{path}:{e}"))?;
    }
    Ok(m)
}

/// Loads a built-in workload or `scale:` spec, or parses a text file's
/// syntax only, returning its source-line map so lint diagnostics can
/// point at the offending line (built-in workloads are programmatic IR and
/// have no lines).
fn load_module_with_lines(path: &str) -> Result<(Module, Option<lsra_ir::ModuleLines>), String> {
    // A non-existent path that names a built-in workload loads the
    // workload, so `lsra alloc fpppp --trace ...` works without a file.
    if !std::path::Path::new(path).exists() {
        if let Some(w) = lsra_workloads::by_name(path) {
            return Ok(((w.build)(), None));
        }
        // `scale:<shape>:<insts>` synthesizes a scaling-harness module, so
        // CI can push a 10^5-instruction input through the CLI without
        // shipping a generated file: `lsra alloc scale:medium:100000`.
        if let Some(rest) = path.strip_prefix("scale:") {
            let (shape, n) = rest
                .split_once(':')
                .ok_or_else(|| format!("scale spec `{path}` wants scale:<shape>:<insts>"))?;
            let insts: usize = n
                .parse()
                .map_err(|e| format!("scale spec `{path}`: bad instruction count: {e}"))?;
            let m = lsra_workloads::scaling::scale_module(shape, insts)
                .ok_or_else(|| format!("unknown scale shape `{shape}` (medium | huge)"))?;
            return Ok((m, None));
        }
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {path}: {e} (and it is not a built-in workload name)"))?;
    let (m, lines) = lsra_ir::parse_module_syntax(&text).map_err(|e| format!("{path}:{e}"))?;
    Ok((m, Some(lines)))
}

fn cmd_print(o: &Opts) -> Result<(), String> {
    let m = load_module(o.positional.first().ok_or("missing file")?)?;
    print!("{m}");
    Ok(())
}

fn cmd_run(o: &Opts) -> Result<(), String> {
    let m = load_module(o.positional.first().ok_or("missing file")?)?;
    let r = run_module(&m, &o.machine(), &o.input).map_err(|e| e.to_string())?;
    for ev in &r.output {
        match ev {
            lsra_vm::OutputEvent::Int(v) => println!("out: {v}"),
            lsra_vm::OutputEvent::Char(c) => println!("out: {:?}", *c as char),
            lsra_vm::OutputEvent::Float(bits) => println!("out: {}", f64::from_bits(*bits)),
        }
    }
    println!("return: {:?}", r.ret);
    println!("dynamic instructions: {}", r.counts.total);
    Ok(())
}

/// Allocates `m` through the selected allocator's traced path and writes
/// the decision trace to `--trace FILE` in `--trace-format`. Returns the
/// merged stats and the allocator's report name.
fn allocate_traced(
    o: &Opts,
    m: &mut Module,
    spec: &MachineSpec,
) -> Result<(AllocStats, String), String> {
    use second_chance_regalloc::trace::{
        annotate, ChromeSink, JsonlSink, LogSink, RecordSink, TraceSink,
    };
    // Chrome spans come from the per-phase wall-clock marks; the format is
    // empty without them.
    let alloc =
        make_allocator(o, o.trace_format == "chrome").map_err(|e| format!("--trace: {e}"))?;
    let traced = |m: &mut Module, sink: &mut dyn TraceSink| {
        alloc
            .allocate_module_traced(m, spec, sink)
            .ok_or_else(|| format!("--trace: {}", untraced_allocator(o.allocator())))
    };
    let path = o.trace.as_deref().expect("only called with --trace");
    let (stats, text) = match o.trace_format.as_str() {
        "log" => {
            let mut s = LogSink::new();
            (traced(m, &mut s)?, s.finish())
        }
        "jsonl" => {
            let mut s = JsonlSink::new();
            (traced(m, &mut s)?, s.finish())
        }
        "chrome" => {
            let mut s = ChromeSink::new();
            (traced(m, &mut s)?, s.finish())
        }
        "annotate" => {
            let mut s = RecordSink::default();
            let stats = traced(m, &mut s)?;
            // Render before identity-move removal: the annotator pairs
            // untagged instructions 1:1 with the original program order.
            (stats, annotate(m, &s.events))
        }
        other => return Err(format!("unknown trace format `{other}`")),
    };
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("; trace: {path} ({})", o.trace_format);
    Ok((stats, alloc.name().to_string()))
}

fn cmd_alloc(o: &Opts) -> Result<(), String> {
    let original = load_module(o.positional.first().ok_or("missing file")?)?;
    let spec = o.machine();
    original.check_fits(&spec).map_err(|e| e.to_string())?;
    let mut m = original.clone();
    let (stats, alloc_name) = if o.trace.is_some() {
        allocate_traced(o, &mut m, &spec)?
    } else {
        let alloc = make_allocator(o, false)?;
        (alloc.allocate_module(&mut m, &spec), alloc.name().to_string())
    };
    // The symbolic checker pairs allocated instructions 1:1 with the
    // original, so it must see the module before identity-move removal.
    if o.check {
        second_chance_regalloc::checker::check_module(&original, &m, &spec)
            .map_err(|e| format!("symbolic check: {e}"))?;
        eprintln!("; checked: symbolic");
    }
    // Quality lints see the allocation before identity-move removal, or the
    // Q103/Q104 findings are already gone.
    if o.lint {
        let report = second_chance_regalloc::lint::lint_quality(&m, &spec);
        eprint!("{}", report.render_human());
        let denied = report.denied(&o.deny);
        if denied > 0 {
            return Err(format!("{denied} denied quality diagnostic(s)"));
        }
    }
    for id in m.func_ids().collect::<Vec<_>>() {
        lsra_analysis::remove_identity_moves(m.func_mut(id));
    }
    if o.cleanup {
        for id in m.func_ids().collect::<Vec<_>>() {
            optimize_spill_code(m.func_mut(id), &spec);
            lsra_analysis::remove_identity_moves(m.func_mut(id));
        }
    }
    // Static translation validation of the JIT output. Pure byte analysis:
    // works on hosts that cannot map executable memory.
    if o.verify_native || o.emit_asm || o.corrupt_byte.is_some() {
        use second_chance_regalloc::{jit, verify};
        let code = jit::compile_module(&m, &spec).map_err(|e| format!("jit: {e}"))?;
        if o.emit_asm {
            print!("{}", verify::disasm_module(&m, &spec, &code));
        }
        if o.verify_native || o.corrupt_byte.is_some() {
            let report = match o.corrupt_byte {
                Some(off) => {
                    let mut bytes = code.encoding().to_vec();
                    if off >= bytes.len() {
                        return Err(format!(
                            "--corrupt-byte {off} out of range ({} code bytes)",
                            bytes.len()
                        ));
                    }
                    bytes[off] ^= 0xFF;
                    eprintln!("; corrupted code byte at {off:#x} before verification");
                    verify::verify_image(
                        &m.funcs,
                        m.entry,
                        &spec,
                        &bytes,
                        code.entry_offset(),
                        code.func_ranges(),
                    )
                }
                None => verify::verify_module(&m, &spec, &code),
            };
            eprint!("{}", report.render_human());
            let denied = report.denied(&o.deny);
            if denied > 0 {
                return Err(format!("{denied} denied native diagnostic(s)"));
            }
            if !report.diags.is_empty() {
                return Err(format!(
                    "native verification failed: {} diagnostic(s)",
                    report.diags.len()
                ));
            }
            eprintln!(
                "; native verify: {} function(s), {} code bytes, clean",
                m.funcs.len(),
                code.code_size()
            );
        }
    }
    if !o.emit_asm {
        print!("{m}");
    }
    eprintln!(
        "; {}: candidates={} spilled={} inserted={} coalesced={} ({:.2} ms)",
        alloc_name,
        stats.candidates,
        stats.spilled_temps,
        stats.inserted_total(),
        stats.moves_coalesced,
        stats.alloc_seconds * 1e3,
    );
    report_timings(&stats);
    if o.run {
        // Run both modules ourselves (rather than verify_allocation, which
        // panics when the *reference* faults) so every failure mode gets a
        // diagnostic instead of a crash. The original always runs on the
        // VM; `--backend native` executes the allocated side as machine
        // code, so the same comparison also cross-checks the JIT.
        let opts = VmOptions::default();
        let before = Vm::new(&original, &spec, &o.input, opts.clone())
            .run()
            .map_err(|e| format!("original program faulted: {e}"))?;
        let (after, backend_used) = run_allocated_backend(o, &m, &spec, &opts)?;
        lsra_vm::compare_runs(&before, &after).map_err(|e| format!("mismatch: {e}"))?;
        eprintln!(
            "; verified ({backend_used}): return {:?}, {} dynamic instructions ({} original)",
            after.ret, after.counts.total, before.counts.total
        );
    }
    Ok(())
}

/// Runs the allocated module on the `--backend` selected by `o`, returning
/// the result and the backend that actually ran. `native` falls back to the
/// VM (with a stderr note) when the host cannot map executable code.
fn run_allocated_backend(
    o: &Opts,
    m: &Module,
    spec: &MachineSpec,
    opts: &VmOptions,
) -> Result<(lsra_vm::RunResult, &'static str), String> {
    use second_chance_regalloc::jit;
    if o.backend == "native" {
        if jit::jit_supported() {
            let code = jit::compile_module(m, spec).map_err(|e| format!("jit: {e}"))?;
            return match code.run(&o.input, opts) {
                Ok(r) => Ok((r, "native")),
                Err(jit::JitRunError::Vm(e)) => {
                    Err(format!("mismatch: {}", lsra_vm::Mismatch::Fault(e)))
                }
                Err(jit::JitRunError::Jit(e)) => Err(format!("jit: {e}")),
            };
        }
        eprintln!("; backend native unavailable on this host; falling back to vm");
    }
    let r = Vm::new(m, spec, &o.input, opts.clone())
        .run()
        .map_err(|e| format!("mismatch: {}", lsra_vm::Mismatch::Fault(e)))?;
    Ok((r, "vm"))
}

fn cmd_report(o: &Opts) -> Result<(), String> {
    use second_chance_regalloc::trace::MetricsSink;
    let mut m = load_module(o.positional.first().ok_or("missing file")?)?;
    let spec = o.machine();
    m.check_fits(&spec).map_err(|e| format!("report: {e}"))?;
    let alloc = make_allocator(o, false).map_err(|e| format!("report: {e}"))?;
    let mut sink = MetricsSink::new();
    let stats = alloc
        .allocate_module_traced(&mut m, &spec, &mut sink)
        .ok_or_else(|| format!("report: {}", untraced_allocator(o.allocator())))?;
    let mut metrics = sink.finish();
    // `m` is still pre-postopt here, exactly the stage the quality lints
    // are defined over.
    metrics.quality_lints =
        Some(second_chance_regalloc::lint::lint_quality(&m, &spec).quality_summary());
    // Compile the allocation to machine code and statically verify it; the
    // summary lands in the report (and its JSON) as `verify_native`.
    {
        use second_chance_regalloc::{jit, verify};
        let code = jit::compile_module(&m, &spec).map_err(|e| format!("jit: {e}"))?;
        let report = verify::verify_module(&m, &spec, &code);
        metrics.verify_native = Some(second_chance_regalloc::trace::VerifyNativeSummary {
            functions: m.funcs.len() as u64,
            code_bytes: code.code_size() as u64,
            diagnostics: report.diags.len() as u64,
        });
    }
    print!("{}", metrics.report());
    eprintln!(
        "; {}: candidates={} spilled={} inserted={} ({:.2} ms)",
        alloc.name(),
        stats.candidates,
        stats.spilled_temps,
        stats.inserted_total(),
        stats.alloc_seconds * 1e3,
    );
    if let Some(path) = &o.json {
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("; metrics json: {path}");
    }
    Ok(())
}

fn cmd_lint(o: &Opts) -> Result<(), String> {
    use second_chance_regalloc::lint::{lint_input, lint_quality, Severity};
    let path = o.positional.first().ok_or("missing file")?;
    // A text file reaches the input lints with every IR rule it breaks.
    let (m, lines) = load_module_with_lines(path)?;
    let spec = o.machine();
    let mut report = lint_input(&m, lines.as_ref());
    let input_errors = report.count_severity(Severity::Error);
    if input_errors == 0 {
        // The input is sound; allocate a copy and lint the physical code
        // (before identity-move removal — the postopt pass would erase the
        // very residues Q103/Q104 exist to count).
        m.check_fits(&spec).map_err(|e| e.to_string())?;
        let alloc = make_allocator(o, false)?;
        let mut allocated = m.clone();
        alloc.allocate_module(&mut allocated, &spec);
        report.merge(lint_quality(&allocated, &spec));
    } else {
        eprintln!("; skipping quality lints: {input_errors} input error(s)");
    }
    match o.format.as_str() {
        "json" => print!("{}", report.render_jsonl()),
        _ => print!("{}", report.render_human()),
    }
    let denied = report.denied(&o.deny);
    if denied > 0 {
        return Err(format!("{denied} denied diagnostic(s)"));
    }
    Ok(())
}

fn cmd_fuzz(o: &Opts) -> Result<(), String> {
    let defaults = second_chance_regalloc::fuzz::FuzzConfig::default();
    let cfg = second_chance_regalloc::fuzz::FuzzConfig {
        seed: o.seed,
        iters: o.iters,
        machines: if o.machines.is_empty() { defaults.machines } else { o.machines.clone() },
        allocators: if o.allocators.is_empty() {
            defaults.allocators
        } else {
            o.allocators.clone()
        },
        shrink: o.shrink,
        serve: !o.no_serve,
        native: !o.no_native,
        verify: !o.no_verify,
        ..defaults
    };
    for name in &cfg.allocators {
        if !ALLOCATOR_NAMES.contains(&name.as_str()) {
            return Err(unknown_allocator(name));
        }
    }
    // The oracle intentionally drives allocators into panics; keep their
    // backtraces off the terminal while fuzzing.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = second_chance_regalloc::fuzz::run_fuzz(&cfg);
    std::panic::set_hook(hook);
    eprintln!(
        "; fuzz: seed={:#x} iters={} machines={} allocators={} cases={} native={} verify={}",
        cfg.seed,
        report.iters,
        cfg.machines.iter().map(|m| m.name()).collect::<Vec<_>>().join(","),
        cfg.allocators.join(","),
        report.cases,
        if !cfg.native {
            "off"
        } else if second_chance_regalloc::jit::jit_supported() {
            "on"
        } else {
            "skipped (cannot map executable code on this host)"
        },
        if cfg.verify { "on" } else { "off" },
    );
    let fired: Vec<String> = LintCode::ALL
        .into_iter()
        .filter(|c| report.quality_lints[c.index()] > 0)
        .map(|c| format!("{}={}", c.code(), report.quality_lints[c.index()]))
        .collect();
    if fired.is_empty() {
        eprintln!("; quality lints (advisory): none");
    } else {
        eprintln!("; quality lints (advisory): {}", fired.join(" "));
    }
    for f in &report.failures {
        eprintln!(
            "FAIL iter={} machine={} allocator={}: {}",
            f.iter, f.machine, f.allocator, f.what
        );
        match &f.shrunk_text {
            Some(text) => {
                eprintln!("; minimized repro:");
                print!("{text}");
            }
            None => print!("{}", f.module_text),
        }
        if let Some(trace) = &f.trace_text {
            eprintln!("; decision trace of the repro:");
            print!("{trace}");
        }
    }
    if report.ok() {
        eprintln!("; ok: no failures");
        Ok(())
    } else {
        Err(format!("{} failing case(s)", report.failures.len()))
    }
}

/// The service configuration shared by `serve` and in-process `loadgen`.
fn serve_config(o: &Opts) -> second_chance_regalloc::server::ServeConfig {
    second_chance_regalloc::server::ServeConfig {
        workers: o.workers,
        cache_bytes: o.cache_bytes,
        max_queue: o.max_queue,
        default_timeout_ms: o.timeout_ms,
        telemetry_log: o.telemetry_log.clone(),
        slow_ms: o.slow_ms,
        ..second_chance_regalloc::server::ServeConfig::default()
    }
}

fn cmd_serve(o: &Opts) -> Result<(), String> {
    use second_chance_regalloc::server::{serve_stdio, serve_tcp, Service};
    if o.stdio && o.addr.is_some() {
        return Err("--stdio and --addr are mutually exclusive".to_string());
    }
    let service = Service::start(serve_config(o));
    match &o.addr {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            if let Ok(local) = listener.local_addr() {
                eprintln!("; serving on {local}");
            }
            serve_tcp(std::sync::Arc::new(service), listener).map_err(|e| format!("serve: {e}"))
        }
        None => serve_stdio(&service).map_err(|e| format!("serve: {e}")),
    }
}

fn cmd_loadgen(o: &Opts) -> Result<(), String> {
    use second_chance_regalloc::server::{run_loadgen, LoadgenConfig};
    if o.positional.is_empty() {
        return Err("loadgen needs at least one workload name".to_string());
    }
    let cfg = LoadgenConfig {
        workloads: o.positional.clone(),
        requests: o.requests,
        concurrency: o.concurrency,
        dup_percent: o.dup_percent,
        seed: o.seed,
        allocator: o.allocator().to_string(),
        machine: o.machine().selector(),
        addr: o.addr.clone(),
        serve: serve_config(o),
        out_path: Some("BENCH_serve.json".to_string()),
    };
    let r = run_loadgen(&cfg)?;
    println!(
        "requests:    {} ({} clients, {}% dups)",
        r.requests, cfg.concurrency, cfg.dup_percent
    );
    println!("responses:   ok={} error={} rejected={}", r.ok, r.errors, r.rejected);
    println!("throughput:  {:.0} req/s over {:.3} s", r.throughput_rps, r.elapsed_seconds);
    println!(
        "latency:     p50={:.3} ms  p95={:.3} ms  p99={:.3} ms  max={:.3} ms",
        r.latency_ms.p50, r.latency_ms.p95, r.latency_ms.p99, r.latency_ms.max
    );
    println!(
        "server side: p50={:.3} ms  p95={:.3} ms  p99={:.3} ms  ({} samples, {})",
        r.server.latency_ms.p50,
        r.server.latency_ms.p95,
        r.server.latency_ms.p99,
        r.server.samples,
        if r.server.agreement_ok { "agrees with client" } else { "DISAGREES with client" },
    );
    println!(
        "conserved:   {} requests == {} accounted at quiescence",
        r.server.requests, r.server.accounted
    );
    println!(
        "cache:       {} hits / {} misses (hit rate {:.2})",
        r.cache_hits, r.cache_misses, r.hit_rate
    );
    println!("mismatches:  {}", r.mismatches);
    println!("report:      BENCH_serve.json");
    if r.mismatches > 0 {
        if let Some(m) = &r.first_mismatch {
            eprintln!("first mismatch: {m}");
        }
        return Err(format!("{} response(s) differed from direct allocation", r.mismatches));
    }
    Ok(())
}

/// `lsra top`: a live one-screen view of a running server, rebuilt from
/// the `metrics` op every `--interval-ms`. Latency percentiles are
/// computed over each interval by diffing consecutive histogram snapshots
/// (the first frame shows lifetime numbers — there is no earlier snapshot
/// to diff against).
fn cmd_top(o: &Opts) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    use second_chance_regalloc::server::json_in::{self, JsonValue};
    use second_chance_regalloc::telemetry::HistogramSnapshot;

    let addr = o.addr.as_ref().ok_or("top needs --addr HOST:PORT of a running `lsra serve`")?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let mut reader =
        BufReader::new(stream.try_clone().map_err(|e| format!("cloning connection: {e}"))?);
    let mut stream = stream;
    let mut call = |line: &str| -> Result<JsonValue, String> {
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        if reader.read_line(&mut resp).map_err(|e| format!("recv: {e}"))? == 0 {
            return Err("server closed the connection".to_string());
        }
        json_in::parse(resp.trim_end()).map_err(|e| format!("metrics response: {e}"))
    };

    let counter = |v: &JsonValue, k: &str| -> u64 {
        v.get("json")
            .and_then(|j| j.get("counters"))
            .and_then(|c| c.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let gauge = |v: &JsonValue, k: &str| -> i64 {
        v.get("json")
            .and_then(|j| j.get("gauges"))
            .and_then(|g| g.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as i64
    };
    let histogram = |v: &JsonValue, k: &str| -> Option<HistogramSnapshot> {
        let h = v.get("json").and_then(|j| j.get("histograms")).and_then(|hs| hs.get(k))?;
        let count = h.get("count").and_then(JsonValue::as_u64)?;
        let sum = h.get("sum").and_then(JsonValue::as_u64)?;
        let mut pairs = Vec::new();
        for b in h.get("buckets").and_then(JsonValue::as_array)? {
            let p = b.as_array().filter(|p| p.len() == 2)?;
            pairs.push((p[0].as_u64()? as usize, p[1].as_u64()?));
        }
        Some(HistogramSnapshot::from_sparse(&pairs, count, sum))
    };

    let interval = Duration::from_millis(o.interval_ms.max(1));
    let mut prev: Option<(Instant, u64, HistogramSnapshot)> = None;
    let mut frame = 0u64;
    loop {
        let v = call(r#"{"id": "top", "op": "metrics"}"#)?;
        let now = Instant::now();
        let requests = counter(&v, "lsra_requests_total");
        let hist = histogram(&v, "lsra_request").unwrap_or_default();
        // Per-interval view where possible; lifetime on the first frame.
        let (rps, window, label) = match &prev {
            Some((t0, req0, h0)) => {
                let dt = now.duration_since(*t0).as_secs_f64().max(1e-9);
                (requests.saturating_sub(*req0) as f64 / dt, hist.diff(h0), "interval")
            }
            None => (0.0, hist.clone(), "lifetime"),
        };
        let ms = |ns: u64| ns as f64 / 1e6;
        if o.frames != 1 {
            print!("\x1b[2J\x1b[H");
        }
        println!("lsra serve @ {addr} — frame {frame}, every {} ms", o.interval_ms);
        println!("requests:  {requests} total, {rps:.1} req/s");
        println!(
            "alloc:     p50={:.3} ms  p95={:.3} ms  p99={:.3} ms  ({} samples, {label})",
            ms(window.quantile(0.50)),
            ms(window.quantile(0.95)),
            ms(window.quantile(0.99)),
            window.count,
        );
        println!(
            "queue:     depth={}  in_flight={}",
            gauge(&v, "lsra_queue_depth"),
            gauge(&v, "lsra_in_flight")
        );
        let (hits, misses) =
            (counter(&v, "lsra_cache_hits_total"), counter(&v, "lsra_cache_misses_total"));
        let lookups = hits + misses;
        println!(
            "cache:     {hits} hits / {misses} misses (hit rate {:.2}), {} entries, {:.1} MiB",
            if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            gauge(&v, "lsra_cache_entries"),
            gauge(&v, "lsra_cache_bytes") as f64 / (1 << 20) as f64,
        );
        println!(
            "responses: ok={} error={} timeout={} overloaded={} too_large={} inline={}",
            counter(&v, "lsra_responses_ok_total"),
            counter(&v, "lsra_responses_error_total"),
            counter(&v, "lsra_responses_timeout_total"),
            counter(&v, "lsra_responses_overloaded_total"),
            counter(&v, "lsra_responses_too_large_total"),
            counter(&v, "lsra_responses_inline_total"),
        );
        println!("panics:    {}", counter(&v, "lsra_worker_panics_total"));
        frame += 1;
        if o.frames != 0 && frame >= o.frames {
            return Ok(());
        }
        prev = Some((now, requests, hist));
        std::thread::sleep(interval);
    }
}

fn cmd_workloads() -> Result<(), String> {
    for w in lsra_workloads::all() {
        println!("{:<10} {}", w.name, w.description);
    }
    Ok(())
}

fn cmd_bench(o: &Opts) -> Result<(), String> {
    if o.backend == "native" {
        return cmd_bench_native(o);
    }
    let name = o.positional.first().ok_or("missing workload name")?;
    let w = lsra_workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let alloc = make_allocator(o, false)?;
    let original = (w.build)();
    let input = (w.input)();
    let mut m = original.clone();
    let spec = o.machine();
    let stats = allocate_and_cleanup(&mut m, alloc.as_ref(), &spec);
    let r = verify_allocation(&original, &m, &spec, &input, VmOptions::default())
        .map_err(|e| e.to_string())?;
    println!("workload:   {name}");
    println!("allocator:  {}", alloc.name());
    println!("candidates: {}", stats.candidates);
    println!("alloc time: {:.3} ms", stats.alloc_seconds * 1e3);
    report_timings(&stats);
    println!("dyn insts:  {}", r.counts.total);
    println!(
        "spill:      {} ({:.3}%), evict(l/s/m)={:?}, resolve(l/s/m)={:?}",
        r.counts.spill_total(),
        100.0 * r.counts.spill_fraction(),
        r.counts.evict(),
        r.counts.resolve(),
    );
    // A separate metrics-instrumented allocation on a fresh clone, so the
    // sink's cost never lands in the `alloc time` figure above.
    let mut sink = second_chance_regalloc::trace::MetricsSink::new();
    if alloc.allocate_module_traced(&mut original.clone(), &spec, &mut sink).is_some() {
        let path = "BENCH_alloc_metrics.json";
        std::fs::write(path, sink.finish().to_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics:    {path}");
    }
    Ok(())
}

/// `lsra bench --backend native`: the paper's §4 measurement closed on real
/// hardware. For every allocator, the workload is allocated, JIT-compiled,
/// and executed `--exec-runs` times; each run's wall-clock nanoseconds go
/// through a telemetry histogram so the table reports p50/p95 rather than a
/// single noisy sample. One interpreted run per allocator provides the
/// static/dynamic/wall-clock comparison and a native-vs-VM equality check.
/// Everything is written to `BENCH_exec_time.json`.
fn cmd_bench_native(o: &Opts) -> Result<(), String> {
    use second_chance_regalloc::jit;
    use second_chance_regalloc::trace::json::JsonWriter;

    let name = o.positional.first().map(String::as_str).unwrap_or("sort");
    let w = lsra_workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let original = (w.build)();
    let input = (w.input)();
    let spec = o.machine();
    let supported = jit::jit_supported();
    if !supported {
        eprintln!("; backend native unavailable on this host; recording vm-only figures");
    }

    struct Row {
        allocator: &'static str,
        dyn_insts: u64,
        code_bytes: usize,
        vm_ns: u64,
        native: Option<lsra_telemetry::HistogramSnapshot>,
        checked_vs_vm: bool,
    }
    let mut rows = Vec::new();
    for alloc_name in ALLOCATOR_NAMES {
        let alloc = allocator_by_name(alloc_name, o.workers, false).expect("registered name");
        let mut m = original.clone();
        allocate_and_cleanup(&mut m, alloc.as_ref(), &spec);
        let vm_t0 = std::time::Instant::now();
        let vm_run = Vm::new(&m, &spec, &input, VmOptions::default())
            .run()
            .map_err(|e| format!("{alloc_name}: vm run faulted: {e}"))?;
        let vm_ns = vm_t0.elapsed().as_nanos() as u64;
        let (code_bytes, native, checked_vs_vm) = if supported {
            let code =
                jit::compile_module(&m, &spec).map_err(|e| format!("{alloc_name}: jit: {e}"))?;
            let mapped = code.map().map_err(|e| format!("{alloc_name}: jit: {e}"))?;
            // Lock-free histogram from the telemetry crate: nanoseconds per
            // run, quantiles over --exec-runs samples.
            let hist = lsra_telemetry::Histogram::new();
            let mut checked = true;
            for _ in 0..o.exec_runs {
                let t0 = std::time::Instant::now();
                let r = mapped
                    .run(&input, &VmOptions::default())
                    .map_err(|e| format!("{alloc_name}: native run faulted: {e}"))?;
                hist.record(t0.elapsed().as_nanos() as u64);
                checked &= r == vm_run;
            }
            (code.code_size(), Some(hist.snapshot()), checked)
        } else {
            (0, None, false)
        };
        rows.push(Row {
            allocator: alloc_name,
            dyn_insts: vm_run.counts.total,
            code_bytes,
            vm_ns,
            native,
            checked_vs_vm,
        });
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    println!("workload:   {name} (machine {}, {} native runs)", spec.name(), o.exec_runs);
    println!(
        "{:<10} {:>12} {:>10} {:>12} {:>12} {:>12}  vs vm",
        "allocator", "dyn insts", "code B", "native p50", "native p95", "vm once"
    );
    for r in &rows {
        let (p50, p95) = r
            .native
            .as_ref()
            .map(|h| {
                (format!("{:.3}", ms(h.quantile(0.5))), format!("{:.3}", ms(h.quantile(0.95))))
            })
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        println!(
            "{:<10} {:>12} {:>10} {:>12} {:>12} {:>12.3}  {}",
            r.allocator,
            r.dyn_insts,
            r.code_bytes,
            p50,
            p95,
            ms(r.vm_ns),
            if r.native.is_none() {
                "skipped"
            } else if r.checked_vs_vm {
                "ok"
            } else {
                "MISMATCH"
            },
        );
    }

    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_str("workload", name);
    j.field_str("machine", &spec.selector());
    j.field_str("backend", "native");
    j.key("jit_supported");
    j.bool(supported);
    j.field_uint("exec_runs", o.exec_runs as u64);
    j.key("allocators");
    j.begin_array();
    for r in &rows {
        j.begin_object();
        j.field_str("allocator", r.allocator);
        j.field_uint("dyn_insts", r.dyn_insts);
        j.field_uint("code_bytes", r.code_bytes as u64);
        j.field_uint("vm_exec_ns", r.vm_ns);
        j.key("checked_vs_vm");
        j.bool(r.checked_vs_vm);
        j.key("exec_ns");
        match &r.native {
            Some(h) => {
                j.begin_object();
                j.field_uint("count", h.count);
                j.field_uint("min", h.min);
                j.field_uint("p50", h.quantile(0.5));
                j.field_uint("p95", h.quantile(0.95));
                j.field_uint("mean", h.sum.checked_div(h.count).unwrap_or(0));
                j.end_object();
            }
            None => j.null(),
        }
        j.end_object();
    }
    j.end_array();
    j.end_object();
    let path = "BENCH_exec_time.json";
    std::fs::write(path, j.finish()).map_err(|e| format!("writing {path}: {e}"))?;
    println!("report:     {path}");
    for r in &rows {
        if r.native.is_some() && !r.checked_vs_vm {
            return Err(format!("{}: native run differed from the VM", r.allocator));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else { return usage() };
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "print" => cmd_print(&opts),
        "run" => cmd_run(&opts),
        "alloc" => cmd_alloc(&opts),
        "lint" => cmd_lint(&opts),
        "report" => cmd_report(&opts),
        "workloads" => cmd_workloads(),
        "bench" => cmd_bench(&opts),
        "fuzz" => cmd_fuzz(&opts),
        "serve" => cmd_serve(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "top" => cmd_top(&opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
