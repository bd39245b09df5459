//! Differential fuzzing of every register allocator.
//!
//! Each iteration derives a deterministic sub-seed, draws adversarial shape
//! knobs (float mix, critical-edge density, swap-heavy diamonds, register
//! pressure against the machine under test), generates a random module, and
//! runs every requested allocator (all five by default) through a
//! six-stage oracle:
//!
//! 1. the allocation itself must not panic and its output must
//!    [`validate`](lsra_ir::Module::validate);
//! 2. the symbolic checker ([`lsra_checker::check_module`]) must prove every
//!    read sees the right temporary's value, and every allocator-inserted
//!    copy reads a location that holds some value;
//! 3. differential execution against the pre-allocation module must agree on
//!    return value, output trace, and final memory;
//! 4. (cases that pass 1–3) a service round-trip: the module is sent as an
//!    inline-program request through a shared in-process allocation server
//!    ([`lsra_server::Service`]) and the response — allocation statistics
//!    and allocated module text — must match a direct, cache-free
//!    execution of the same request **byte-for-byte**. This hammers the
//!    protocol's parse/render paths and the content-addressed result cache
//!    (repeated and colliding keys must never change a response). The case
//!    is then sent again, reformatted by [`reformat_program`]: the reply
//!    must be the same bytes and must be a cache hit, which exercises the
//!    service's second, canonical-key probe;
//! 5. (cases that pass 1–3, on hosts where [`lsra_jit::jit_supported`])
//!    native differential execution: the allocated module is JIT-compiled
//!    to x86-64 and executed, and its **entire** [`lsra_vm::RunResult`] —
//!    return value, output bytes, final-memory checksum, and every
//!    [`lsra_vm::DynCounts`] field — must equal the VM's run of the same
//!    allocated module. This cross-checks two independent implementations
//!    of the IR's semantics instruction by instruction; disable with
//!    [`FuzzConfig::native`] (`--no-native`), and it auto-skips on hosts
//!    without executable-memory support;
//! 6. (cases that pass 1–3, on **every** host) static translation
//!    validation: the same compiled image is decoded back into a typed
//!    instruction stream and symbolically verified against the allocated
//!    IR ([`lsra_verify::verify_module`]) — any `N0xx` diagnostic fails
//!    the case. Unlike stage 5 this needs no executable memory, so the
//!    machine-code backend stays under differential test even on noexec
//!    hosts; disable with [`FuzzConfig::verify`] (`--no-verify`).
//!
//! Alongside the hard oracle, every allocation that passes stage 2 is run
//! through the Family B quality lints ([`lsra_lint::lint_quality`], before
//! identity-move removal) and the per-code counts are accumulated into
//! [`FuzzReport::quality_lints`]. These are **advisory** — a dead spill
//! store is wasted work, not a wrong answer — so they never fail a case;
//! the driver prints the tally at the end of the run.
//!
//! Failures optionally go through the delta-debugging shrinker
//! ([`lsra_checker::shrink_module`]), producing a minimal `.lsra` text
//! repro. Everything is deterministic in the base seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lsra_ir::{MachineSpec, Module, RegClass};
use lsra_vm::{compare_runs, Vm, VmOptions};
use lsra_workloads::random::{RandomConfig, RandomProgram};
use lsra_workloads::Lcg;

use lsra_server::protocol::unknown_allocator;
pub use lsra_server::protocol::{allocator_by_name, ALLOCATOR_NAMES};

/// Configuration for [`run_fuzz`].
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Base seed; every iteration derives its own sub-seed from it.
    pub seed: u64,
    /// Number of iterations (random modules per machine).
    pub iters: u64,
    /// Machines to allocate for.
    pub machines: Vec<MachineSpec>,
    /// Allocator names (see [`ALLOCATOR_NAMES`]).
    pub allocators: Vec<String>,
    /// Minimize failing modules with the delta-debugging shrinker.
    pub shrink: bool,
    /// Stop after this many failures (0 = collect every failure).
    pub max_failures: usize,
    /// Round-trip every passing case through an in-process allocation
    /// server and require a byte-identical response to direct allocation.
    pub serve: bool,
    /// JIT-compile every passing case and require the native run to equal
    /// the VM's run field-for-field (auto-skipped on hosts that cannot map
    /// executable code).
    pub native: bool,
    /// Statically verify every JIT-compiled case against its allocated IR
    /// (decoder + symbolic machine-code verifier). Runs on every host —
    /// static verification needs no executable memory.
    pub verify: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x5eed_1998,
            iters: 100,
            machines: vec![
                MachineSpec::small(2, 1),
                MachineSpec::small(4, 2),
                MachineSpec::alpha_like(),
            ],
            allocators: ALLOCATOR_NAMES.iter().map(|s| s.to_string()).collect(),
            shrink: false,
            max_failures: 5,
            serve: true,
            native: true,
            verify: true,
        }
    }
}

/// One allocator failure found while fuzzing.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Iteration index that produced the module.
    pub iter: u64,
    /// Machine name.
    pub machine: String,
    /// Allocator name.
    pub allocator: String,
    /// Which oracle stage failed, and how.
    pub what: String,
    /// The failing module as `.lsra` text.
    pub module_text: String,
    /// The shrunk repro as `.lsra` text, when shrinking was requested and
    /// the minimized module still fails.
    pub shrunk_text: Option<String>,
    /// Annotated decision trace of the failing case (the shrunk module when
    /// one exists, else the original). `None` for the baseline allocators,
    /// which emit no trace events.
    pub trace_text: Option<String>,
}

/// Summary of a [`run_fuzz`] run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations completed.
    pub iters: u64,
    /// Individual (module, allocator) cases checked.
    pub cases: u64,
    /// Failures found (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
    /// Advisory Family B quality-lint tallies across all valid allocations,
    /// indexed by [`lsra_lint::LintCode::index`].
    pub quality_lints: [u64; lsra_lint::NUM_CODES],
}

impl FuzzReport {
    /// True when no failure was found.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// VM budget for fuzz executions: generated programs burn their own loop
/// fuel quickly, so this is a runaway guard, not a tuning knob.
fn vm_options() -> VmOptions {
    VmOptions { fuel: 10_000_000, max_depth: 500 }
}

/// Draws per-iteration shape knobs, scaled to what `spec` can express
/// (machines with a single float register get no binary float arithmetic,
/// machines with few argument registers get fewer helpers).
fn shape(rng: &mut Lcg, spec: &MachineSpec) -> RandomConfig {
    let floatable = spec.num_regs(RegClass::Float) >= 2;
    RandomConfig {
        blocks: 3 + rng.below(8) as usize,
        insts_per_block: 3 + rng.below(9) as usize,
        global_temps: 4 + rng.below(14) as usize,
        helpers: rng.below(3) as usize,
        call_percent: rng.below(30),
        fuel: 60 + rng.below(200) as i64,
        float_percent: if floatable { rng.below(41) } else { 0 },
        critical_edge_percent: rng.below(60),
        diamond_percent: rng.below(50),
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

/// Runs one (module, allocator, machine) case through the full oracle.
///
/// # Errors
///
/// Returns a description of the first failing oracle stage.
pub fn check_case(original: &Module, allocator: &str, spec: &MachineSpec) -> Result<(), String> {
    check_case_tallying(original, allocator, spec, &mut [0; lsra_lint::NUM_CODES])
}

/// [`check_case`], additionally accumulating the advisory Family B
/// quality-lint tally (run on the validated allocation *before*
/// identity-move removal) into `lints`. Lint findings never fail the case.
pub fn check_case_tallying(
    original: &Module,
    allocator: &str,
    spec: &MachineSpec,
    lints: &mut [u64; lsra_lint::NUM_CODES],
) -> Result<(), String> {
    check_case_impl(original, allocator, spec, lints, true, true)
}

fn check_case_impl(
    original: &Module,
    allocator: &str,
    spec: &MachineSpec,
    lints: &mut [u64; lsra_lint::NUM_CODES],
    native: bool,
    verify: bool,
) -> Result<(), String> {
    let alloc =
        allocator_by_name(allocator, 0, false).ok_or_else(|| unknown_allocator(allocator))?;
    let mut m = original.clone();
    catch_unwind(AssertUnwindSafe(|| {
        alloc.allocate_module(&mut m, spec);
    }))
    .map_err(|p| format!("allocator panicked: {}", panic_message(p)))?;
    m.validate().map_err(|e| format!("invalid allocator output: {e}"))?;
    lsra_checker::check_module(original, &m, spec)
        .map_err(|e| format!("symbolic check failed: {e}"))?;
    for (slot, n) in lints.iter_mut().zip(lsra_lint::lint_quality(&m, spec).tally()) {
        *slot += n;
    }
    for id in m.func_ids().collect::<Vec<_>>() {
        lsra_analysis::remove_identity_moves(m.func_mut(id));
    }
    let before = Vm::new(original, spec, &[], vm_options())
        .run()
        .map_err(|e| format!("reference run faulted: {e}"))?;
    let after = Vm::new(&m, spec, &[], vm_options())
        .run()
        .map_err(|e| format!("allocated run faulted: {e}"))?;
    compare_runs(&before, &after).map_err(|e| format!("differential run: {e}"))?;
    let exec_native = native && lsra_jit::jit_supported();
    if exec_native || verify {
        // Compile once: stage 5 (dynamic differential execution, exec hosts
        // only) and stage 6 (static verification, every host) share the
        // image.
        let code = lsra_jit::compile_module(&m, spec)
            .map_err(|e| format!("native stage: compile failed on a validated allocation: {e}"))?;
        if verify {
            let vreport = lsra_verify::verify_module(&m, spec, &code);
            if !vreport.diags.is_empty() {
                return Err(format!(
                    "static native verification: {} diagnostic(s) on a validated allocation:\n{}",
                    vreport.diags.len(),
                    vreport.render_human()
                ));
            }
        }
        if exec_native {
            check_native_case(&code, &after)?;
        }
    }
    Ok(())
}

/// Oracle stage 5: JIT-compiles the allocated module and requires the
/// native [`lsra_vm::RunResult`] to equal the VM's field-for-field —
/// including every dynamic-count field, which pins the two backends to the
/// same instruction-by-instruction account of the program.
fn check_native_case(
    code: &lsra_jit::CodeBuffer,
    vm_result: &lsra_vm::RunResult,
) -> Result<(), String> {
    let native = code
        .run(&[], &vm_options())
        .map_err(|e| format!("native stage: native run faulted but the VM's succeeded: {e}"))?;
    if native != *vm_result {
        return Err(format!(
            "native differential: native run disagrees with the VM\n  vm:     ret={:?} \
             counts={:?} checksum={:#x}\n  native: ret={:?} counts={:?} checksum={:#x}",
            vm_result.ret,
            vm_result.counts,
            vm_result.memory_checksum,
            native.ret,
            native.counts,
            native.memory_checksum,
        ));
    }
    Ok(())
}

/// Best-effort annotated decision trace of allocating `original` (binpack
/// family and ion only — the baselines emit no events). When the allocation
/// panics or produces an invalid module, the events recorded up to that
/// point are rendered as plain log lines instead, so the trace still shows
/// the last decisions before the failure.
fn trace_failure(original: &Module, allocator: &str, spec: &MachineSpec) -> Option<String> {
    let mut m = original.clone();
    let mut sink = lsra_trace::RecordSink::default();
    let alloc = allocator_by_name(allocator, 0, false)?;
    let completed = match catch_unwind(AssertUnwindSafe(|| {
        alloc.allocate_module_traced(&mut m, spec, &mut sink)
    })) {
        Ok(None) => return None,
        Ok(Some(_)) => true,
        Err(_) => false,
    };
    if completed && m.validate().is_ok() {
        Some(lsra_trace::annotate(&m, &sink.events))
    } else {
        let mut out = String::from("; allocation died mid-function; decisions so far:\n");
        for ev in &sink.events {
            out.push_str(&ev.describe());
            out.push('\n');
        }
        Some(out)
    }
}

/// `text` laid out differently without changing the module it denotes:
/// every line indented two more spaces and followed by a blank line, and a
/// whole-line `; comment` before every fourth line. The service must serve
/// such a copy from the entry its canonical text made.
pub fn reformat_program(text: &str) -> String {
    let mut out = String::with_capacity(2 * text.len());
    for (i, line) in text.lines().enumerate() {
        if i % 4 == 0 {
            out.push_str("  ; reformatted\n");
        }
        out.push_str("  ");
        out.push_str(line);
        out.push_str("\n\n");
    }
    out
}

/// Oracle stage 4: sends the case through `service` as an inline-program
/// request (`emit_module: true`, machine named by its selector) and
/// compares the served response byte-for-byte against
/// [`lsra_server::expected_response_line`] — a direct, cache-free
/// execution of the same request. Then sends the case again as
/// [`reformat_program`] text: the reply must be the same bytes, served as
/// a cache hit through the canonical-key probe. Only called for cases that
/// passed the in-process oracle, so direct allocation is known not to
/// panic.
fn check_serve_case(
    service: &lsra_server::Service,
    module: &Module,
    allocator: &str,
    spec: &MachineSpec,
) -> Result<(), String> {
    let request = |program: &str| {
        let mut w = lsra_trace::json::JsonWriter::new();
        w.begin_object();
        w.field_str("id", "fuzz");
        w.field_str("program", program);
        w.field_str("allocator", allocator);
        w.field_str("machine", &spec.selector());
        w.key("emit_module");
        w.bool(true);
        w.end_object();
        w.finish()
    };
    let text = format!("{module}");
    let line = request(&text);
    let req = match lsra_server::parse_request(&line) {
        Ok(lsra_server::ParsedLine::Alloc(r)) => *r,
        Ok(_) => return Err("fuzz built a non-alloc service request".to_string()),
        Err((_, msg)) => return Err(format!("service rejected the fuzz request: {msg}")),
    };
    let want = lsra_server::expected_response_line(&req);
    let got = service.call(&line);
    if got != want {
        return Err(format!("service round-trip mismatch:\n  served: {got}\n  direct: {want}"));
    }
    let hits = service.counters().cache_hits;
    let got = service.call(&request(&reformat_program(&text)));
    if got != want {
        return Err(format!("reformatted-program mismatch:\n  served: {got}\n  direct: {want}"));
    }
    if service.counters().cache_hits != hits + 1 {
        return Err("the reformatted program was not served from the cache".to_string());
    }
    Ok(())
}

/// True when the module itself is a sane fuzz subject: structurally valid
/// and clean under reference execution. Shrink candidates that break this
/// are uninteresting (the "failure" would be the program's, not the
/// allocator's).
fn reference_clean(m: &Module, spec: &MachineSpec) -> bool {
    m.validate().is_ok() && Vm::new(m, spec, &[], vm_options()).run().is_ok()
}

/// Runs the fuzz loop described in the module docs.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    // One shared server for the whole run, so its result cache sees every
    // case and repeated lookups are part of what the oracle exercises.
    let service = cfg.serve.then(|| {
        lsra_server::Service::start(lsra_server::ServeConfig {
            workers: 1,
            ..lsra_server::ServeConfig::default()
        })
    });
    'iters: for iter in 0..cfg.iters {
        let sub_seed = cfg.seed ^ iter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for spec in &cfg.machines {
            let mut rng = Lcg::new(sub_seed);
            let module = RandomProgram::new(sub_seed, shape(&mut rng, spec)).build(spec);
            debug_assert!(reference_clean(&module, spec), "generator produced a faulting module");
            for name in &cfg.allocators {
                report.cases += 1;
                let (what, serve_stage) = match check_case_impl(
                    &module,
                    name,
                    spec,
                    &mut report.quality_lints,
                    cfg.native,
                    cfg.verify,
                ) {
                    Err(e) => (e, false),
                    Ok(()) => {
                        let Some(service) = service.as_ref() else { continue };
                        match check_serve_case(service, &module, name, spec) {
                            Ok(()) => continue,
                            Err(e) => (e, true),
                        }
                    }
                };
                // Trace the smallest module that still fails: the shrunk
                // repro when shrinking is on, the original otherwise. A
                // serve-stage mismatch passes `check_case`, so the shrink
                // oracle (which reruns it) cannot minimize those.
                let mut shrunk_text = None;
                let shrunk_mod;
                let mut trace_subject = &module;
                if cfg.shrink && !serve_stage {
                    let mut oracle = |c: &Module| {
                        reference_clean(c, spec)
                            && check_case_impl(
                                c,
                                name,
                                spec,
                                &mut [0; lsra_lint::NUM_CODES],
                                cfg.native,
                                cfg.verify,
                            )
                            .is_err()
                    };
                    let (small, _) = lsra_checker::shrink_module(&module, &mut oracle);
                    shrunk_text = Some(format!("{small}"));
                    shrunk_mod = small;
                    trace_subject = &shrunk_mod;
                }
                let trace_text = trace_failure(trace_subject, name, spec);
                report.failures.push(FuzzFailure {
                    iter,
                    machine: spec.name().to_string(),
                    allocator: name.clone(),
                    what,
                    module_text: format!("{module}"),
                    shrunk_text,
                    trace_text,
                });
                if cfg.max_failures != 0 && report.failures.len() >= cfg.max_failures {
                    report.iters = iter + 1;
                    break 'iters;
                }
            }
        }
        report.iters = iter + 1;
    }
    report
}
