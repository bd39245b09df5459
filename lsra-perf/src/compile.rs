//! The compile workloads: `spec-native`, `table3` and `scale-huge`.
//!
//! Each is a fixed list of items (a program and an allocator). A round runs
//! every item once, in list order first and then in orders drawn from the
//! seed; the measured pass runs the number of whole rounds that comes
//! closest to `--seconds`. Every allocated program is run and compared with
//! a run of the unallocated program made during set-up.

use std::collections::BTreeMap;
use std::time::Instant;

use lsra_analysis::{Dominators, Lifetimes, Liveness, LoopInfo, Order};
use lsra_core::{AllocStats, BinpackAllocator, BinpackConfig, RegisterAllocator, PHASE_NAMES};
use lsra_ir::{MachineSpec, Module};
use lsra_vm::{RunResult, Vm, VmOptions};
use lsra_workloads::{scaling, Lcg};

use crate::check::{self, Tally};
use crate::names::{ALLOCATORS, ALLOC_SPANS, RUN_SPANS};
use crate::stats;
use crate::trace::Tracer;
use crate::{add, note_latencies, set_alloc_throughput, set_setup, timed_setup, Opts, Report};

/// Native runs per `spec-native` item.
const NATIVE_RUNS: usize = 5;

struct Program {
    name: String,
    module: Module,
    input: Vec<u8>,
    reference: RunResult,
}

#[derive(Clone, Copy)]
struct Item {
    program: usize,
    alloc: usize,
}

struct Corpus {
    programs: Vec<Program>,
    items: Vec<Item>,
    /// Compile and run natively (`spec-native`) rather than allocate and
    /// check on the VM.
    native: bool,
}

fn allocator(i: usize, time_phases: bool) -> Box<dyn RegisterAllocator> {
    let binpack = |c: BinpackConfig| -> Box<dyn RegisterAllocator> {
        Box::new(BinpackAllocator::new(BinpackConfig { workers: 1, time_phases, ..c }))
    };
    match ALLOCATORS[i] {
        "binpack" => binpack(BinpackConfig::default()),
        "two-pass" => binpack(BinpackConfig::two_pass()),
        "coloring" => Box::new(lsra_coloring::ColoringAllocator),
        "poletto" => Box::new(lsra_poletto::PolettoAllocator),
        "ion" => Box::new(lsra_ion::IonAllocator),
        other => unreachable!("allocator `{other}` has no constructor"),
    }
}

fn alloc_index(name: &str) -> usize {
    ALLOCATORS.iter().position(|a| *a == name).expect("allocator in the table")
}

/// Builds the workload's programs and runs each unallocated once for the
/// reference result.
fn corpus(workload: &str, tiny: bool, spec: &MachineSpec) -> Result<Corpus, String> {
    let all_allocs: Vec<usize> = (0..ALLOCATORS.len()).collect();
    // (name, module, input, allocators)
    let mut built: Vec<(String, Module, Vec<u8>, Vec<usize>)> = Vec::new();
    match workload {
        "spec-native" => {
            if !lsra_jit::jit_supported() {
                return Err("spec-native runs generated code, and this host cannot map \
                            executable pages"
                    .to_string());
            }
            for w in lsra_workloads::all() {
                if !tiny || ["tomcatv", "compress"].contains(&w.name) {
                    built.push((w.name.to_string(), (w.build)(), (w.input)(), all_allocs.clone()));
                }
            }
        }
        "table3" => {
            let medium = if tiny { 5_000 } else { 100_000 };
            let mut modules = vec![("cvrin-like", scaling::cvrin_like())];
            if !tiny {
                modules.push(("twldrv-like", scaling::twldrv_like()));
                modules.push(("fpppp-like", scaling::fpppp_like()));
            }
            modules.push(("many-medium", scaling::many_medium("many-medium", medium)));
            for (name, m) in modules {
                built.push((name.to_string(), m, Vec::new(), all_allocs.clone()));
            }
        }
        "scale-huge" => {
            // Each allocator gets the largest function it allocates in well
            // under a second or two: ion's cost and coloring's interference
            // graph grow much faster than the linear scans'.
            let linear: &[&str] = &["binpack", "two-pass", "poletto"];
            let sizes: [(usize, &[&str]); 3] = if tiny {
                [(5_000, linear), (2_000, &["ion"]), (3_000, &["coloring"])]
            } else {
                [(200_000, linear), (50_000, &["ion"]), (30_000, &["coloring"])]
            };
            for (size, allocs) in sizes {
                let module = scaling::one_huge("huge", size);
                let allocs = allocs.iter().map(|a| alloc_index(a)).collect();
                built.push((format!("huge-{size}"), module, Vec::new(), allocs));
            }
        }
        other => return Err(format!("`{other}` is not a compile workload")),
    }
    let mut programs = Vec::new();
    let mut items = Vec::new();
    for (name, module, input, allocs) in built {
        let reference = Vm::new(&module, spec, &input, VmOptions::default())
            .run()
            .map_err(|e| format!("{name}: unallocated program faulted: {e}"))?;
        for alloc in allocs {
            items.push(Item { program: programs.len(), alloc });
        }
        programs.push(Program { name, module, input, reference });
    }
    Ok(Corpus { programs, items, native: workload == "spec-native" })
}

/// Size of the native code for allocated module `m`, compiled as
/// `spec-native` compiles it: after identity-move clean-up.
pub fn code_bytes(m: &mut Module, spec: &MachineSpec) -> Result<u64, String> {
    for f in &mut m.funcs {
        lsra_analysis::remove_identity_moves(f);
    }
    lsra_jit::compile_module(m, spec).map(|c| c.code_size() as u64).map_err(|e| format!("jit: {e}"))
}

/// What one item measured.
#[derive(Default)]
struct ItemOut {
    /// Whole item: allocation, or compile plus native runs.
    latency_s: f64,
    /// `allocate_module` alone.
    alloc_s: f64,
    /// Allocate + clean up + JIT + verify (`spec-native` only).
    compile_s: f64,
    /// Each native run (`spec-native` only).
    native_s: Vec<f64>,
    stats: AllocStats,
    dyn_total: u64,
    dyn_spill: u64,
    code_bytes: u64,
    diagnostics: u64,
}

/// Runs one item. `size_code` asks a VM-checked item to also compile its
/// result for the code size, outside the timed part.
fn run_item(
    c: &Corpus,
    item: Item,
    alloc: &dyn RegisterAllocator,
    spec: &MachineSpec,
    tr: &mut Tracer,
    tally: &mut Tally,
    size_code: bool,
) -> ItemOut {
    let p = &c.programs[item.program];
    let what = format!("{}/{}", p.name, ALLOCATORS[item.alloc]);
    let mut out = ItemOut::default();
    let mut m = p.module.clone();
    let start = Instant::now();
    out.stats = tr.span(ALLOC_SPANS[item.alloc], |_| alloc.allocate_module(&mut m, spec));
    out.alloc_s = start.elapsed().as_secs_f64();
    if !c.native {
        out.latency_s = out.alloc_s;
        let got = tr.span("vm.run", |_| {
            Vm::new(&m, spec, &p.input, VmOptions::default()).run().map_err(|e| e.to_string())
        });
        if let Ok(r) = &got {
            out.dyn_total = r.counts.total;
            out.dyn_spill = r.counts.spill_total();
        }
        tally.run(&what, &p.reference, &got);
        if size_code {
            let bytes = code_bytes(&mut m, spec);
            tally.record(bytes.as_ref().err().map(|e| format!("{what}: {e}")));
            out.code_bytes = bytes.unwrap_or(0);
        }
        return out;
    }
    tr.span("analysis.remove_identity_moves", |_| {
        for f in &mut m.funcs {
            lsra_analysis::remove_identity_moves(f);
        }
    });
    let code = match tr.span("jit.compile_module", |_| lsra_jit::compile_module(&m, spec)) {
        Ok(code) => code,
        Err(e) => {
            tally.record(Some(format!("{what}: jit: {e}")));
            return out;
        }
    };
    out.code_bytes = code.code_size() as u64;
    let report = tr.span("verify.verify_module", |_| lsra_verify::verify_module(&m, spec, &code));
    out.diagnostics = report.len() as u64;
    tally.record(
        report.diags.first().map(|d| {
            format!("{what}: verifier: {} diagnostics, first: {}", report.len(), d.message)
        }),
    );
    out.compile_s = start.elapsed().as_secs_f64();
    let mapped = match tr.span("jit.map", |_| code.map()) {
        Ok(mapped) => mapped,
        Err(e) => {
            tally.record(Some(format!("{what}: map: {e}")));
            return out;
        }
    };
    for _ in 0..NATIVE_RUNS {
        let t = Instant::now();
        let got = tr.span(RUN_SPANS[item.alloc], |_| {
            mapped.run(&p.input, &VmOptions::default()).map_err(check::native_error)
        });
        out.native_s.push(t.elapsed().as_secs_f64());
        if let Ok(r) = &got {
            out.dyn_total = r.counts.total;
            out.dyn_spill = r.counts.spill_total();
        }
        tally.run(&what, &p.reference, &got);
    }
    out.latency_s = start.elapsed().as_secs_f64();
    out
}

/// Item indices in a seeded order.
fn shuffled(n: usize, rng: &mut Lcg) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Runs whole rounds until the time run is the closest a whole number of
/// rounds gets to `seconds` (at least one; exactly `fixed` when given). `step` gets `None` as each round starts,
/// then `Some(i)` for every item. Returns the rounds run and their seconds.
///
/// The first round takes the items in list order and later rounds a seeded
/// order. The first round is where each VM-checked result is compiled once
/// for its code size; doing those large compiles in the same order on every
/// seed keeps the run's peak memory from depending on the seed.
fn rounds(
    c: &Corpus,
    seconds: f64,
    fixed: Option<usize>,
    rng: &mut Lcg,
    mut step: impl FnMut(Option<usize>),
) -> (usize, f64) {
    let t0 = Instant::now();
    let mut done = 0;
    loop {
        step(None);
        let order =
            if done == 0 { (0..c.items.len()).collect() } else { shuffled(c.items.len(), rng) };
        for i in order {
            step(Some(i));
        }
        done += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let stop = match fixed {
            Some(n) => done >= n,
            None => elapsed + elapsed / done as f64 / 2.0 > seconds,
        };
        if stop {
            return (done, elapsed);
        }
    }
}

/// Runs one compile workload.
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    let spec = MachineSpec::alpha_like();
    let mut report = Report::default();
    let (c, setups) = timed_setup(&mut report.host, || corpus(workload, opts.tiny, &spec))?;
    if opts.traced {
        traced(&c, opts, &spec, &mut report);
    } else {
        measured(&c, opts, &spec, &mut report);
    }
    set_setup(&mut report, &setups);
    Ok(report)
}

/// Output sizes of one item's result; they do not change from round to
/// round.
#[derive(Clone, Copy)]
struct Quality {
    dyn_spill: u64,
    spill_insts: u64,
    code_bytes: u64,
}

fn measured(c: &Corpus, opts: &Opts, spec: &MachineSpec, report: &mut Report) {
    let allocs: Vec<_> = (0..ALLOCATORS.len()).map(|i| allocator(i, false)).collect();
    let mut tr = Tracer::new(false);
    let mut rng = Lcg::new(opts.seed);
    let n = c.items.len();
    // Per item: when each sample ended, and its whole and allocation seconds.
    let mut samples: Vec<Vec<(Instant, f64, f64)>> = vec![Vec::new(); n];
    let mut compile = vec![Vec::new(); n];
    let mut native = vec![Vec::new(); n];
    let mut quality: Vec<Option<Quality>> = vec![None; n];
    let (tally, host) = (&mut report.tally, &mut report.host);
    let fixed = opts.tiny.then_some(1);
    let (done, _) = rounds(c, opts.seconds, fixed, &mut rng, |step| {
        host.tick();
        let Some(i) = step else { return };
        let item = c.items[i];
        let alloc = allocs[item.alloc].as_ref();
        if c.native {
            // The programs are small: an untimed allocation first warms the
            // caches, so the timed one does not depend on the item before.
            alloc.allocate_module(&mut c.programs[item.program].module.clone(), spec);
        }
        let out = run_item(c, item, alloc, spec, &mut tr, tally, quality[i].is_none());
        samples[i].push((Instant::now(), out.latency_s, out.alloc_s));
        compile[i].push(out.compile_s * 1e3);
        native[i].extend(out.native_s.iter().map(|s| s * 1e3));
        quality[i].get_or_insert(Quality {
            dyn_spill: out.dyn_spill,
            spill_insts: out.stats.inserted_total(),
            code_bytes: out.code_bytes,
        });
    });
    let host = &report.host;
    let scaled = |pick: fn(&(Instant, f64, f64)) -> f64| -> Vec<Vec<f64>> {
        samples.iter().map(|s| s.iter().map(|x| host.scaled(x.0, pick(x))).collect()).collect()
    };
    let latency_ms = scaled(|x| x.1 * 1e3);
    let alloc_s = scaled(|x| x.2);
    let best = stats::minima(&latency_ms);
    report.set("ops_per_s", best.len() as f64 * 1e3 / best.iter().sum::<f64>());
    if let Some(g) = stats::geomean(&best) {
        report.set("latency_best_ms", g);
    }
    set_alloc_throughput(
        report,
        c.items
            .iter()
            .zip(&alloc_s)
            .map(|(it, s)| (it.alloc, c.programs[it.program].module.num_insts(), s.as_slice())),
    );
    let total = |f: fn(&Quality) -> u64| quality.iter().flatten().map(f).sum::<u64>() as f64;
    report.set("dyn_spill_ops", total(|q| q.dyn_spill));
    report.set("spill_insts", total(|q| q.spill_insts));
    report.set("code_bytes", total(|q| q.code_bytes));
    report.note("rounds", done);
    report.note("items", n);
    let raw_ms: Vec<f64> = samples.iter().flatten().map(|x| x.1 * 1e3).collect();
    note_latencies(report, &raw_ms);
    let medians =
        |v: &[Vec<f64>]| -> Vec<f64> { v.iter().filter_map(|s| stats::median(s)).collect() };
    if c.native {
        if let Some(g) = stats::geomean(&medians(&compile)) {
            report.note("compile_ms_geomean", g);
        }
        if let Some(g) = stats::geomean(&medians(&native)) {
            report.note("exec_ms_geomean", g);
        }
    }
}

/// The layer analyses the allocators run internally, called from outside
/// on every function of every program, plus the SSA round trip on ion's
/// inputs.
fn analyses(c: &Corpus, spec: &MachineSpec, tr: &mut Tracer, sums: &mut BTreeMap<String, f64>) {
    let ion = alloc_index("ion");
    for (p, prog) in c.programs.iter().enumerate() {
        tr.span("program", |tr| {
            for f in &prog.module.funcs {
                let order = tr.span("analysis.order", |_| Order::compute(f));
                let doms = tr.span("analysis.dominators", |_| Dominators::compute(f, &order));
                let loops = tr.span("analysis.loops", |_| LoopInfo::compute(f, &order, &doms));
                let live = tr.span("analysis.liveness", |_| Liveness::compute(f));
                add(sums, "analysis.liveness_iterations", live.iterations as f64);
                tr.span("analysis.lifetimes", |_| Lifetimes::compute(f, &live, &loops, spec));
            }
            if c.items.iter().any(|it| it.program == p && it.alloc == ion) {
                let mut m = prog.module.clone();
                tr.span("ssa.round_trip", |_| {
                    for f in &mut m.funcs {
                        lsra_ssa::to_ssa_and_back(f);
                    }
                });
            }
        });
    }
}

/// Per-round sums of one pass's layer counters and span self times.
struct Pass {
    rounds: usize,
    wall_ms: f64,
    sums: BTreeMap<String, f64>,
    tracer: Tracer,
}

fn layer_pass(
    c: &Corpus,
    opts: &Opts,
    spec: &MachineSpec,
    on: bool,
    fixed: Option<usize>,
    tally: &mut Tally,
) -> Pass {
    let allocs: Vec<_> = (0..ALLOCATORS.len()).map(|i| allocator(i, true)).collect();
    let mut tr = Tracer::new(on);
    let mut sums = BTreeMap::new();
    let mut rng = Lcg::new(opts.seed);
    let mut req = 0u64;
    let (rounds_run, secs) = rounds(c, opts.seconds / 2.0, fixed, &mut rng, |step| {
        req += 1;
        tr.set_request(req);
        let Some(i) = step else {
            analyses(c, spec, &mut tr, &mut sums);
            return;
        };
        let item = c.items[i];
        let alloc = allocs[item.alloc].as_ref();
        let out = tr.span("item", |tr| run_item(c, item, alloc, spec, tr, tally, false));
        let name = ALLOCATORS[item.alloc];
        add(&mut sums, format!("alloc.{name}.spilled_temps"), out.stats.spilled_temps as f64);
        add(&mut sums, format!("alloc.{name}.inserted"), out.stats.inserted_total() as f64);
        add(&mut sums, format!("alloc.{name}.evictions"), out.stats.evictions as f64);
        add(&mut sums, "coloring.interference_edges", out.stats.interference_edges as f64);
        if let Some(t) = out.stats.timings {
            for (phase, secs) in PHASE_NAMES.iter().zip(t.seconds) {
                add(&mut sums, format!("core.{name}.{phase}_ms"), secs * 1e3);
            }
        }
        add(&mut sums, format!("jit.code_bytes.{name}"), out.code_bytes as f64);
        add(&mut sums, format!("vm.dyn_insts.{name}"), out.dyn_total as f64);
        add(&mut sums, format!("vm.dyn_spill.{name}"), out.dyn_spill as f64);
        add(&mut sums, "verify.diagnostics", out.diagnostics as f64);
    });
    for (span, ms) in tr.self_ms() {
        add(&mut sums, format!("{span}_ms"), ms);
    }
    Pass { rounds: rounds_run, wall_ms: secs * 1e3, sums, tracer: tr }
}

/// The traced run: the same rounds twice, untraced then traced; the
/// difference in wall time is the tracing overhead.
fn traced(c: &Corpus, opts: &Opts, spec: &MachineSpec, report: &mut Report) {
    let plain = layer_pass(c, opts, spec, false, opts.tiny.then_some(1), &mut report.tally);
    let traced = layer_pass(c, opts, spec, true, Some(plain.rounds), &mut report.tally);
    for (k, v) in traced.sums {
        report.set(k, v / traced.rounds as f64);
    }
    report.set("trace.overhead_ratio", traced.wall_ms / plain.wall_ms);
    report.set("trace.span_coverage", traced.tracer.covered_ms() / traced.wall_ms);
    report.note("rounds", traced.rounds);
    report.trace = Some(traced.tracer.chrome_json());
}
