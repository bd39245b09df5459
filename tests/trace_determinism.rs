//! Tracing must be invisible and reproducible: an installed sink may not
//! change a single byte of the allocation (against any worker count of the
//! untraced path), and the same module traced twice must emit the same
//! event stream byte for byte.

use second_chance_regalloc::prelude::*;
use second_chance_regalloc::trace::{ChromeSink, JsonlSink, MetricsSink, RecordSink};
use second_chance_regalloc::workloads::random::{RandomConfig, RandomProgram};
use second_chance_regalloc::workloads::Lcg;

fn render(m: &lsra_ir::Module) -> String {
    format!("{m}")
}

fn configs() -> Vec<BinpackConfig> {
    vec![BinpackConfig::default(), BinpackConfig::two_pass()]
}

/// Traced output must match the untraced path at every worker count: the
/// traced path is serial, so this also re-proves worker invisibility.
fn assert_tracing_invisible(module: &lsra_ir::Module, spec: &MachineSpec, what: &str) {
    for base in configs() {
        let mut traced = module.clone();
        let mut sink = RecordSink::default();
        let traced_stats = BinpackAllocator::new(BinpackConfig { workers: 1, ..base })
            .allocate_module_traced(&mut traced, spec, &mut sink)
            .expect("binpack has a traced path");
        assert!(!sink.events.is_empty(), "{what}: enabled sink saw no events");
        for workers in [1, 2, 4] {
            let mut plain = module.clone();
            let plain_stats = BinpackAllocator::new(BinpackConfig { workers, ..base })
                .allocate_module(&mut plain, spec);
            assert_eq!(
                render(&traced),
                render(&plain),
                "{what}: traced output differs from untraced {workers}-worker output \
                 (second_chance={})",
                base.second_chance
            );
            assert_eq!(
                traced_stats.without_wall_clock(),
                plain_stats.without_wall_clock(),
                "{what}: traced stats differ from untraced (workers={workers}, \
                 second_chance={})",
                base.second_chance
            );
        }
    }
}

#[test]
fn tracing_is_invisible_on_workloads() {
    let spec = MachineSpec::alpha_like();
    for w in second_chance_regalloc::workloads::all() {
        let module = (w.build)();
        assert_tracing_invisible(&module, &spec, w.name);
    }
}

#[test]
fn tracing_is_invisible_on_random_programs() {
    // A starved machine, so the trace also covers the spill/evict paths.
    let spec = MachineSpec::small(5, 3);
    let mut rng = Lcg::new(0x7ACE);
    for _ in 0..10 {
        let seed = rng.below(1_000_000);
        let cfg = RandomConfig { helpers: 2, ..RandomConfig::default() };
        let module = RandomProgram::new(seed, cfg).build(&spec);
        assert_tracing_invisible(&module, &spec, &format!("random seed {seed}"));
    }
}

#[test]
fn jsonl_trace_is_byte_reproducible() {
    // Two traced runs of the same module must write identical JSONL: no
    // wall clock, iteration order, or address leaks into the stream. (Phase
    // events carry seconds, but only appear under `time_phases`.)
    let spec = MachineSpec::small(5, 3);
    let workload = second_chance_regalloc::workloads::by_name("eqntott").unwrap();
    let mut subjects = vec![("eqntott".to_string(), (workload.build)())];
    let mut rng = Lcg::new(0x0DD5);
    for _ in 0..4 {
        let seed = rng.below(1_000_000);
        let cfg = RandomConfig { helpers: 2, ..RandomConfig::default() };
        subjects.push((format!("random seed {seed}"), RandomProgram::new(seed, cfg).build(&spec)));
    }
    for (what, module) in &subjects {
        for base in configs() {
            let alloc = BinpackAllocator::new(base);
            let run = || {
                let mut m = module.clone();
                let mut sink = JsonlSink::new();
                alloc.allocate_module_traced(&mut m, &spec, &mut sink);
                sink.finish()
            };
            let (a, b) = (run(), run());
            assert!(!a.is_empty());
            assert_eq!(
                a, b,
                "{what}: two traced runs diverged (second_chance={})",
                base.second_chance
            );
            for line in a.lines() {
                second_chance_regalloc::trace::json::validate(line)
                    .unwrap_or_else(|e| panic!("{what}: bad JSONL line {line}: {e}"));
            }
        }
    }
}

#[test]
fn chrome_trace_is_valid_json_with_spans_and_instants() {
    let spec = MachineSpec::alpha_like();
    let w = second_chance_regalloc::workloads::by_name("fpppp").unwrap();
    let mut m = (w.build)();
    let mut sink = ChromeSink::new();
    let cfg = BinpackConfig { time_phases: true, workers: 1, ..BinpackConfig::default() };
    BinpackAllocator::new(cfg).allocate_module_traced(&mut m, &spec, &mut sink);
    let doc = sink.finish();
    second_chance_regalloc::trace::json::validate(&doc).expect("chrome trace must parse");
    assert!(doc.contains(r#""ph": "X""#), "expected phase spans");
    assert!(doc.contains(r#""ph": "i""#), "expected decision instants");
    // The acceptance bar: at least five distinct decision event kinds.
    let kinds = ["assign", "spill_choice", "evict", "reload", "coalesce_check"];
    for k in kinds {
        assert!(doc.contains(&format!(r#""name": "{k}""#)), "missing decision kind {k}");
    }
}

#[test]
fn metrics_are_deterministic_and_consistent_with_stats() {
    let spec = MachineSpec::small(5, 3);
    let w = second_chance_regalloc::workloads::by_name("li").unwrap();
    let run = || {
        let mut m = (w.build)();
        let mut sink = MetricsSink::new();
        let stats = BinpackAllocator::default()
            .allocate_module_traced(&mut m, &spec, &mut sink)
            .expect("binpack has a traced path");
        (sink.finish(), stats)
    };
    let ((met_a, stats), (met_b, _)) = (run(), run());
    assert_eq!(met_a.to_json(), met_b.to_json(), "metrics must be deterministic");
    let total = met_a.total();
    assert_eq!(
        total.consistency_iterations,
        u64::from(stats.iterations),
        "metrics and stats disagree on consistency iterations"
    );
    second_chance_regalloc::trace::json::validate(&met_a.to_json()).expect("metrics JSON parses");
}
