//! The one name table: workloads, end-to-end metrics and per-layer metrics.
//!
//! The runner emits metrics by walking these lists, and a test pins them to
//! `BENCHMARK.json` (names, units, directions, bounds and workload reasons),
//! so the benchmark definition and the code cannot drift apart.

use lsra_core::PHASE_NAMES;
pub use lsra_server::protocol::ALLOCATOR_NAMES as ALLOCATORS;

/// Span names of `allocate_module`, index-aligned with [`ALLOCATORS`].
pub const ALLOC_SPANS: [&str; 5] =
    ["alloc.binpack", "alloc.two-pass", "alloc.coloring", "alloc.poletto", "alloc.ion"];

/// Span names of native runs, index-aligned with [`ALLOCATORS`].
pub const RUN_SPANS: [&str; 5] =
    ["jit.run.binpack", "jit.run.two-pass", "jit.run.coloring", "jit.run.poletto", "jit.run.ion"];

/// Spans outside the allocators whose self time is a per-layer metric
/// (`<span>_ms`).
pub const LAYER_SPANS: [&str; 20] = [
    "analysis.order",
    "analysis.dominators",
    "analysis.loops",
    "analysis.liveness",
    "analysis.lifetimes",
    "analysis.remove_identity_moves",
    "ssa.round_trip",
    "jit.compile_module",
    "verify.verify_module",
    "jit.map",
    "vm.run",
    "server.parse_request",
    "server.materialize",
    "server.cache_key",
    "server.cache_get",
    "server.run_allocation",
    "server.render_ok",
    "server.cache_insert",
    "ir.parse_module",
    "ir.print_module",
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spec-native",
        why: "the 11 SPEC-like programs x 5 allocators through allocate, JIT, verify and native runs: what a user compiling and running real programs waits for",
    },
    Workload {
        name: "table3",
        why: "the paper's Table 3 modules plus a 10^5-instruction many-medium module, allocation only: the speed claim, and the no-change check for huge-function fixes",
    },
    Workload {
        name: "scale-huge",
        why: "one huge function per allocator (2x10^5 instructions, 5x10^4 for ion, 3x10^4 for coloring): where the super-linear order, consistency, resolve, ion and graph costs live",
    },
    Workload {
        name: "serve",
        why: "one closed-loop client of the service: 80% of requests go to 16 hot ones that stay cached, 20% to 64 cold ones with room for a quarter: the hit path beside misses and evictions",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> Metric {
    Metric { name: name.into(), unit, better, bound }
}

/// Bound of every timing: the largest the benchmark format allows. On a
/// 2-vCPU host, two sweeps of ten seeded runs per workload showed
/// interquartile spreads (over the median) of the scaled timings of up to
/// 0.10 in the noisier sweep and 0.05 in the quieter one; three times the
/// largest spread of each timing lies between 0.16 and 0.31, and runs of the
/// same code spread further when the host is busier.
const TIMING_BOUND: f64 = 0.25;

/// Bound of `peak_rss_mib`: three times its largest spread (0.026) seen in
/// the same sweeps, rounded up.
const MEMORY_BOUND: f64 = 0.1;

/// The end-to-end metrics every untraced run reports. Counts are exact from
/// run to run, so their bound is 0.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    let mut out = vec![
        metric("setup_s", "s", Lower, Some(TIMING_BOUND)),
        metric("ops_per_s", "1/s", Higher, Some(TIMING_BOUND)),
        metric("latency_best_ms", "ms", Lower, Some(TIMING_BOUND)),
    ];
    for alloc in ALLOCATORS {
        let name = format!("alloc_minsts_per_s.{alloc}");
        out.push(metric(name, "Minst/s", Higher, Some(TIMING_BOUND)));
    }
    out.extend([
        metric("dyn_spill_ops", "count", Lower, Some(0.0)),
        metric("spill_insts", "count", Lower, Some(0.0)),
        metric("code_bytes", "bytes", Lower, Some(0.0)),
        metric("peak_rss_mib", "MiB", Lower, Some(MEMORY_BOUND)),
    ]);
    out
}

/// The per-layer metrics every traced run reports. Times are milliseconds
/// per round (compile workloads) or per request (serve workloads); a layer a
/// workload does not touch reports 0.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut out = Vec::new();
    for span in &LAYER_SPANS[..6] {
        out.push(metric(format!("{span}_ms"), "ms", Lower, None));
    }
    out.push(metric("analysis.liveness_iterations", "count", Lower, None));
    for alloc in ["binpack", "two-pass"] {
        for phase in PHASE_NAMES {
            out.push(metric(format!("core.{alloc}.{phase}_ms"), "ms", Lower, None));
        }
    }
    out.push(metric("ssa.round_trip_ms", "ms", Lower, None));
    for (alloc, span) in ALLOCATORS.iter().zip(ALLOC_SPANS) {
        out.push(metric(format!("{span}_ms"), "ms", Lower, None));
        for stat in ["spilled_temps", "inserted", "evictions"] {
            out.push(metric(format!("alloc.{alloc}.{stat}"), "count", Lower, None));
        }
    }
    out.push(metric("coloring.interference_edges", "count", Lower, None));
    for span in &LAYER_SPANS[7..11] {
        out.push(metric(format!("{span}_ms"), "ms", Lower, None));
    }
    out.push(metric("verify.diagnostics", "count", Lower, None));
    for (alloc, span) in ALLOCATORS.iter().zip(RUN_SPANS) {
        out.push(metric(format!("{span}_ms"), "ms", Lower, None));
        out.push(metric(format!("jit.code_bytes.{alloc}"), "bytes", Lower, None));
        out.push(metric(format!("vm.dyn_insts.{alloc}"), "count", Lower, None));
        out.push(metric(format!("vm.dyn_spill.{alloc}"), "count", Lower, None));
    }
    for span in &LAYER_SPANS[11..] {
        out.push(metric(format!("{span}_ms"), "ms", Lower, None));
    }
    out.push(metric("server.request_kib", "KiB", Lower, None));
    out.push(metric("server.response_kib", "KiB", Lower, None));
    out.push(metric("server.cache_evictions", "count", Lower, None));
    out.push(metric("server.cache_hit_ratio", "ratio", Higher, None));
    out.push(metric("server.queue_wait_ms.p50", "ms", Lower, None));
    out.push(metric("server.queue_wait_ms.p99", "ms", Lower, None));
    out.push(metric("trace.overhead_ratio", "ratio", Lower, None));
    out.push(metric("trace.span_coverage", "ratio", Higher, None));
    out
}

/// The metrics a run reports: per-layer when traced, end-to-end otherwise.
pub fn reported(traced: bool) -> Vec<Metric> {
    if traced {
        per_layer()
    } else {
        end_to_end()
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_server::json_in::{self, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json_in::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
    }

    /// `(name, unit, better, bound)` rows, the shape both sides compare in.
    type Row = (String, String, String, Option<f64>);

    fn rows_of(doc: &JsonValue, key: &str) -> Vec<Row> {
        let s = |m: &JsonValue, k| field(m, k).as_str().unwrap().to_string();
        field(doc, key)
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").map(|b| b.as_f64().unwrap()),
                )
            })
            .collect()
    }

    fn rows(metrics: Vec<Metric>) -> Vec<Row> {
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.to_string(), m.better.as_str().to_string(), m.bound))
            .collect()
    }

    #[test]
    fn table_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(rows_of(&doc, "end_to_end"), rows(end_to_end()));
        assert_eq!(rows_of(&doc, "per_layer"), rows(per_layer()));
        let workloads: Vec<(String, String)> = field(&doc, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k| field(w, k).as_str().unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let table: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, table);
    }

    #[test]
    fn names_are_unique_and_within_the_format_limits() {
        let mut all: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        all.extend(end_to_end().into_iter().chain(per_layer()).map(|m| m.name));
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate names");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(end_to_end().iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn allocator_spans_follow_the_allocator_list() {
        for (i, a) in ALLOCATORS.iter().enumerate() {
            assert_eq!(ALLOC_SPANS[i], format!("alloc.{a}"));
            assert_eq!(RUN_SPANS[i], format!("jit.run.{a}"));
        }
        let layer: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        for span in LAYER_SPANS {
            assert!(layer.contains(&format!("{span}_ms")), "{span} is not reported");
        }
    }
}
