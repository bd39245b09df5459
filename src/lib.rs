//! # Second-chance binpacking register allocation
//!
//! A reproduction of Omri Traub, Glenn Holloway & Michael D. Smith,
//! *Quality and Speed in Linear-scan Register Allocation* (PLDI 1998),
//! as a Rust workspace:
//!
//! * [`ir`] — the Alpha-flavoured load/store IR and machine description;
//! * [`analysis`] — liveness, loops, lifetimes and lifetime holes, DCE;
//! * [`binpack`] — **the paper's contribution**: the second-chance
//!   binpacking allocator (plus its two-pass ancestor);
//! * [`coloring`] — the George–Appel iterated-register-coalescing baseline;
//! * [`poletto`] — the `tcc`-style simple linear scan of the related work;
//! * [`ssa`] — SSA construction (dominance frontiers, phi insertion,
//!   renaming) and out-of-SSA lowering over the same IR;
//! * [`ion`] — the Ion-style backtracking allocator: live-range bundles on
//!   SSA form, a spill-weight priority queue, eviction, and recursive
//!   splitting at block boundaries and use gaps;
//! * [`vm`] — the execution substrate: dynamic instruction counting and
//!   differential verification of allocations;
//! * [`workloads`] — synthetic benchmarks shaped like the paper's SPEC
//!   programs, plus random-program and scaling generators;
//! * [`checker`] — the symbolic allocation checker (proves every read sees
//!   the right temporary's value) and the delta-debugging module shrinker;
//! * [`lint`] — the static diagnostics engine (`lsra lint`): input-IR
//!   validation lints (`L0xx`) and allocation-quality lints (`Q1xx`) over
//!   physical-register dataflow;
//! * [`trace`] — structured decision tracing: events from the allocator's
//!   hot path with log/JSONL/Chrome-trace/annotated-IR sinks and a
//!   per-function metrics registry (`lsra report`);
//! * [`fuzz`] — differential fuzzing of all five allocators under the
//!   symbolic checker, VM differential execution, native execution and
//!   verification, and a service round-trip against the allocation server;
//! * [`telemetry`] — dependency-free runtime telemetry primitives:
//!   sharded atomic counters, gauges, exactly-mergeable log-linear latency
//!   histograms, a metric registry with Prometheus and JSON expositions,
//!   and request-scoped span records;
//! * [`server`] — the allocation service: a line-delimited JSON protocol
//!   over a cached, backpressured worker pool (`lsra serve`), fully
//!   instrumented through [`telemetry`] (the `metrics` op,
//!   `--telemetry-log` span streams, `lsra top`), plus the byte-for-byte
//!   verifying load generator (`lsra loadgen`).
//!
//! # Quickstart
//!
//! ```
//! use second_chance_regalloc::prelude::*;
//!
//! let spec = MachineSpec::alpha_like();
//! let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
//! let x = b.param(0);
//! let y = b.int_temp("y");
//! b.add(y, x, x);
//! b.ret(Some(y.into()));
//! let mut f = b.finish();
//!
//! let stats = BinpackAllocator::default().allocate_function(&mut f, &spec);
//! assert!(f.allocated);
//! assert_eq!(stats.inserted_total(), 0);
//! ```

pub use lsra_analysis as analysis;
pub use lsra_checker as checker;
pub use lsra_coloring as coloring;
pub use lsra_core as binpack;
pub use lsra_ion as ion;
pub use lsra_ir as ir;
pub use lsra_jit as jit;
pub use lsra_lint as lint;
pub use lsra_poletto as poletto;
pub use lsra_server as server;
pub use lsra_ssa as ssa;
pub use lsra_telemetry as telemetry;
pub use lsra_trace as trace;
pub use lsra_verify as verify;
pub use lsra_vm as vm;
pub use lsra_workloads as workloads;

pub mod fuzz;

/// The most common imports in one place.
pub mod prelude {
    pub use lsra_analysis::{eliminate_dead_code, remove_identity_moves, Lifetimes, Liveness};
    pub use lsra_coloring::ColoringAllocator;
    pub use lsra_core::{AllocStats, BinpackAllocator, BinpackConfig, RegisterAllocator};
    pub use lsra_ion::IonAllocator;
    pub use lsra_ir::{
        Callee, Cond, ExtFn, FuncId, Function, FunctionBuilder, Inst, MachineSpec, Module,
        ModuleBuilder, OpCode, PhysReg, Reg, RegClass, SpillTag, Temp,
    };
    pub use lsra_poletto::PolettoAllocator;
    pub use lsra_vm::{run_module, verify_allocation, DynCounts, RunResult, Vm, VmOptions};
}

/// Allocates every function of `module` with `alloc`, removes identity
/// moves (the paper's post-allocation peephole pass), and returns the
/// merged statistics.
pub fn allocate_and_cleanup(
    module: &mut ir::Module,
    alloc: &dyn binpack::RegisterAllocator,
    spec: &ir::MachineSpec,
) -> binpack::AllocStats {
    let stats = alloc.allocate_module(module, spec);
    for id in module.func_ids().collect::<Vec<_>>() {
        analysis::remove_identity_moves(module.func_mut(id));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "t", &[]);
        let x = b.int_temp("x");
        b.movi(x, 7);
        b.ret(Some(x.into()));
        let mut f = b.finish();
        BinpackAllocator::default().allocate_function(&mut f, &spec);
        assert!(f.allocated);
    }
}
