//! The second-chance binpacking allocator: pipeline driver.
//!
//! [`BinpackAllocator::allocate_module`] fans functions out over a scoped
//! thread pool (functions are allocated independently, so the result is
//! byte-identical to the serial path); each worker owns one
//! [`AllocScratch`] arena that every function it processes reuses.

use std::time::Instant;

use lsra_analysis::{Cfg, Dominators, Lifetimes, Liveness, LoopInfo};
use lsra_ir::{Function, MachineSpec, Module};
use lsra_trace::{NoopSink, TraceEvent, TraceSink};

use crate::config::BinpackConfig;
use crate::scan::Scanner;
use crate::scratch::AllocScratch;
use crate::stats::{AllocStats, Phase, PhaseTimer, RegisterAllocator};
use crate::{resolve, two_pass};

/// The linear-scan register allocator of Traub, Holloway & Smith (PLDI
/// 1998): second-chance binpacking.
///
/// The default configuration runs the full algorithm — single-pass
/// allocate/rewrite with lifetime holes, second chances, store suppression,
/// early second chance, move coalescing, and the iterative consistency
/// dataflow. See [`BinpackConfig`] for the ablation switches, including the
/// traditional two-pass mode.
///
/// # Examples
///
/// ```
/// use lsra_core::{BinpackAllocator, RegisterAllocator};
/// use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
///
/// let spec = MachineSpec::alpha_like();
/// let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
/// let x = b.param(0);
/// let y = b.int_temp("y");
/// b.add(y, x, x);
/// b.ret(Some(y.into()));
/// let mut f = b.finish();
///
/// let stats = BinpackAllocator::default().allocate_function(&mut f, &spec);
/// assert!(f.allocated);
/// assert!(f.validate().is_ok(), "no virtual operand is left");
/// assert_eq!(stats.candidates, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BinpackAllocator {
    /// Algorithm switches.
    pub config: BinpackConfig,
}

impl BinpackAllocator {
    /// An allocator with a specific configuration.
    pub fn new(config: BinpackConfig) -> Self {
        BinpackAllocator { config }
    }

    /// The traditional two-pass binpacking comparator (§3.1).
    pub fn two_pass() -> Self {
        BinpackAllocator { config: BinpackConfig::two_pass() }
    }

    /// Allocates one function, reusing `scratch`'s working memory.
    ///
    /// Equivalent to [`RegisterAllocator::allocate_function`] (which calls
    /// this with a fresh arena), but callers allocating many functions in a
    /// row avoid re-allocating the per-temp/per-register state vectors for
    /// each one.
    pub fn allocate_function_reusing(
        &self,
        f: &mut Function,
        spec: &MachineSpec,
        scratch: &mut AllocScratch,
    ) -> AllocStats {
        self.allocate_function_traced(f, spec, scratch, &mut NoopSink)
    }

    /// Allocates one function, emitting every allocation decision to
    /// `sink`.
    ///
    /// With a disabled sink (the [`NoopSink`] default) this *is*
    /// [`BinpackAllocator::allocate_function_reusing`]: each potential
    /// event costs one branch on [`TraceSink::enabled`] and no payload is
    /// built. The sink never feeds back into allocation — traced and
    /// untraced runs produce byte-identical output (pinned by
    /// `tests/trace_determinism.rs`).
    pub fn allocate_function_traced(
        &self,
        f: &mut Function,
        spec: &MachineSpec,
        scratch: &mut AllocScratch,
        sink: &mut dyn TraceSink,
    ) -> AllocStats {
        let start = Instant::now();
        let mut stats = AllocStats::default();
        if sink.enabled() {
            sink.event(&TraceEvent::FunctionBegin {
                name: f.name.clone(),
                temps: f.num_temps(),
                blocks: f.num_blocks(),
                insts: f.num_insts(),
            });
        }
        if self.config.second_chance {
            let mut timer = PhaseTimer::new(self.config.time_phases);
            // Shared setup (the paper excludes this from allocation
            // timing; we include only the lifetime computation, which is
            // the allocator's own first phase). On functions past the
            // parallel threshold, the per-block liveness passes split
            // across threads (byte-identical to serial).
            let graph = Cfg::compute(f);
            let loops = LoopInfo::compute(f, &graph, &Dominators::compute(f, &graph));
            timer.mark_traced(&mut stats, Phase::Order, sink);
            let live = Liveness::compute_on(f, &graph, self.config.function_workers(f.num_insts()));
            timer.mark_traced(&mut stats, Phase::Liveness, sink);
            let lt = Lifetimes::compute_in(f, &live, &loops, spec, &mut scratch.analysis);
            timer.mark_traced(&mut stats, Phase::Lifetimes, sink);
            if sink.enabled() {
                let temps = (0..f.num_temps()).map(|i| lsra_ir::Temp(i as u32));
                let mut live_temps = 0;
                let mut segments = 0;
                let mut holes = 0;
                for t in temps {
                    let segs = lt.segments(t);
                    if !segs.is_empty() {
                        live_temps += 1;
                        segments += segs.len();
                        holes += lt.holes(t).len();
                    }
                }
                sink.event(&TraceEvent::LifetimesBuilt { live_temps, segments, holes });
            }
            let out =
                Scanner::new(f, spec, &graph, &live, &lt, self.config, &mut stats, scratch, sink)
                    .run();
            timer.mark_traced(&mut stats, Phase::Scan, sink);
            // Resolution self-reports its Resolve and Consistency phases.
            resolve::resolve(f, &graph, &live, &out, self.config, &mut stats, scratch, sink);
            // Hand the CSR backing of the lifetimes and the scan output
            // back to the arena for the next function.
            lt.recycle(&mut scratch.analysis);
            scratch.recycle_scan(out);
        } else {
            two_pass::allocate(f, spec, self.config, &mut stats, scratch, sink);
        }
        f.allocated = true;
        debug_assert_eq!(f.validate(), Ok(()), "allocation left an invalid function");
        stats.alloc_seconds = start.elapsed().as_secs_f64();
        if sink.enabled() {
            sink.event(&TraceEvent::FunctionEnd { name: f.name.clone() });
        }
        stats
    }
}

impl RegisterAllocator for BinpackAllocator {
    fn name(&self) -> &str {
        if self.config.second_chance {
            "second-chance binpacking"
        } else {
            "two-pass binpacking"
        }
    }

    fn allocate_function(&self, f: &mut Function, spec: &MachineSpec) -> AllocStats {
        self.allocate_function_reusing(f, spec, &mut AllocScratch::default())
    }

    /// Allocates every function, fanning out over
    /// [`BinpackConfig::workers`] scoped threads.
    ///
    /// Functions are partitioned up front (longest-processing-time first on
    /// instruction count — deterministic, no work stealing) and each worker
    /// allocates its share with a thread-local [`AllocScratch`]. Because no
    /// state crosses function boundaries, the rewritten module is identical
    /// to the serial result; statistics are merged in function order so the
    /// floating-point sums are too.
    fn allocate_module(&self, m: &mut Module, spec: &MachineSpec) -> AllocStats {
        let n = m.funcs.len();
        // Small modules stay serial: the doduc-sized workloads ran *slower*
        // at 2 workers than at 1 (thread spawn/join dominating), so the
        // fan-out only engages past the instruction threshold.
        let total_insts: usize = m.funcs.iter().map(|f| f.num_insts()).sum();
        let workers = self.config.module_workers(total_insts).min(n.max(1));
        let per_func: Vec<AllocStats> = if workers <= 1 {
            let mut scratch = AllocScratch::default();
            m.funcs
                .iter_mut()
                .map(|f| self.allocate_function_reusing(f, spec, &mut scratch))
                .collect()
        } else {
            // LPT: biggest functions first, each to the least-loaded worker
            // (ties broken by index, so the partition is deterministic).
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(m.funcs[i].num_insts()), i));
            let mut load = vec![0usize; workers];
            let mut worker_of = vec![0usize; n];
            for &i in &order {
                let w = (0..workers).min_by_key(|&w| (load[w], w)).unwrap();
                worker_of[i] = w;
                load[w] += m.funcs[i].num_insts().max(1);
            }
            let mut buckets: Vec<Vec<(usize, &mut Function)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, f) in m.funcs.iter_mut().enumerate() {
                buckets[worker_of[i]].push((i, f));
            }
            let mut results: Vec<Option<AllocStats>> = (0..n).map(|_| None).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| {
                        s.spawn(move || {
                            let mut scratch = AllocScratch::default();
                            bucket
                                .into_iter()
                                .map(|(i, f)| {
                                    (i, self.allocate_function_reusing(f, spec, &mut scratch))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    for (i, st) in h.join().expect("allocation worker panicked") {
                        results[i] = Some(st);
                    }
                }
            });
            results.into_iter().map(|r| r.expect("every function allocated")).collect()
        };
        let mut total = AllocStats::default();
        for st in &per_func {
            total.merge(st);
        }
        total
    }

    /// Allocates every function of a module serially, reusing `scratch`'s
    /// working memory across functions *and* across calls.
    ///
    /// This is the long-lived-process hook: a server worker that allocates
    /// many modules in a row keeps one arena for its whole lifetime instead
    /// of re-growing the per-temp/per-register vectors on every request.
    /// Output and (wall-clock-free) statistics are identical to
    /// [`RegisterAllocator::allocate_module`] at any worker count.
    fn allocate_module_reusing(
        &self,
        m: &mut Module,
        spec: &MachineSpec,
        scratch: &mut AllocScratch,
    ) -> AllocStats {
        let mut total = AllocStats::default();
        for f in &mut m.funcs {
            total.merge(&self.allocate_function_reusing(f, spec, scratch));
        }
        total
    }

    /// Allocates every function of a module with tracing, serially and in
    /// module order so the event stream is deterministic.
    ///
    /// Parallel allocation is output-invariant (see
    /// [`RegisterAllocator::allocate_module`]), so the traced result equals
    /// the untraced result at any worker count; only the trace itself needs
    /// the serial order.
    fn allocate_module_traced(
        &self,
        m: &mut Module,
        spec: &MachineSpec,
        sink: &mut dyn TraceSink,
    ) -> Option<AllocStats> {
        let mut scratch = AllocScratch::default();
        let mut total = AllocStats::default();
        for f in &mut m.funcs {
            let stats = self.allocate_function_traced(f, spec, &mut scratch, sink);
            total.merge(&stats);
        }
        Some(total)
    }
}
