//! Allocation statistics and the common allocator interface.

use std::time::Instant;

use lsra_ir::{Function, MachineSpec, Module, SpillTag};
use lsra_trace::{TraceEvent, TraceSink};

use crate::scratch::AllocScratch;

/// Allocator phases whose wall-clock time is tracked when
/// [`BinpackConfig::time_phases`](crate::BinpackConfig) is on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The function's `Cfg`, its dominators, and loop depths (`LoopInfo`).
    Order = 0,
    /// Global liveness dataflow.
    Liveness = 1,
    /// Lifetime, hole, and reference-point construction.
    Lifetimes = 2,
    /// The linear scan itself (binpacking + second chances), or packing plus
    /// rewrite for the two-pass comparator.
    Scan = 3,
    /// Resolution: cross-block move/load/store insertion.
    Resolve = 4,
    /// The `USED_C` consistency dataflow inside resolution (reported
    /// separately from [`Phase::Resolve`]; the two are disjoint).
    Consistency = 5,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Order,
        Phase::Liveness,
        Phase::Lifetimes,
        Phase::Scan,
        Phase::Resolve,
        Phase::Consistency,
    ];
}

/// Names matching [`AllocTimings::seconds`] indices, for reports.
pub const PHASE_NAMES: [&str; Phase::COUNT] =
    ["order", "liveness", "lifetimes", "scan", "resolve", "consistency"];

// Drift guard: adding a `Phase` variant without growing `PHASE_NAMES` (or
// reordering discriminants) must fail to compile, not misattribute time.
const _: () = {
    assert!(PHASE_NAMES.len() == Phase::COUNT);
    assert!(Phase::ALL.len() == Phase::COUNT);
    let mut i = 0;
    while i < Phase::COUNT {
        assert!(Phase::ALL[i] as usize == i, "Phase discriminants must index PHASE_NAMES");
        i += 1;
    }
};

/// Per-phase wall-clock seconds for one function, or summed across a module.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct AllocTimings {
    /// Seconds per phase, indexed by [`Phase`] (see [`PHASE_NAMES`]).
    pub seconds: [f64; Phase::COUNT],
}

impl AllocTimings {
    /// Adds `dt` seconds to `phase`.
    pub fn record(&mut self, phase: Phase, dt: f64) {
        self.seconds[phase as usize] += dt;
    }

    /// Seconds spent in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.seconds[phase as usize]
    }

    /// Total seconds across all phases.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Accumulates another timing record into this one.
    pub fn merge(&mut self, other: &AllocTimings) {
        for (a, b) in self.seconds.iter_mut().zip(&other.seconds) {
            *a += b;
        }
    }
}

/// Interval timer that attributes elapsed time to phases; a disabled timer
/// never reads the clock.
pub(crate) struct PhaseTimer {
    last: Option<Instant>,
}

impl PhaseTimer {
    pub(crate) fn new(enabled: bool) -> Self {
        PhaseTimer { last: enabled.then(Instant::now) }
    }

    /// Charges the time since the previous mark (or construction) to
    /// `phase`, and emits a [`TraceEvent::Phase`] span to `sink`. A
    /// disabled timer emits nothing — phase events carry wall-clock
    /// seconds, so they only appear in traces that asked for timing
    /// (keeping default traces byte-reproducible).
    pub(crate) fn mark_traced(
        &mut self,
        stats: &mut AllocStats,
        phase: Phase,
        sink: &mut dyn TraceSink,
    ) {
        if let Some(last) = self.last {
            let now = Instant::now();
            let dt = now.duration_since(last).as_secs_f64();
            stats.timings.get_or_insert_with(AllocTimings::default).record(phase, dt);
            self.last = Some(now);
            if sink.enabled() {
                sink.event(&TraceEvent::Phase { name: PHASE_NAMES[phase as usize], seconds: dt });
            }
        }
    }
}

/// Static counts of allocator activity for one function or module.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AllocStats {
    /// Register candidates (temporaries) considered.
    pub candidates: usize,
    /// Statically inserted instructions per spill category (index 0, for
    /// `SpillTag::None`, is unused).
    pub inserted: [u64; 7],
    /// Temporaries that acquired a memory home at some point.
    pub spilled_temps: usize,
    /// Evictions performed (including convention-forced ones).
    pub evictions: u64,
    /// Hole queries made by the binpacking scan's per-definition register
    /// sweep (one per register it had to probe individually). A measure of
    /// how well the sweep's skip proofs work; 0 for the other allocators.
    pub hole_probes: u64,
    /// Moves whose destination was bound to the source register by the
    /// move-coalescing check (§2.5), or by coloring's coalescing.
    pub moves_coalesced: u64,
    /// Lifetime splits (second-chance reallocations).
    pub lifetime_splits: u64,
    /// Spill stores suppressed by the consistency machinery (§2.3).
    pub stores_suppressed: u64,
    /// Iterations of the `USED_C` dataflow (binpacking) or of the
    /// build-color-spill loop (coloring).
    ///
    /// Unlike every other field, [`AllocStats::merge`] combines this with
    /// `max`, not `+`: the count is a per-function convergence depth, so
    /// the meaningful module-level figure is the deepest dataflow any one
    /// function needed. A sum would grow with function count and answer no
    /// question (it is not work done — each iteration's cost already lands
    /// in the wall-clock fields).
    pub iterations: u32,
    /// Interference-graph edges (coloring only; 0 for linear scan). The
    /// paper's Table 3 reports this as a problem-size measure.
    pub interference_edges: u64,
    /// Wall-clock time spent in the allocator core, in seconds.
    pub alloc_seconds: f64,
    /// Per-phase wall-clock breakdown; `Some` only when
    /// [`BinpackConfig::time_phases`](crate::BinpackConfig) was set.
    pub timings: Option<AllocTimings>,
}

fn tag_index(tag: SpillTag) -> usize {
    match tag {
        SpillTag::None => 0,
        SpillTag::EvictLoad => 1,
        SpillTag::EvictStore => 2,
        SpillTag::EvictMove => 3,
        SpillTag::ResolveLoad => 4,
        SpillTag::ResolveStore => 5,
        SpillTag::ResolveMove => 6,
    }
}

impl AllocStats {
    /// Records one statically inserted instruction.
    pub fn record_insert(&mut self, tag: SpillTag) {
        self.inserted[tag_index(tag)] += 1;
    }

    /// Un-records one inserted instruction that a later cleanup removed, so
    /// the static counts describe the code actually emitted.
    pub fn record_remove(&mut self, tag: SpillTag) {
        let i = tag_index(tag);
        debug_assert!(self.inserted[i] > 0, "removing an instruction never inserted");
        self.inserted[i] = self.inserted[i].saturating_sub(1);
    }

    /// Statically inserted instructions of one category.
    pub fn inserted_count(&self, tag: SpillTag) -> u64 {
        self.inserted[tag_index(tag)]
    }

    /// Total statically inserted spill instructions.
    pub fn inserted_total(&self) -> u64 {
        self.inserted[1..].iter().sum()
    }

    /// Accumulates another function's statistics into this one.
    pub fn merge(&mut self, other: &AllocStats) {
        self.candidates += other.candidates;
        for i in 0..self.inserted.len() {
            self.inserted[i] += other.inserted[i];
        }
        self.spilled_temps += other.spilled_temps;
        self.evictions += other.evictions;
        self.hole_probes += other.hole_probes;
        self.moves_coalesced += other.moves_coalesced;
        self.lifetime_splits += other.lifetime_splits;
        self.stores_suppressed += other.stores_suppressed;
        // Max, not sum — see the field doc on `iterations`.
        self.iterations = self.iterations.max(other.iterations);
        self.interference_edges += other.interference_edges;
        self.alloc_seconds += other.alloc_seconds;
        match (&mut self.timings, &other.timings) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.timings = Some(*b),
            _ => {}
        }
    }

    /// This record with every wall-clock measurement zeroed; everything left
    /// is a deterministic function of the input program, so two allocations
    /// of the same module must compare equal under it.
    pub fn without_wall_clock(&self) -> AllocStats {
        AllocStats { alloc_seconds: 0.0, timings: None, ..self.clone() }
    }
}

/// A global register allocator: rewrites a function so that every operand is
/// a physical register (with spill code referencing frame slots).
pub trait RegisterAllocator {
    /// A short name for reports ("binpack", "coloring", ...).
    fn name(&self) -> &str;

    /// Allocates one function in place.
    fn allocate_function(&self, f: &mut Function, spec: &MachineSpec) -> AllocStats;

    /// Allocates every function of a module, merging statistics.
    fn allocate_module(&self, m: &mut Module, spec: &MachineSpec) -> AllocStats {
        let mut total = AllocStats::default();
        for id in m.func_ids().collect::<Vec<_>>() {
            let stats = self.allocate_function(m.func_mut(id), spec);
            total.merge(&stats);
        }
        total
    }

    /// Allocates every function of a module serially, emitting every
    /// allocation decision to `sink`, so the event stream is deterministic.
    ///
    /// `None` (with `m` untouched) for allocators without an instrumented
    /// path; the default. The sink never feeds back into allocation, so a
    /// `Some` result equals [`RegisterAllocator::allocate_module`]'s output.
    fn allocate_module_traced(
        &self,
        m: &mut Module,
        spec: &MachineSpec,
        sink: &mut dyn TraceSink,
    ) -> Option<AllocStats> {
        let _ = (m, spec, sink);
        None
    }

    /// Allocates every function of a module, reusing `scratch`'s working
    /// memory where the allocator has any (the default ignores it). Output
    /// and wall-clock-free statistics equal
    /// [`RegisterAllocator::allocate_module`]'s.
    fn allocate_module_reusing(
        &self,
        m: &mut Module,
        spec: &MachineSpec,
        scratch: &mut AllocScratch,
    ) -> AllocStats {
        let _ = scratch;
        self.allocate_module(m, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_accounting() {
        let mut s = AllocStats::default();
        s.record_insert(SpillTag::EvictLoad);
        s.record_insert(SpillTag::EvictLoad);
        s.record_insert(SpillTag::ResolveMove);
        assert_eq!(s.inserted_count(SpillTag::EvictLoad), 2);
        assert_eq!(s.inserted_total(), 3);
    }

    #[test]
    fn merge_accumulates() {
        let mut a =
            AllocStats { candidates: 5, evictions: 2, hole_probes: 7, ..Default::default() };
        let b = AllocStats {
            candidates: 3,
            evictions: 1,
            hole_probes: 4,
            iterations: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.candidates, 8);
        assert_eq!(a.evictions, 3);
        assert_eq!(a.hole_probes, 11);
        assert_eq!(a.iterations, 4);
    }

    #[test]
    fn merge_takes_max_of_iterations_not_sum() {
        let mut a = AllocStats { iterations: 3, ..Default::default() };
        let b = AllocStats { iterations: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.iterations, 3, "iterations must merge as max, not 5");
        // Order-independent: merging the larger into the smaller agrees.
        let mut c = AllocStats { iterations: 2, ..Default::default() };
        c.merge(&AllocStats { iterations: 3, ..Default::default() });
        assert_eq!(c.iterations, 3);
    }
}
