//! **Ion-style backtracking allocation** over live-range bundles.
//!
//! Where the paper's binpacker commits to a location the moment the linear
//! scan reaches a lifetime, this allocator (modelled on SpiderMonkey's
//! IonMonkey / WebAssembly `regalloc` lineage) may *revisit* decisions:
//!
//! 1. the function is taken through SSA construction and back
//!    ([`lsra_ssa::to_ssa_and_back`]), so every temporary has a single
//!    static definition site and phi-induced copies are explicit moves;
//! 2. each temporary's live segments become one *bundle*; move-related
//!    bundles of the same class merge when their ranges do not overlap
//!    (the copy then costs nothing) and moves against physical registers
//!    leave a register *hint* on the bundle;
//! 3. bundles are allocated from a priority queue ordered by total live
//!    length — long, hard-to-place bundles first;
//! 4. an unsplit bundle that fits nowhere may **evict** already-placed
//!    bundles whose spill weight it more than doubles (they return to the
//!    queue; a budget bounds the cascading), any bundle may **split** in
//!    two, or — as the second-chance fallback that guarantees termination
//!    — spill to memory for good. A bundle spanning several blocks splits
//!    at the top of the median block its ranges touch, one inside a single
//!    block at the widest gap between its references; either way only the
//!    one range straddling the cut is cut, once, and the rest go to their
//!    half whole;
//! 5. the point-lifetime feasibility fixpoint and rewrite shared with the
//!    whole-lifetime allocators ([`lsra_core::point`]) install spill code,
//!    with split-connection copies entering through its hook; a
//!    resolution pass repairs locations across CFG edges with the
//!    shared parallel-move sequencer, and a final availability scan
//!    deletes reloads (and slot-refreshing stores) whose value provably
//!    already sits where it is wanted.
//!
//! Splits and evictions surface as [`TraceEvent::SplitBundle`] /
//! [`TraceEvent::EvictBundle`] decisions, so `lsra report` can break an
//! allocation down by how much backtracking it needed.
//!
//! # Examples
//!
//! ```
//! use lsra_core::RegisterAllocator;
//! use lsra_ion::IonAllocator;
//! use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
//!
//! let spec = MachineSpec::alpha_like();
//! let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
//! let x = b.param(0);
//! let y = b.int_temp("y");
//! b.add(y, x, x);
//! b.ret(Some(y.into()));
//! let mut f = b.finish();
//!
//! let stats = IonAllocator::default().allocate_function(&mut f, &spec);
//! assert!(f.allocated);
//! assert_eq!(stats.inserted_total(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use lsra_analysis::{
    BitSet, Cfg, Csr, Dominators, Lifetimes, Liveness, LoopInfo, Point, Segment, SmallVec,
};
use lsra_core::point::{self, point_span, PointAlloc, PointScratch, RegFile};
use lsra_core::{
    ensure_slot, sequentialize_into, AllocStats, EdgeOp, EdgeRepair, RegisterAllocator,
};
use lsra_ir::{
    BlockId, Function, Ins, Inst, MachineSpec, Module, PhysReg, Reg, RegClass, SpillTag, Temp,
};
use lsra_trace::{NoopSink, ResolveOp, SplitKind, TraceEvent, TraceSink};

/// Recursive splitting depth cap: a bundle split this many times spills
/// instead of splitting again. Every split strictly shrinks the pieces, so
/// the cap is a backstop, not a tuning knob.
const MAX_GEN: u8 = 16;

/// One contiguous `[start, end]` interval of one temporary's liveness.
/// Entries never change: a split hands its pieces the parent's whole ranges
/// and appends the two halves of the one range it cuts.
#[derive(Copy, Clone, Debug)]
struct LiveRange {
    temp: Temp,
    seg: Segment,
}

/// A set of live ranges allocated as a unit: one register for all of them,
/// or memory for all of them.
#[derive(Clone, Debug)]
struct Bundle {
    /// Indices into the range arena, ascending by segment start. Ranges of
    /// one bundle never overlap (merging requires it), so the order is
    /// total.
    ranges: Vec<u32>,
    class: RegClass,
    /// Preferred register, seeded by moves against physical registers
    /// (argument shuffles, return values). Tried first.
    hint: Option<PhysReg>,
    /// Split generation: 0 for an original bundle, parent + 1 for pieces.
    gen: u8,
    /// Queue priority: total points covered. Long bundles allocate first.
    prio: u64,
    /// Spill weight: reference weight per covered point. Eviction demands
    /// strictly more than double the victim's weight from the evictor.
    weight: f64,
    assignment: Option<PhysReg>,
    spilled: bool,
    /// True once the bundle has been split or merged away; its pieces (or
    /// its absorber) supersede it.
    dead: bool,
}

/// The Ion-style backtracking allocator.
#[derive(Clone, Debug, Default)]
pub struct IonAllocator;

impl IonAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        IonAllocator
    }
}

/// Union-find over bundle ids, used only during move-coalescing so merged
/// temporaries resolve to their surviving bundle.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// A queue key: queue priority first, lowest bundle id on ties. Bundle ids
/// are unique, so no two keys in the queue are equal.
type QueueKey = (u64, Reverse<u32>);

/// Phase 3's priority queue, as two streams that pop in one key order: the
/// initial bundles, sorted once and popped from the back, and the bundles
/// that come back (evicted ones and split pieces) in a heap. A pop takes the
/// greater of the two heads, so the sequence is the one a single heap of
/// every entry would give, while the heap holds only the few re-queued
/// entries.
#[derive(Debug)]
struct Queue {
    /// Initial keys, ascending.
    sorted: Vec<QueueKey>,
    /// Re-queued keys.
    heap: BinaryHeap<QueueKey>,
}

impl Queue {
    /// A queue holding `initial`, in any order.
    fn new(mut initial: Vec<QueueKey>) -> Self {
        initial.sort_unstable();
        Queue { sorted: initial, heap: BinaryHeap::new() }
    }

    fn push(&mut self, key: QueueKey) {
        self.heap.push(key);
    }

    /// The greatest key left, and whether it was pushed (re-queued) rather
    /// than initial.
    fn pop(&mut self) -> Option<(QueueKey, bool)> {
        match (self.sorted.last(), self.heap.peek()) {
            (Some(s), Some(h)) if h > s => self.heap.pop().map(|k| (k, true)),
            (Some(_), _) => self.sorted.pop().map(|k| (k, false)),
            (None, _) => self.heap.pop().map(|k| (k, true)),
        }
    }
}

struct State<'a> {
    lt: &'a Lifetimes,
    spec: &'a MachineSpec,
    ranges: Vec<LiveRange>,
    bundles: Vec<Bundle>,
    /// Occupancy per dense register: blocked segments and placed bundles.
    regs: RegFile<'a>,
    /// `top(b).0` per block, ascending in linear order.
    block_tops: Vec<u32>,
}

impl<'a> State<'a> {
    /// Phase 1's state for `f`: nothing placed, and one bundle per live
    /// temporary, returned beside each temporary's bundle.
    fn new(f: &Function, lt: &'a Lifetimes, spec: &'a MachineSpec) -> (Self, Vec<Option<u32>>) {
        let mut st = State {
            lt,
            spec,
            ranges: Vec::new(),
            bundles: Vec::new(),
            regs: RegFile::new(
                (0..spec.total_regs()).map(|d| lt.blocked(d)).collect(),
                lt.num_insts(),
            ),
            block_tops: (0..f.num_blocks()).map(|b| lt.top(BlockId(b as u32)).0).collect(),
        };
        let mut bundle_of_temp: Vec<Option<u32>> = vec![None; f.num_temps()];
        for (ti, slot) in bundle_of_temp.iter_mut().enumerate() {
            let t = Temp(ti as u32);
            let segs = lt.segments(t);
            if segs.is_empty() {
                continue;
            }
            let mut rs: Vec<u32> = Vec::with_capacity(segs.len());
            for &s in segs {
                rs.push(st.ranges.len() as u32);
                st.ranges.push(LiveRange { temp: t, seg: s });
            }
            rs.sort_by_key(|&r| st.ranges[r as usize].seg.start);
            *slot = Some(st.bundles.len() as u32);
            st.bundles.push(Bundle {
                ranges: rs,
                class: f.temp_class(t),
                hint: None,
                gen: 0,
                prio: 0,
                weight: 0.0,
                assignment: None,
                spilled: false,
                dead: false,
            });
        }
        (st, bundle_of_temp)
    }

    /// The representative temporary of a bundle (its earliest range's), used
    /// to label trace events.
    fn repr(&self, bid: u32) -> Temp {
        self.ranges[self.bundles[bid as usize].ranges[0] as usize].temp
    }

    /// Queue priority and spill weight of a range set: total covered points,
    /// and reference weight per covered point.
    fn measure(&self, range_ids: &[u32]) -> (u64, f64) {
        let mut len = 0u64;
        let mut refs = 0.0f64;
        for &r in range_ids {
            let lr = self.ranges[r as usize];
            len += (lr.seg.end.0 - lr.seg.start.0 + 1) as u64;
            let rs = self.lt.refs(lr.temp);
            let lo = rs.partition_point(|rp| rp.point < lr.seg.start);
            let hi = rs.partition_point(|rp| rp.point <= lr.seg.end);
            for rp in &rs[lo..hi] {
                refs += rp.weight();
            }
        }
        (len, refs / len.max(1) as f64)
    }

    /// True if every range of bundle `bid` avoids everything parked in
    /// register `d` (blocked segments included).
    fn fits(&self, bid: u32, d: usize) -> bool {
        let segs = self.bundles[bid as usize].ranges.iter().map(|&r| self.ranges[r as usize].seg);
        self.regs.fits(d, segs)
    }

    /// True if bundle `bid`'s ranges ascend by start and are pairwise
    /// disjoint: every walk over them, and a split's single cut, relies on it.
    fn ranges_ascend(&self, bid: u32) -> bool {
        let seg = |r: u32| self.ranges[r as usize].seg;
        self.bundles[bid as usize].ranges.windows(2).all(|w| seg(w[0]).end < seg(w[1]).start)
    }

    /// Lands bundle `bid` in register `d`, which must be free over its
    /// ranges.
    fn place(&mut self, bid: u32, d: usize) {
        debug_assert!(self.ranges_ascend(bid), "bundle {bid}'s ranges overlap or are out of order");
        let ranges = &self.ranges;
        let segs = self.bundles[bid as usize].ranges.iter().map(|&r| ranges[r as usize].seg);
        self.regs.occupy(d, segs, bid);
        self.bundles[bid as usize].assignment = Some(self.spec.reg_at(d));
    }

    /// Lifts bundle `bid` out of register `d`, where it was placed.
    fn unplace(&mut self, bid: u32, d: usize) {
        let ranges = &self.ranges;
        let segs = self.bundles[bid as usize].ranges.iter().map(|&r| ranges[r as usize].seg);
        self.regs.vacate(d, segs);
        self.bundles[bid as usize].assignment = None;
    }

    /// Where bundle `bid` may go by eviction, and whom it must evict: of
    /// the class's registers not blocked over its ranges, the first whose
    /// heaviest conflicting bundle is lightest — provided our weight more
    /// than doubles that heaviest one.
    ///
    /// A register wins only if its heaviest conflict weighs strictly less
    /// than both the best so far and half our weight, so each register's
    /// scan is bounded by the smaller of the two and abandoned at its first
    /// bundle that heavy.
    fn eviction_target(&self, bid: u32) -> Option<(usize, SmallVec<u32, 8>)> {
        let b = &self.bundles[bid as usize];
        let half = b.weight / 2.0;
        let mut best: Option<(f64, usize, SmallVec<u32, 8>)> = None;
        for d in self.spec.reg_indices(b.class) {
            let bound = best.as_ref().map_or(half, |(bw, _, _)| bw.min(half));
            let segs = b.ranges.iter().map(|&r| self.ranges[r as usize].seg);
            let weight = |c: u32| self.bundles[c as usize].weight;
            let Some((maxw, cs)) = self.regs.conflicts(d, segs, weight, bound) else {
                continue;
            };
            if best.as_ref().is_none_or(|(bw, _, _)| maxw < *bw) {
                best = Some((maxw, d, cs));
            }
        }
        let (maxw, d, cs) = best?;
        (maxw * 2.0 < b.weight).then_some((d, cs))
    }

    /// The block containing `p` in linear order.
    fn block_of(&self, p: Point) -> usize {
        self.block_tops.partition_point(|&s| s <= p.0) - 1
    }
}

/// Location lookup: the piece of `t` containing `p`, through its bundle's
/// *current* assignment — so feasibility demotions propagate to every later
/// consumer without rebuilding the table.
fn loc_at(
    temp_pieces: &Csr<(u32, u32, u32)>,
    bundles: &[Bundle],
    t: Temp,
    p: Point,
) -> Option<PhysReg> {
    let pieces = temp_pieces.row(t.index());
    let i = pieces.partition_point(|e| e.0 <= p.0);
    let (_, end, bid) = *pieces[..i].last()?;
    if end < p.0 {
        return None;
    }
    bundles[bid as usize].assignment
}

/// Ion's side of the shared point-lifetime pass ([`lsra_core::point`]):
/// piece locations through their bundles' current assignments, freedom from
/// the register file's bits, its own victim rule, and phase 5's connection
/// copies ahead of each instruction's scratch loads.
struct Points<'s, 'a> {
    st: &'s mut State<'a>,
    temp_pieces: &'s Csr<(u32, u32, u32)>,
    /// Connection copies, ascending by instruction, and the next to emit.
    connections: Vec<(u32, EdgeOp)>,
    next_conn: usize,
    ops: Vec<EdgeOp>,
    seq: Vec<(Inst, SpillTag)>,
}

impl PointAlloc for Points<'_, '_> {
    fn loc(&self, t: Temp, p: Point) -> Option<PhysReg> {
        loc_at(self.temp_pieces, &self.st.bundles, t, p)
    }

    fn is_free(&self, d: usize, gi: u32) -> bool {
        let span = point_span(gi);
        !self.st.regs.is_busy(d, span.start.0, span.end.0)
    }

    /// Victim: the overlapping bundle with the greatest priority (longest
    /// total life — the cheapest per point to park in memory), lowest id on
    /// ties. It leaves its register and lives in memory for good.
    fn demote(&mut self, _: &Lifetimes, class: RegClass, gi: u32) -> Option<Temp> {
        let span = point_span(gi);
        let st = &mut *self.st;
        let mut victim: Option<(u64, u32, usize)> = None;
        for d in st.spec.reg_indices(class) {
            for (_, _, owner) in st.regs.occupants(d, span.start.0, span.end.0) {
                if let Some(t) = owner {
                    let prio = st.bundles[t as usize].prio;
                    if victim.is_none_or(|(p, v, _)| prio > p || (prio == p && t < v)) {
                        victim = Some((prio, t, d));
                    }
                }
            }
        }
        let (_, v, d) = victim?;
        st.unplace(v, d);
        st.bundles[v as usize].spilled = true;
        Some(st.repr(v))
    }

    /// The connection copies at `gi`. Their sources die at the cut, so they
    /// go before any scratch load could clobber them. All movement at one
    /// cut is a parallel copy (two bundles can swap registers at the same
    /// point), so it runs through the shared sequencer, with tags remapped
    /// to the eviction family — these are in-block spill decisions, not CFG
    /// repairs.
    fn before(&mut self, gi: u32, f: &mut Function, stats: &mut AllocStats, out: &mut Vec<Ins>) {
        self.ops.clear();
        while let Some(&(at, op)) = self.connections.get(self.next_conn) {
            if at != gi {
                break;
            }
            self.ops.push(op);
            self.next_conn += 1;
        }
        if self.ops.is_empty() {
            return;
        }
        let mut cycle_spilled: SmallVec<Temp, 8> = SmallVec::new();
        sequentialize_into(&self.ops, &mut self.seq, |t| cycle_spilled.push(t));
        for op in &self.ops {
            if let EdgeOp::Store { temp, .. } | EdgeOp::Load { temp, .. } = *op {
                ensure_slot(f, temp, stats);
            }
        }
        for &t in cycle_spilled.iter() {
            ensure_slot(f, t, stats);
        }
        for (inst, tag) in self.seq.drain(..) {
            let tag = match tag {
                SpillTag::ResolveStore => SpillTag::EvictStore,
                SpillTag::ResolveLoad => SpillTag::EvictLoad,
                SpillTag::ResolveMove => SpillTag::EvictMove,
                other => other,
            };
            stats.record_insert(tag);
            out.push(Ins::tagged(inst, tag));
        }
    }
}

impl IonAllocator {
    /// Allocates one function, emitting every allocation decision to
    /// `sink`. With a disabled sink this is
    /// [`RegisterAllocator::allocate_function`].
    pub fn allocate_function_traced(
        &self,
        f: &mut Function,
        spec: &MachineSpec,
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
        allocate(f, spec, &mut stats, sink);
        f.allocated = true;
        debug_assert_eq!(f.validate(), Ok(()), "allocation left an invalid function");
        stats.alloc_seconds = start.elapsed().as_secs_f64();
        if sink.enabled() {
            sink.event(&TraceEvent::FunctionEnd { name: f.name.clone() });
        }
        stats
    }
}

impl RegisterAllocator for IonAllocator {
    fn name(&self) -> &str {
        "ion backtracking"
    }

    fn allocate_function(&self, f: &mut Function, spec: &MachineSpec) -> AllocStats {
        self.allocate_function_traced(f, spec, &mut NoopSink)
    }

    fn allocate_module_traced(
        &self,
        m: &mut Module,
        spec: &MachineSpec,
        sink: &mut dyn TraceSink,
    ) -> Option<AllocStats> {
        let mut total = AllocStats::default();
        for f in &mut m.funcs {
            total.merge(&self.allocate_function_traced(f, spec, sink));
        }
        Some(total)
    }
}

fn allocate(
    f: &mut Function,
    spec: &MachineSpec,
    stats: &mut AllocStats,
    sink: &mut dyn TraceSink,
) {
    // Phase 0: through SSA and back. Phi lowering reuses the parallel-move
    // sequencer, so the function that reaches the allocator proper is
    // phi-free with explicit (ResolveMove-tagged) copies; identity copies
    // among them are cleaned up at the end of this function.
    lsra_ssa::to_ssa_and_back(f);

    // Phi lowering split edges, so the graph is built after it. It holds
    // until phase 7 splits edges of its own.
    let cfg = Cfg::compute(f);
    let live = Liveness::compute_on(f, &cfg, 1);
    let loops = LoopInfo::compute(f, &cfg, &Dominators::compute(f, &cfg));
    let lt = Lifetimes::compute(f, &live, &loops, spec);
    stats.candidates = f.num_temps();

    let nt = f.num_temps();

    // Phase 1: one bundle per live temporary.
    let (mut st, bundle_of_temp) = State::new(f, &lt, spec);

    // Phase 2: move coalescing and hints. Walk moves in program order; a
    // temp-to-temp move whose bundles don't overlap merges them (the move
    // later collapses to an identity and vanishes), a move against a
    // physical register leaves a hint.
    let mut parent: Vec<u32> = (0..st.bundles.len() as u32).collect();
    for b in f.block_ids() {
        for ins in &f.block(b).insts {
            let Inst::Mov { dst, src } = ins.inst else { continue };
            match (dst, src) {
                (Reg::Temp(x), Reg::Temp(y)) => {
                    let (Some(bx), Some(by)) =
                        (bundle_of_temp[x.index()], bundle_of_temp[y.index()])
                    else {
                        continue;
                    };
                    let (bx, by) = (find(&mut parent, bx), find(&mut parent, by));
                    if bx == by || st.bundles[bx as usize].class != st.bundles[by as usize].class {
                        continue;
                    }
                    // Keep the lower id; a linear sweep over the two sorted
                    // range lists decides overlap.
                    let (keep, kill) = (bx.min(by), bx.max(by));
                    let (ka, kb) = (&st.bundles[keep as usize], &st.bundles[kill as usize]);
                    let overlapping = {
                        let (mut i, mut j) = (0, 0);
                        let mut hit = false;
                        while i < ka.ranges.len() && j < kb.ranges.len() {
                            let sa = st.ranges[ka.ranges[i] as usize].seg;
                            let sb = st.ranges[kb.ranges[j] as usize].seg;
                            if sa.overlaps(&sb) {
                                hit = true;
                                break;
                            }
                            if sa.end < sb.end {
                                i += 1;
                            } else {
                                j += 1;
                            }
                        }
                        hit
                    };
                    if overlapping {
                        continue;
                    }
                    let killed = std::mem::take(&mut st.bundles[kill as usize].ranges);
                    let kill_hint = st.bundles[kill as usize].hint;
                    st.bundles[kill as usize].dead = true;
                    let mut merged = {
                        let keepb = &mut st.bundles[keep as usize];
                        let mut merged = Vec::with_capacity(keepb.ranges.len() + killed.len());
                        merged.append(&mut keepb.ranges);
                        merged.extend(killed);
                        merged
                    };
                    merged.sort_by_key(|&r| st.ranges[r as usize].seg.start);
                    let keepb = &mut st.bundles[keep as usize];
                    keepb.ranges = merged;
                    if keepb.hint.is_none() {
                        keepb.hint = kill_hint;
                    }
                    parent[kill as usize] = keep;
                    stats.moves_coalesced += 1;
                }
                (Reg::Temp(x), Reg::Phys(p)) | (Reg::Phys(p), Reg::Temp(x)) => {
                    if let Some(bx) = bundle_of_temp[x.index()] {
                        let bx = find(&mut parent, bx);
                        let bb = &mut st.bundles[bx as usize];
                        if bb.hint.is_none() && bb.class == p.class {
                            bb.hint = Some(p);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Phase 3: the priority queue. Total live length first (long bundles
    // are the hardest to place), lowest id on ties.
    let mut initial: Vec<QueueKey> = Vec::with_capacity(st.bundles.len());
    for bid in 0..st.bundles.len() as u32 {
        if st.bundles[bid as usize].dead {
            continue;
        }
        let (prio, weight) = st.measure(&st.bundles[bid as usize].ranges);
        let b = &mut st.bundles[bid as usize];
        b.prio = prio;
        b.weight = weight;
        initial.push((prio, Reverse(bid)));
    }
    let mut queue = Queue::new(initial);
    // Eviction is bounded so that mutual-eviction chains cannot cycle
    // forever; once the budget is spent, bundles split or spill instead.
    let mut evict_budget: u64 = 8 * st.bundles.len() as u64 + 64;
    // The anchor register per temp: set when its first (highest-priority)
    // piece lands, read as a placement preference by every later piece.
    let mut temp_reg: Vec<Option<u32>> = vec![None; nt];

    while let Some(((_, Reverse(bid)), requeued)) = queue.pop() {
        let b = &st.bundles[bid as usize];
        if b.dead || b.spilled || b.assignment.is_some() {
            continue;
        }
        let class = b.class;
        let hint_d = b.hint.filter(|p| p.class == class).map(|p| spec.reg_index(p));
        // Sibling affinity: pieces of an already-placed temp try its
        // register first, so a split lifetime reassembles into one register
        // wherever it fits and edge resolution has nothing to repair. An
        // initial pop is an unsplit bundle never placed, which holds every
        // range of its temporaries, so none of them is anchored yet and
        // the walk is skipped.
        let anchor = |r: u32| temp_reg[st.ranges[r as usize].temp.index()];
        debug_assert!(requeued || b.ranges.iter().all(|&r| anchor(r).is_none()));
        let walk = if requeued { &b.ranges[..] } else { &[] };
        let mut sibling: SmallVec<usize, 4> = SmallVec::new();
        for &r in walk {
            if let Some(d) = anchor(r) {
                let d = d as usize;
                if hint_d != Some(d) && !sibling.contains(&d) {
                    sibling.push(d);
                }
            }
        }
        // Hint, then siblings, then dense order. Each register is probed
        // once: nothing changes between probes, so a repeat would fail again.
        let dense = spec.reg_indices(class).filter(|&d| hint_d != Some(d) && !sibling.contains(&d));
        let order = hint_d.into_iter().chain(sibling.iter().copied()).chain(dense);
        let mut placed = false;
        for d in order {
            if st.fits(bid, d) {
                if sink.enabled() {
                    sink.event(&TraceEvent::PackAssign { temp: st.repr(bid), reg: spec.reg_at(d) });
                }
                st.place(bid, d);
                for &r in &st.bundles[bid as usize].ranges {
                    let anchor = &mut temp_reg[st.ranges[r as usize].temp.index()];
                    if anchor.is_none() {
                        *anchor = Some(d as u32);
                    }
                }
                placed = true;
                break;
            }
        }
        if placed {
            continue;
        }

        // Eviction, open only to an unsplit bundle while the budget lasts:
        // take the register whose conflicting bundles have the smallest
        // maximum weight and evict them all if our weight *clearly*
        // dominates (more than 2x). Mere strict inequality lets
        // similar-weight bundles displace each other in cascades — each
        // round re-places every loser somewhere worse, and the measured
        // inserted spill code ends up far above just splitting around the
        // conflict.
        let may_evict = st.bundles[bid as usize].gen == 0 && evict_budget > 0;
        if let Some((d, cs)) = may_evict.then(|| st.eviction_target(bid)).flatten() {
            let at = st.ranges[st.bundles[bid as usize].ranges[0] as usize].seg.start;
            for &c in cs.iter() {
                st.unplace(c, d);
                if sink.enabled() {
                    sink.event(&TraceEvent::EvictBundle {
                        temp: st.repr(c),
                        reg: spec.reg_at(d),
                        at,
                    });
                }
                stats.evictions += 1;
                evict_budget = evict_budget.saturating_sub(1);
                queue.push((st.bundles[c as usize].prio, Reverse(c)));
            }
            if sink.enabled() {
                sink.event(&TraceEvent::PackAssign { temp: st.repr(bid), reg: spec.reg_at(d) });
            }
            st.place(bid, d);
            for &r in &st.bundles[bid as usize].ranges {
                let anchor = &mut temp_reg[st.ranges[r as usize].temp.index()];
                if anchor.is_none() {
                    *anchor = Some(d as u32);
                }
            }
            continue;
        }

        // Split: at block boundaries for multi-block bundles, at the widest
        // reference gap inside a single block. Pieces re-enter the queue
        // one generation deeper.
        if st.bundles[bid as usize].gen < MAX_GEN {
            if let Some(pieces) = split(&mut st, bid) {
                let gen = st.bundles[bid as usize].gen + 1;
                let hint = st.bundles[bid as usize].hint;
                let kind = pieces.kind;
                let repr = st.repr(bid);
                st.bundles[bid as usize].dead = true;
                for (i, rs) in pieces.groups.into_iter().enumerate() {
                    let (prio, weight) = st.measure(&rs);
                    let nbid = st.bundles.len() as u32;
                    if i > 0 {
                        let at = st.ranges[rs[0] as usize].seg.start;
                        if sink.enabled() {
                            sink.event(&TraceEvent::SplitBundle { temp: repr, at, kind });
                        }
                        stats.lifetime_splits += 1;
                    }
                    st.bundles.push(Bundle {
                        ranges: rs,
                        class,
                        hint,
                        gen,
                        prio,
                        weight,
                        assignment: None,
                        spilled: false,
                        dead: false,
                    });
                    queue.push((prio, Reverse(nbid)));
                }
                continue;
            }
        }

        // Second chance exhausted: the bundle lives in memory.
        if sink.enabled() {
            sink.event(&TraceEvent::PackSpill { temp: st.repr(bid) });
        }
        st.bundles[bid as usize].spilled = true;
    }

    // Location table: one row of `(start, end, bundle)` pieces per temp,
    // ascending by start. Location queries go through the owning bundle so
    // later demotions stay visible.
    let temp_pieces = {
        let (ranges, live) = (&st.ranges, st.bundles.iter().enumerate().filter(|(_, b)| !b.dead));
        let pieces = live
            .flat_map(|(bid, b)| b.ranges.iter().map(move |&r| (bid as u32, ranges[r as usize])));
        let table = Csr::group(nt, || {
            pieces.clone().map(|(bid, lr)| (lr.temp.index(), (lr.seg.start.0, lr.seg.end.0, bid)))
        });
        let (offsets, mut data) = table.into_parts();
        for w in offsets.windows(2) {
            data[w[0] as usize..w[1] as usize].sort_unstable_by_key(|e| e.0);
        }
        Csr::from_parts(offsets, data)
    };

    // Assignment smoothing. Each seam — adjacent pieces of one temporary
    // sitting in different registers — costs a connection or resolution
    // copy, and the priority queue places pieces in weight order, not in
    // program order, so seams are common. Greedily migrate a bundle to a
    // neighbour's register when that strictly increases its number of
    // matched seams and the register is free over all its ranges. Every
    // migration reduces the copy count, so the fixpoint is cheap; rounds
    // are capped for the pathological case of oscillating equal gains.
    // The seams do not move between rounds, so their adjacency is built
    // once: a counting sort, each row in the order its seams are met.
    let nbund = st.bundles.len();
    let adj = Csr::group(nbund, || {
        (0..nt)
            .flat_map(|t| temp_pieces.row(t).windows(2).map(|w| (w[0].2, w[1].2)))
            .filter(|(a, b)| a != b)
            .flat_map(|(a, b)| [(a as usize, b), (b as usize, a)])
    });
    for _ in 0..4 {
        let mut changed = false;
        for bid in 0..nbund as u32 {
            let b = &st.bundles[bid as usize];
            if b.dead || b.spilled {
                continue;
            }
            let Some(cur) = b.assignment else { continue };
            let class = b.class;
            let mut cands: SmallVec<PhysReg, 4> = SmallVec::new();
            for &n in adj.row(bid as usize) {
                if let Some(r) = st.bundles[n as usize].assignment {
                    if r != cur && r.class == class && !cands.contains(&r) {
                        cands.push(r);
                    }
                }
            }
            for &r in cands.iter() {
                let (mut at_r, mut at_cur) = (0i32, 0i32);
                for &n in adj.row(bid as usize) {
                    match st.bundles[n as usize].assignment {
                        Some(q) if q == r => at_r += 1,
                        Some(q) if q == cur => at_cur += 1,
                        _ => {}
                    }
                }
                if at_r <= at_cur {
                    continue;
                }
                let (d_old, d_new) = (spec.reg_index(cur), spec.reg_index(r));
                if st.fits(bid, d_new) {
                    st.unplace(bid, d_old);
                    st.place(bid, d_new);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 4: point feasibility, the shared fixpoint of `lsra_core::point`
    // — every instruction touching memory-resident values needs enough free
    // registers for its scratch loads and stores; ion demotes its own
    // victims (see `Points::demote`) until it does.
    let mut points = Points {
        st: &mut st,
        temp_pieces: &temp_pieces,
        connections: Vec::new(),
        next_conn: 0,
        ops: Vec::new(),
        seq: Vec::new(),
    };
    stats.iterations = point::ensure_point_feasibility(&mut points, f, &lt, spec, sink);

    // Phase 5: connection copies between adjacent pieces cut mid-block by a
    // use-gap split. Block-top cuts are repaired by edge resolution instead.
    points.connections = {
        let st = &*points.st;
        let mut connections: Vec<(u32, EdgeOp)> = Vec::new();
        for ti in 0..nt {
            let t = Temp(ti as u32);
            for w in temp_pieces.row(ti).windows(2) {
                let ((_, e1, b1), (s2, _, b2)) = (w[0], w[1]);
                if e1 + 1 != s2 || st.block_tops.binary_search(&s2).is_ok() {
                    continue;
                }
                let gi = (s2 - 3) / 4;
                let from = st.bundles[b1 as usize].assignment;
                let to = st.bundles[b2 as usize].assignment;
                match (from, to) {
                    (Some(r1), Some(r2)) if r1 != r2 => {
                        connections.push((gi, EdgeOp::Move { temp: t, src: r1, dst: r2 }));
                    }
                    (Some(r1), None) => connections.push((gi, EdgeOp::Store { temp: t, src: r1 })),
                    (None, Some(r2)) => connections.push((gi, EdgeOp::Load { temp: t, dst: r2 })),
                    _ => {}
                }
            }
        }
        connections.sort_by_key(|&(gi, _)| gi);
        connections
    };

    // Phase 6: the shared rewrite. Every temp operand becomes its piece's
    // register, or a scratch register free over the instruction's span when
    // the piece lives in memory; each instruction's connection copies go
    // first (`Points::before`).
    point::rewrite(&mut points, f, &lt, spec, stats, &mut PointScratch::default(), sink);

    // Phase 7: edge resolution. The split bundles make locations per-piece,
    // so a temp's register leaving a predecessor can differ from the one
    // its successor expects — the linear scan's §2.4 repair (`EdgeRepair`),
    // fed piece locations. Ion keeps no cross-edge consistency facts, so a
    // register-to-memory transition always stores.
    EdgeRepair::default().run(f, &cfg, stats, sink, |p, s, ops, sink| {
        for g in live.live_in(s).iter() {
            let t = live.temp_of(g);
            // Bottom of p = the write slot of its last instruction (the
            // last point a leaving value can occupy); top of s = the
            // boundary before its first.
            let loc_p = loc_at(&temp_pieces, &st.bundles, t, Point(lt.bottom(p).0 - 1));
            let loc_s = loc_at(&temp_pieces, &st.bundles, t, lt.top(s));
            let op = match (loc_p, loc_s) {
                (Some(r1), Some(r2)) if r1 != r2 => Some((
                    EdgeOp::Move { temp: t, src: r1, dst: r2 },
                    ResolveOp::Move { temp: t, src: r1, dst: r2 },
                )),
                (Some(r1), None) => Some((
                    EdgeOp::Store { temp: t, src: r1 },
                    ResolveOp::Store { temp: t, src: r1 },
                )),
                (None, Some(r2)) => {
                    Some((EdgeOp::Load { temp: t, dst: r2 }, ResolveOp::Load { temp: t, dst: r2 }))
                }
                _ => None,
            };
            if let Some((op, rop)) = op {
                ops.push(op);
                if sink.enabled() {
                    sink.event(&TraceEvent::EdgeOp { pred: p, succ: s, op: rop });
                }
            }
        }
    });

    // Phase 8: redundant spill-code elimination. The rewrite above reloads
    // a spilled temporary at every use, so a block that reads the same
    // spilled value twice (or stores it and reads it straight back) carries
    // loads whose destination register provably still holds the slot's
    // value, and stores that rewrite the slot with its own value. A forward
    // scan maintains availability facts `(temp, reg, exact)`:
    //
    //   reg's symbolic claims ⊇ the slot's claims, and with `exact`, the
    //   two claim sets are equal.
    //
    // Superset facts justify dropping a reload (the load would only shrink
    // the register's claims); dropping a store needs `exact` (the store
    // replaces the slot's claims with the register's, so a mere superset
    // could launder a claim the slot never had — the checker would reject
    // the next reload "on some path"). Loads and stores establish exact
    // facts; an inserted move copies its source's fact verbatim, while an
    // untagged program move also mints a fresh definition symbol in its
    // destination and therefore degrades the fact to a superset. Facts die
    // when the register is redefined or a call clobbers the caller-saved
    // set; a store to the slot retires every fact for that temporary
    // (older copies hold the superseded value).
    let mut avail: Vec<(Temp, PhysReg, bool)> = Vec::new();
    // Row `b`: the facts at the bottom of block `b`, for the blocks scanned
    // so far.
    let mut avail_out: Csr<(Temp, PhysReg, bool)> = Csr::new();
    let cfg = Cfg::compute(f); // after phase 7's splits
    for bi in 0..f.blocks.len() {
        avail.clear();
        // A single-predecessor block inherits the predecessor's facts when
        // that block has already been scanned (its code is final; only a
        // scanned block has a row).
        if let [p] = *cfg.preds(BlockId(bi as u32)) {
            if p.index() < avail_out.rows() {
                avail.extend_from_slice(avail_out.row(p.index()));
            }
        }
        let blk = &mut f.blocks[bi];
        blk.insts.retain_mut(|ins| {
            match ins.inst {
                Inst::SpillLoad { dst: Reg::Phys(p), temp: t } if ins.tag != SpillTag::None => {
                    if avail.iter().any(|&(u, q, _)| (u, q) == (t, p)) {
                        stats.record_remove(ins.tag);
                        return false;
                    }
                    avail.retain(|&(_, q, _)| q != p);
                    avail.push((t, p, true));
                }
                Inst::SpillStore { src: Reg::Phys(p), temp: t } => {
                    if avail.contains(&(t, p, true)) {
                        if ins.tag != SpillTag::None {
                            stats.record_remove(ins.tag);
                            return false;
                        }
                    } else {
                        avail.retain(|&(u, _, _)| u != t);
                        avail.push((t, p, true));
                    }
                }
                Inst::Mov { dst: Reg::Phys(d), src: Reg::Phys(s) } if d != s => {
                    let inserted = ins.tag != SpillTag::None;
                    let carried: Vec<(Temp, bool)> = avail
                        .iter()
                        .filter(|&&(_, q, _)| q == s)
                        .map(|&(t, _, exact)| (t, exact && inserted))
                        .collect();
                    avail.retain(|&(_, q, _)| q != d);
                    avail.extend(carried.into_iter().map(|(t, exact)| (t, d, exact)));
                }
                _ => {
                    if ins.inst.is_call() {
                        avail.retain(|&(_, q, _)| !spec.is_caller_saved(q));
                    }
                    ins.inst.for_each_def(|r| {
                        if let Reg::Phys(p) = r {
                            avail.retain(|&(_, q, _)| q != p);
                        }
                    });
                }
            }
            true
        });
        for &fact in &avail {
            avail_out.push(fact);
        }
        avail_out.finish_row();
    }

    // A slot nothing ever reloads is write-only — spill slots are
    // function-private, so every store to it is dead. (Cheap whole-slot
    // form of the paper's §2.4 dead-store suggestion; the per-path version
    // lives in the optional post-allocation cleanup pass.)
    let mut slot_read = BitSet::new(f.num_temps());
    for blk in &f.blocks {
        for ins in &blk.insts {
            if let Inst::SpillLoad { temp, .. } = ins.inst {
                slot_read.insert(temp.index());
            }
        }
    }
    for blk in &mut f.blocks {
        blk.insts.retain(|ins| match ins.inst {
            Inst::SpillStore { temp, .. }
                if ins.tag != SpillTag::None && !slot_read.contains(temp.index()) =>
            {
                stats.record_remove(ins.tag);
                false
            }
            _ => true,
        });
    }

    // The SSA copies that coalesced now read and write the same register;
    // drop them. Only *tagged* moves may go: the symbolic checker pairs the
    // untagged stream 1:1 with the original, so original identity moves must
    // survive until the caller's post-allocation peephole.
    for blk in &mut f.blocks {
        blk.insts.retain(|ins| {
            ins.tag == SpillTag::None || !matches!(ins.inst, Inst::Mov { dst, src } if dst == src)
        });
    }
}

/// The pieces of one split: the ranges below the cut point and those from
/// it on, each ascending by start.
struct SplitPieces {
    kind: SplitKind,
    groups: [Vec<u32>; 2],
}

/// Splits bundle `bid` at one point: the top of the median block it touches
/// when it spans several blocks, or the boundary before the far side of the
/// widest gap between its references inside a single block. Returns `None`
/// when no cut makes progress (the caller spills).
fn split(st: &mut State<'_>, bid: u32) -> Option<SplitPieces> {
    debug_assert!(st.ranges_ascend(bid), "bundle {bid}'s ranges overlap or are out of order");
    // Range `[s, e]` touches blocks `block_of(s)..=block_of(e)`. The ranges
    // ascend and are disjoint, so a span can share only its first block
    // with the spans before it: each adds its blocks from `next` on.
    let spans = || {
        st.bundles[bid as usize].ranges.iter().scan(0usize, |next, &r| {
            let seg = st.ranges[r as usize].seg;
            let (lo, hi) = (st.block_of(seg.start).max(*next), st.block_of(seg.end) + 1);
            *next = hi;
            Some(lo..hi)
        })
    };
    let touched: usize = spans().map(|b| b.len()).sum();
    if touched > 1 {
        // Bisect at the median touched block rather than shattering into
        // per-block shards: every extra piece is a potential edge-resolution
        // move, so fragmentation should grow only where conflicts persist
        // (the halves re-enter the queue and bisect again on failure).
        let mut k = touched / 2;
        let mid = spans()
            .find_map(|b| {
                if k < b.len() {
                    return Some(b.start + k);
                }
                k -= b.len();
                None
            })
            .expect("the median is a touched block");
        let c = st.block_tops[mid];
        return Some(SplitPieces { kind: SplitKind::BlockBoundary, groups: cut(st, bid, c) });
    }

    // Single block: cut at the boundary before the far side of the widest
    // gap between distinct referencing instructions.
    let mut gis: Vec<u32> = Vec::new();
    for &r in &st.bundles[bid as usize].ranges {
        let lr = st.ranges[r as usize];
        let rs = st.lt.refs(lr.temp);
        let lo = rs.partition_point(|rp| rp.point < lr.seg.start);
        let hi = rs.partition_point(|rp| rp.point <= lr.seg.end);
        gis.extend(rs[lo..hi].iter().map(|rp| (rp.point.0 - 3) / 4));
    }
    gis.sort_unstable();
    gis.dedup();
    if gis.len() < 2 {
        return None;
    }
    let (mut cut_gi, mut widest) = (0u32, 0u32);
    for w in gis.windows(2) {
        if w[1] - w[0] > widest {
            widest = w[1] - w[0];
            cut_gi = w[1];
        }
    }
    let groups = cut(st, bid, Point::before(cut_gi).0);
    if groups.iter().any(Vec::is_empty) {
        return None;
    }
    Some(SplitPieces { kind: SplitKind::UseGap, groups })
}

/// The ranges of bundle `bid` below point `c`, and those from `c` on. Whole
/// ranges keep their arena entries; the one range straddling `c`, if any
/// (the ranges are disjoint), is cut once, into two new entries.
fn cut(st: &mut State<'_>, bid: u32, c: u32) -> [Vec<u32>; 2] {
    let rs = &st.bundles[bid as usize].ranges;
    let i = rs.partition_point(|&r| st.ranges[r as usize].seg.end.0 < c);
    let (mut below, mut above) = (rs[..i].to_vec(), rs[i..].to_vec());
    if let Some(r) = above.first_mut() {
        let LiveRange { temp, seg } = st.ranges[*r as usize];
        if seg.start.0 < c {
            below.push(st.ranges.len() as u32);
            st.ranges.push(LiveRange { temp, seg: Segment::new(seg.start, Point(c - 1)) });
            *r = st.ranges.len() as u32;
            st.ranges.push(LiveRange { temp, seg: Segment::new(Point(c), seg.end) });
        }
    }
    [below, above]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, ModuleBuilder};

    fn module_of(f: Function) -> Module {
        let mut mb = ModuleBuilder::new("t", 0);
        let id = mb.add(f);
        mb.entry(id);
        mb.finish()
    }

    fn seg(start: u32, end: u32) -> Segment {
        Segment::new(Point(start), Point(end))
    }

    /// The two-stream queue pops exactly what one heap of every entry pops,
    /// under random interleaved pushes and pops: initial keys with tied
    /// priorities, re-pushes of popped bundles (evictions) and fresh ids
    /// (split pieces) of any priority.
    #[test]
    fn two_stream_queue_pops_like_one_heap() {
        let mut rng = lsra_workloads::Lcg::new(24);
        for case in 0..300 {
            let n = rng.below(60) as u32;
            let initial: Vec<QueueKey> =
                (0..n).map(|bid| (rng.below(1 + u64::from(n) / 4), Reverse(bid))).collect();
            let mut heap: BinaryHeap<QueueKey> = initial.iter().copied().collect();
            let mut queue = Queue::new(initial);
            let (mut next_bid, mut popped, mut pushed) = (n, Vec::new(), Vec::new());
            loop {
                if rng.below(3) == 0 {
                    let key = match (rng.below(2), popped.is_empty()) {
                        (0, false) => popped.swap_remove(rng.below(popped.len() as u64) as usize),
                        _ => {
                            next_bid += 1;
                            (rng.below(1 + u64::from(n) / 2), Reverse(next_bid))
                        }
                    };
                    heap.push(key);
                    queue.push(key);
                    pushed.push(key);
                    continue;
                }
                let got = queue.pop();
                assert_eq!(got.map(|(key, _)| key), heap.pop(), "case {case}");
                let Some((key, requeued)) = got else { break };
                let was_pushed = pushed.iter().position(|&k| k == key);
                assert_eq!(requeued, was_pushed.is_some(), "case {case}: {key:?}");
                if let Some(i) = was_pushed {
                    pushed.swap_remove(i);
                }
                popped.push(key);
            }
        }
    }

    /// `split` as it was before single cuts, kept as the reference it must
    /// match: every range is cut at each block top inside it, the per-block
    /// parts go to either side of the median touched block, and a
    /// single-block bundle is cut at its widest use gap, with every range
    /// copied.
    fn split_per_block_parts(st: &mut State<'_>, bid: u32) -> Option<SplitPieces> {
        fn push_range(st: &mut State<'_>, temp: Temp, seg: Segment) -> u32 {
            st.ranges.push(LiveRange { temp, seg });
            st.ranges.len() as u32 - 1
        }
        let mut parts: Vec<(usize, Temp, Segment)> = Vec::new();
        for &r in &st.bundles[bid as usize].ranges {
            let lr = st.ranges[r as usize];
            let (mut a, b) = (lr.seg.start.0, lr.seg.end.0);
            let lo = st.block_tops.partition_point(|&c| c <= a);
            let hi = st.block_tops.partition_point(|&c| c <= b);
            for &c in &st.block_tops[lo..hi] {
                parts.push((st.block_of(Point(a)), lr.temp, Segment::new(Point(a), Point(c - 1))));
                a = c;
            }
            parts.push((st.block_of(Point(a)), lr.temp, Segment::new(Point(a), Point(b))));
        }
        parts.sort_by_key(|&(blk, _, s)| (blk, s.start));
        if parts.windows(2).any(|w| w[0].0 != w[1].0) {
            let mut blocks: Vec<usize> = parts.iter().map(|&(blk, _, _)| blk).collect();
            blocks.dedup();
            let mid = blocks[blocks.len() / 2];
            let mut groups: [Vec<u32>; 2] = Default::default();
            for (blk, temp, seg) in parts {
                let r = push_range(st, temp, seg);
                groups[usize::from(blk >= mid)].push(r);
            }
            return Some(SplitPieces { kind: SplitKind::BlockBoundary, groups });
        }
        let mut gis: Vec<u32> = Vec::new();
        for &r in &st.bundles[bid as usize].ranges {
            let lr = st.ranges[r as usize];
            let rs = st.lt.refs(lr.temp);
            let lo = rs.partition_point(|rp| rp.point < lr.seg.start);
            let hi = rs.partition_point(|rp| rp.point <= lr.seg.end);
            gis.extend(rs[lo..hi].iter().map(|rp| (rp.point.0 - 3) / 4));
        }
        gis.sort_unstable();
        gis.dedup();
        if gis.len() < 2 {
            return None;
        }
        let (mut cut_gi, mut widest) = (0u32, 0u32);
        for w in gis.windows(2) {
            if w[1] - w[0] > widest {
                widest = w[1] - w[0];
                cut_gi = w[1];
            }
        }
        let c = Point::before(cut_gi).0;
        let (mut before, mut after) = (Vec::new(), Vec::new());
        for r in st.bundles[bid as usize].ranges.clone() {
            let lr = st.ranges[r as usize];
            if lr.seg.end.0 < c {
                before.push(push_range(st, lr.temp, lr.seg));
            } else if lr.seg.start.0 >= c {
                after.push(push_range(st, lr.temp, lr.seg));
            } else {
                before.push(push_range(st, lr.temp, Segment::new(lr.seg.start, Point(c - 1))));
                after.push(push_range(st, lr.temp, Segment::new(Point(c), lr.seg.end)));
            }
        }
        if before.is_empty() || after.is_empty() {
            return None;
        }
        Some(SplitPieces { kind: SplitKind::UseGap, groups: [before, after] })
    }

    /// The points of a range set per temporary: `(temp, start, end)` runs,
    /// ascending, with contiguous runs of one temporary joined.
    fn points_per_temp(st: &State<'_>, rs: &[u32]) -> Vec<(u32, u32, u32)> {
        let mut all: Vec<(u32, u32, u32)> = rs
            .iter()
            .map(|&r| st.ranges[r as usize])
            .map(|lr| (lr.temp.0, lr.seg.start.0, lr.seg.end.0))
            .collect();
        all.sort_unstable();
        let mut runs: Vec<(u32, u32, u32)> = Vec::new();
        for (t, s, e) in all {
            match runs.last_mut() {
                Some(last) if last.0 == t && last.2 + 1 == s => last.2 = e,
                _ => runs.push((t, s, e)),
            }
        }
        runs
    }

    /// Up to a dozen ascending, disjoint seeded ranges over temporaries
    /// `temps`, in the point space that `block_tops` divides and `last`
    /// ends: short ranges inside one block (often ending in the block where
    /// the next one starts), ranges across up to four block tops, and a
    /// dead-def point range on a block's last write slot followed by the
    /// same temporary from the next block's top.
    fn seeded_ranges(
        rng: &mut lsra_workloads::Lcg,
        block_tops: &[u32],
        last: u32,
        temps: &[Temp],
    ) -> Vec<LiveRange> {
        let nb = block_tops.len();
        let block_end = |b: usize| block_tops.get(b + 1).map_or(last, |&t| t - 1);
        let block_of = |p: u32| block_tops.partition_point(|&t| t <= p) - 1;
        let in_block = |rng: &mut lsra_workloads::Lcg, b: usize| {
            block_tops[b] + rng.below(u64::from(block_end(b) - block_tops[b]) + 1) as u32
        };
        let mut out: Vec<LiveRange> = Vec::new();
        let first = rng.below(nb as u64) as usize;
        let mut at = in_block(rng, first);
        while at <= last && out.len() < 12 {
            let temp = temps[rng.below(temps.len() as u64) as usize];
            let b = block_of(at);
            let range = |s: u32, e: u32| LiveRange { temp, seg: seg(s, e) };
            // The last block has no block top after it to cross.
            let shape = if b + 1 < nb { rng.below(3) } else { 0 };
            let end = match shape {
                0 => {
                    let e = (at + rng.below(12) as u32).min(block_end(b));
                    out.push(range(at, e));
                    e
                }
                1 => {
                    let b2 = (b + 1 + rng.below(4) as usize).min(nb - 1);
                    let e = in_block(rng, b2);
                    out.push(range(at, e));
                    e
                }
                _ => {
                    let w = block_end(b);
                    out.push(range(w, w));
                    let b2 = (b + 1 + rng.below(3) as usize).min(nb - 1);
                    let e = in_block(rng, b2);
                    out.push(range(w + 1, e));
                    e
                }
            };
            at = end + 1 + rng.below(6) as u32;
        }
        out
    }

    /// Single-cut `split` against the per-block-part reference on seeded
    /// bundles of random programs (their phase-1 bundles and seeded range
    /// sets, each split again, piece by piece, a few generations deep): both
    /// give up together, or both cut the same kind of split into pieces
    /// holding the same points per temporary. Every piece's ranges ascend
    /// and are disjoint, and a piece holds at most one range more than its
    /// parent.
    #[test]
    fn single_cut_split_matches_per_block_parts() {
        let spec = MachineSpec::alpha_like();
        let mut rng = lsra_workloads::Lcg::new(26);
        // Splits seen: by block boundary, by use gap, with a range cut, of a
        // bundle with two ranges in one block that is not the only one it
        // touches, and of one holding a dead-def point range right before
        // its temporary's block-top range.
        let mut seen = [0usize; 5];
        for seed in 0..24u64 {
            let config = lsra_workloads::random::RandomConfig {
                blocks: 4 + seed as usize % 9,
                ..Default::default()
            };
            let m = lsra_workloads::random::RandomProgram::new(seed, config).build(&spec);
            for f in &m.funcs {
                let cfg = Cfg::compute(f);
                let live = Liveness::compute_on(f, &cfg, 1);
                let loops = LoopInfo::compute(f, &cfg, &Dominators::compute(f, &cfg));
                let lt = Lifetimes::compute(f, &live, &loops, &spec);
                let (mut st, _) = State::new(f, &lt, &spec);
                let temps: Vec<Temp> = (0..f.num_temps() as u32).map(Temp).collect();
                let last = Point::write(lt.num_insts() - 1).0;
                for _ in 0..30 {
                    let k = 1 + rng.below(3) as usize;
                    let mine: Vec<Temp> =
                        (0..k).map(|_| temps[rng.below(temps.len() as u64) as usize]).collect();
                    let rs: Vec<u32> = seeded_ranges(&mut rng, &st.block_tops, last, &mine)
                        .into_iter()
                        .map(|lr| {
                            st.ranges.push(lr);
                            st.ranges.len() as u32 - 1
                        })
                        .collect();
                    let mut b = st.bundles[0].clone();
                    b.ranges = rs;
                    st.bundles.push(b);
                }
                let mut work: Vec<(u32, u8)> =
                    (0..st.bundles.len() as u32).map(|b| (b, 0)).collect();
                while let Some((bid, depth)) = work.pop() {
                    let why = format!("seed {seed} {} bundle {bid}", f.name);
                    let parent: Vec<LiveRange> = st.bundles[bid as usize]
                        .ranges
                        .iter()
                        .map(|&r| st.ranges[r as usize])
                        .collect();
                    let want = split_per_block_parts(&mut st, bid);
                    let got = split(&mut st, bid);
                    let (got, want) = match (got, want) {
                        (None, None) => continue,
                        (Some(got), Some(want)) => (got, want),
                        (got, want) => panic!(
                            "{why}: split gives {:?}, the reference {:?}",
                            got.map(|p| p.kind),
                            want.map(|p| p.kind)
                        ),
                    };
                    assert_eq!(got.kind, want.kind, "{why}");
                    let block = |p: Point| st.block_of(p);
                    seen[usize::from(got.kind == SplitKind::UseGap)] += 1;
                    let pieces = got.groups[0].len() + got.groups[1].len();
                    seen[2] += usize::from(pieces == parent.len() + 1);
                    seen[3] += usize::from(
                        got.kind == SplitKind::BlockBoundary
                            && parent
                                .windows(2)
                                .any(|w| block(w[0].seg.end) == block(w[1].seg.start)),
                    );
                    seen[4] += usize::from(parent.windows(2).any(|w| {
                        w[0].temp == w[1].temp
                            && w[0].seg.start == w[0].seg.end
                            && st.block_tops.binary_search(&w[1].seg.start.0).is_ok()
                            && w[0].seg.end.0 + 1 == w[1].seg.start.0
                    }));
                    for (g, w) in got.groups.iter().zip(&want.groups) {
                        assert_eq!(points_per_temp(&st, g), points_per_temp(&st, w), "{why}");
                        assert!(
                            g.len() <= parent.len() + 1,
                            "{why}: {} ranges from {}",
                            g.len(),
                            parent.len()
                        );
                        let nbid = st.bundles.len() as u32;
                        let mut b = st.bundles[bid as usize].clone();
                        b.ranges = g.clone();
                        st.bundles.push(b);
                        assert!(st.ranges_ascend(nbid), "{why}: piece {g:?}");
                        if depth < 5 {
                            work.push((nbid, depth + 1));
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 20), "split shapes seen: {seen:?}");
    }

    #[test]
    fn straight_line_no_spills() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        b.movi(x, 2);
        b.movi(y, 3);
        let z = b.int_temp("z");
        b.add(z, x, y);
        b.ret(Some(z.into()));
        let mut f = b.finish();
        let stats = IonAllocator::new().allocate_function(&mut f, &spec);
        assert!(f.allocated);
        assert!(f.validate().is_ok());
        assert_eq!(stats.inserted_total(), 0);
        assert_eq!(stats.spilled_temps, 0);
    }

    #[test]
    fn pressure_forces_spills_and_verifies() {
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let ts: Vec<_> = (0..8).map(|i| b.int_temp(&format!("t{i}"))).collect();
        for (i, &t) in ts.iter().enumerate() {
            b.movi(t, i as i64);
        }
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        for &t in &ts {
            b.add(acc, acc, t);
        }
        b.ret(Some(acc.into()));
        let module = module_of(b.finish());
        let mut m = module.clone();
        let stats = IonAllocator::new().allocate_module(&mut m, &spec);
        assert!(stats.spilled_temps + stats.lifetime_splits as usize > 0);
        lsra_vm::verify_allocation(&module, &m, &spec, &[], lsra_vm::VmOptions::default())
            .expect("verified");
    }

    #[test]
    fn loop_with_branches_verifies() {
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let ts: Vec<_> = (0..5).map(|i| b.int_temp(&format!("t{i}"))).collect();
        for &t in &ts {
            b.movi(t, 1);
        }
        let n = b.int_temp("n");
        b.movi(n, 10);
        let head = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.branch(Cond::Le, n, exit, body);
        b.switch_to(body);
        for &t in &ts {
            b.add(t, t, n);
        }
        b.addi(n, n, -1);
        b.jump(head);
        b.switch_to(exit);
        let out = b.int_temp("out");
        b.movi(out, 0);
        for &t in &ts {
            b.add(out, out, t);
        }
        b.ret(Some(out.into()));
        let module = module_of(b.finish());
        let mut m = module.clone();
        IonAllocator::new().allocate_module(&mut m, &spec);
        lsra_vm::verify_allocation(&module, &m, &spec, &[], lsra_vm::VmOptions::default())
            .expect("verified");
    }

    #[test]
    fn allocation_is_deterministic() {
        let spec = MachineSpec::small(4, 2);
        let build = || {
            let mut b = FunctionBuilder::new(&spec, "main", &[]);
            let ts: Vec<_> = (0..7).map(|i| b.int_temp(&format!("t{i}"))).collect();
            for (i, &t) in ts.iter().enumerate() {
                b.movi(t, i as i64);
            }
            let acc = b.int_temp("acc");
            b.movi(acc, 0);
            for &t in &ts {
                b.add(acc, acc, t);
            }
            b.ret(Some(acc.into()));
            module_of(b.finish())
        };
        let mut a = build();
        let mut b2 = build();
        IonAllocator::new().allocate_module(&mut a, &spec);
        IonAllocator::new().allocate_module(&mut b2, &spec);
        assert_eq!(format!("{a}"), format!("{b2}"));
    }

    #[test]
    fn backtracking_fires_under_block_pressure() {
        // Long-lived temps crossing a high-pressure region should split or
        // evict rather than spill outright.
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let keep: Vec<_> = (0..3).map(|i| b.int_temp(&format!("k{i}"))).collect();
        for (i, &t) in keep.iter().enumerate() {
            b.movi(t, i as i64);
        }
        let mid = b.block();
        let tail = b.block();
        b.jump(mid);
        b.switch_to(mid);
        let hot: Vec<_> = (0..4).map(|i| b.int_temp(&format!("h{i}"))).collect();
        for (i, &t) in hot.iter().enumerate() {
            b.movi(t, 10 + i as i64);
        }
        let hacc = b.int_temp("hacc");
        b.movi(hacc, 0);
        for &t in &hot {
            b.add(hacc, hacc, t);
        }
        b.jump(tail);
        b.switch_to(tail);
        let out = b.int_temp("out");
        b.movi(out, 0);
        for &t in &keep {
            b.add(out, out, t);
        }
        b.add(out, out, hacc);
        b.ret(Some(out.into()));
        let module = module_of(b.finish());
        let mut m = module.clone();
        let stats = IonAllocator::new().allocate_module(&mut m, &spec);
        assert!(
            stats.lifetime_splits + stats.evictions > 0,
            "expected backtracking under pressure: {stats:?}"
        );
        lsra_vm::verify_allocation(&module, &m, &spec, &[], lsra_vm::VmOptions::default())
            .expect("verified");
    }
}
