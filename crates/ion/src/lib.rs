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
//!    bundles whose spill weight it at least doubles (they return to the
//!    queue; a budget bounds the cascading), any bundle may **split** into
//!    smaller bundles at block boundaries or at the widest gap between its
//!    references, or — as the second-chance fallback that guarantees
//!    termination — spill to memory for good;
//! 5. a feasibility pass mirrors the two-pass comparator's point-lifetime
//!    repair, the rewrite installs spill code and split-connection copies,
//!    a resolution pass repairs locations across CFG edges with the
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
    split_edge, BitSet, IntervalMap, Lifetimes, Liveness, LoopInfo, Point, Segment, SmallVec,
};
use lsra_core::{sequentialize_into, AllocStats, EdgeOp, RegisterAllocator};
use lsra_ir::{
    BlockId, Function, Ins, Inst, MachineSpec, Module, PhysReg, Reg, RegClass, SpillTag, Temp,
};
use lsra_trace::{NoopSink, ResolveOp, SplitKind, TraceEvent, TraceSink};

/// Recursive splitting depth cap: a bundle split this many times spills
/// instead of splitting again. Every split strictly shrinks the pieces, so
/// the cap is a backstop, not a tuning knob.
const MAX_GEN: u8 = 16;

/// One contiguous `[start, end]` interval of one temporary's liveness.
/// Splitting appends smaller ranges; the parent's entries go stale with the
/// parent bundle.
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
    /// at least double the victim's weight from the evictor.
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

struct State<'a> {
    lt: &'a Lifetimes,
    ni: usize,
    ranges: Vec<LiveRange>,
    bundles: Vec<Bundle>,
    /// Occupancy per dense register; blocked (precolored / call-clobber)
    /// segments are owned by `None`, assigned ranges by `Temp(bundle_id)`.
    regs: Vec<IntervalMap>,
    /// `top(b).0` per block, ascending in linear order.
    block_tops: Vec<u32>,
}

impl State<'_> {
    fn phys(&self, d: usize) -> PhysReg {
        if d < self.ni {
            PhysReg::int(d as u8)
        } else {
            PhysReg::float((d - self.ni) as u8)
        }
    }

    fn dense(&self, p: PhysReg) -> usize {
        match p.class {
            RegClass::Int => p.index as usize,
            RegClass::Float => self.ni + p.index as usize,
        }
    }

    fn class_range(&self, class: RegClass) -> std::ops::Range<usize> {
        match class {
            RegClass::Int => 0..self.ni,
            RegClass::Float => self.ni..self.regs.len(),
        }
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
                refs += rp.weight;
            }
        }
        (len, refs / len.max(1) as f64)
    }

    /// True if every range of the set avoids everything parked in register
    /// `d` (blocked segments included).
    fn fits(&self, range_ids: &[u32], d: usize) -> bool {
        range_ids.iter().all(|&r| {
            let s = self.ranges[r as usize].seg;
            !self.regs[d].overlaps(s.start.0, s.end.0)
        })
    }

    fn assign(&mut self, bid: u32, d: usize) {
        let ranges = std::mem::take(&mut self.bundles[bid as usize].ranges);
        for &r in &ranges {
            let s = self.ranges[r as usize].seg;
            self.regs[d].insert(s.start.0, s.end.0, Some(Temp(bid)));
        }
        let reg = self.phys(d);
        let b = &mut self.bundles[bid as usize];
        b.ranges = ranges;
        b.assignment = Some(reg);
    }

    /// All distinct bundles parked in `d` that conflict with the range set;
    /// `None` when a blocked segment conflicts (the register cannot be
    /// evicted free).
    fn conflicts(&self, range_ids: &[u32], d: usize) -> Option<SmallVec<u32, 8>> {
        let mut out: SmallVec<u32, 8> = SmallVec::new();
        for &r in range_ids {
            let s = self.ranges[r as usize].seg;
            for (_, _, owner) in self.regs[d].overlapping_entries(s.start.0, s.end.0) {
                match owner {
                    None => return None,
                    Some(t) => {
                        if !out.contains(&t.0) {
                            out.push(t.0);
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// The block containing `p` in linear order.
    fn block_of(&self, p: Point) -> usize {
        self.block_tops.partition_point(|&s| s <= p.0) - 1
    }
}

/// The span a point lifetime at instruction `gi` must have free (same model
/// as the two-pass comparator).
fn point_span(gi: u32) -> Segment {
    Segment::new(Point::before(gi), Point::before(gi + 1))
}

/// Location lookup: the piece of `t` containing `p`, through its bundle's
/// *current* assignment — so feasibility demotions propagate to every later
/// consumer without rebuilding the table.
fn loc_at(
    temp_pieces: &[Vec<(u32, u32, u32)>],
    bundles: &[Bundle],
    t: Temp,
    p: Point,
) -> Option<PhysReg> {
    let pieces = &temp_pieces[t.index()];
    let i = pieces.partition_point(|e| e.0 <= p.0);
    let (_, end, bid) = *pieces[..i].last()?;
    if end < p.0 {
        return None;
    }
    bundles[bid as usize].assignment
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
        debug_assert!(!f.has_virtual_operands(), "allocation left virtual operands");
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

    let live = Liveness::compute(f);
    let loops = LoopInfo::of(f);
    let lt = Lifetimes::compute(f, &live, &loops, spec);
    stats.candidates = f.num_temps();

    let nt = f.num_temps();
    let ni = spec.num_regs(RegClass::Int) as usize;
    let nregs = spec.total_regs();
    let nb = f.num_blocks();

    // Phase 1: one bundle per live temporary.
    let mut st = State {
        lt: &lt,
        ni,
        ranges: Vec::new(),
        bundles: Vec::new(),
        regs: vec![IntervalMap::new(); nregs],
        block_tops: (0..nb).map(|b| lt.top(BlockId(b as u32)).0).collect(),
    };
    for d in 0..nregs {
        let p = st.phys(d);
        for &s in lt.blocked(p) {
            st.regs[d].insert(s.start.0, s.end.0, None);
        }
    }
    let mut bundle_of_temp: Vec<Option<u32>> = vec![None; nt];
    #[allow(clippy::needless_range_loop)] // `ti` is the temp id, not just an index
    for ti in 0..nt {
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
        bundle_of_temp[ti] = Some(st.bundles.len() as u32);
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
    let mut queue: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::new();
    for bid in 0..st.bundles.len() as u32 {
        if st.bundles[bid as usize].dead {
            continue;
        }
        let (prio, weight) = st.measure(&st.bundles[bid as usize].ranges);
        let b = &mut st.bundles[bid as usize];
        b.prio = prio;
        b.weight = weight;
        queue.push((prio, Reverse(bid)));
    }
    // Eviction is bounded so that mutual-eviction chains cannot cycle
    // forever; once the budget is spent, bundles split or spill instead.
    let mut evict_budget: u64 = 8 * st.bundles.len() as u64 + 64;
    // The anchor register per temp: set when its first (highest-priority)
    // piece lands, read as a placement preference by every later piece.
    let mut temp_reg: Vec<Option<u32>> = vec![None; nt];

    while let Some((_, Reverse(bid))) = queue.pop() {
        let b = &st.bundles[bid as usize];
        if b.dead || b.spilled || b.assignment.is_some() {
            continue;
        }
        let class = b.class;
        let hint_d = b.hint.filter(|p| p.class == class).map(|p| st.dense(p));
        // Sibling affinity: pieces of an already-placed temp try its
        // register first, so a split lifetime reassembles into one register
        // wherever it fits and edge resolution has nothing to repair.
        let mut sibling: SmallVec<usize, 4> = SmallVec::new();
        for &r in &st.bundles[bid as usize].ranges {
            if let Some(d) = temp_reg[st.ranges[r as usize].temp.index()] {
                if !sibling.contains(&(d as usize)) {
                    sibling.push(d as usize);
                }
            }
        }
        // Hint, then siblings, then dense order.
        let order = hint_d.into_iter().chain(sibling.iter().copied()).chain(st.class_range(class));
        let mut placed = false;
        for d in order {
            if st.fits(&st.bundles[bid as usize].ranges, d) {
                if sink.enabled() {
                    sink.event(&TraceEvent::PackAssign { temp: st.repr(bid), reg: st.phys(d) });
                }
                st.assign(bid, d);
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

        // Eviction: find the register whose conflicting bundles have the
        // smallest maximum weight; evict them all if our weight *clearly*
        // dominates (2x). Mere strict inequality lets similar-weight
        // bundles displace each other in cascades — each round re-places
        // every loser somewhere worse, and the measured inserted spill code
        // ends up far above just splitting around the conflict.
        let our_weight = st.bundles[bid as usize].weight;
        let mut best: Option<(f64, usize, SmallVec<u32, 8>)> = None;
        for d in st.class_range(class) {
            let Some(cs) = st.conflicts(&st.bundles[bid as usize].ranges, d) else { continue };
            let maxw =
                cs.iter().map(|&c| st.bundles[c as usize].weight).fold(0.0f64, |a, w| a.max(w));
            if best.as_ref().is_none_or(|(bw, _, _)| maxw < *bw) {
                best = Some((maxw, d, cs));
            }
        }
        if let Some((maxw, d, cs)) = best {
            if st.bundles[bid as usize].gen == 0 && maxw * 2.0 < our_weight && evict_budget > 0 {
                let at = st.ranges[st.bundles[bid as usize].ranges[0] as usize].seg.start;
                for &c in cs.iter() {
                    st.regs[d].remove_owner(Temp(c));
                    st.bundles[c as usize].assignment = None;
                    if sink.enabled() {
                        sink.event(&TraceEvent::EvictBundle {
                            temp: st.repr(c),
                            reg: st.phys(d),
                            at,
                        });
                    }
                    stats.evictions += 1;
                    evict_budget = evict_budget.saturating_sub(1);
                    queue.push((st.bundles[c as usize].prio, Reverse(c)));
                }
                if sink.enabled() {
                    sink.event(&TraceEvent::PackAssign { temp: st.repr(bid), reg: st.phys(d) });
                }
                st.assign(bid, d);
                for &r in &st.bundles[bid as usize].ranges {
                    let anchor = &mut temp_reg[st.ranges[r as usize].temp.index()];
                    if anchor.is_none() {
                        *anchor = Some(d as u32);
                    }
                }
                continue;
            }
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

    // Location table: pieces per temp, ascending by start. Location queries
    // go through the owning bundle so later demotions stay visible.
    let mut temp_pieces: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); nt];
    for bid in 0..st.bundles.len() {
        if st.bundles[bid].dead {
            continue;
        }
        for &r in &st.bundles[bid].ranges {
            let lr = st.ranges[r as usize];
            temp_pieces[lr.temp.index()].push((lr.seg.start.0, lr.seg.end.0, bid as u32));
        }
    }
    for v in &mut temp_pieces {
        v.sort_by_key(|e| e.0);
    }

    // Assignment smoothing. Each seam — adjacent pieces of one temporary
    // sitting in different registers — costs a connection or resolution
    // copy, and the priority queue places pieces in weight order, not in
    // program order, so seams are common. Greedily migrate a bundle to a
    // neighbour's register when that strictly increases its number of
    // matched seams and the register is free over all its ranges. Every
    // migration reduces the copy count, so the fixpoint is cheap; rounds
    // are capped for the pathological case of oscillating equal gains.
    let nbund = st.bundles.len();
    for _ in 0..4 {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nbund];
        for pieces in &temp_pieces {
            for w in pieces.windows(2) {
                let (a, b) = (w[0].2, w[1].2);
                if a != b {
                    adj[a as usize].push(b);
                    adj[b as usize].push(a);
                }
            }
        }
        let mut changed = false;
        for bid in 0..nbund as u32 {
            let b = &st.bundles[bid as usize];
            if b.dead || b.spilled {
                continue;
            }
            let Some(cur) = b.assignment else { continue };
            let class = b.class;
            let mut cands: SmallVec<PhysReg, 4> = SmallVec::new();
            for &n in &adj[bid as usize] {
                if let Some(r) = st.bundles[n as usize].assignment {
                    if r != cur && r.class == class && !cands.contains(&r) {
                        cands.push(r);
                    }
                }
            }
            for &r in cands.iter() {
                let (mut at_r, mut at_cur) = (0i32, 0i32);
                for &n in &adj[bid as usize] {
                    match st.bundles[n as usize].assignment {
                        Some(q) if q == r => at_r += 1,
                        Some(q) if q == cur => at_cur += 1,
                        _ => {}
                    }
                }
                if at_r <= at_cur {
                    continue;
                }
                let (d_old, d_new) = (st.dense(cur), st.dense(r));
                st.regs[d_old].remove_owner(Temp(bid));
                if st.fits(&st.bundles[bid as usize].ranges, d_new) {
                    st.assign(bid, d_new);
                    changed = true;
                    break;
                }
                st.assign(bid, d_old);
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 4: point feasibility, mirroring the two-pass comparator —
    // every instruction touching memory-resident values needs enough free
    // registers for its scratch loads/stores; demote victims until it does.
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let mut changed = false;
        for b in f.block_ids() {
            let first = lt.first_inst(b);
            for (k, ins) in f.block(b).insts.iter().enumerate() {
                let gi = first + k as u32;
                let span = point_span(gi);
                for class in RegClass::ALL {
                    let mut src_spilled: SmallVec<Temp, 8> = SmallVec::new();
                    ins.inst.for_each_use(|r| {
                        if let Reg::Temp(t) = r {
                            if f.temp_class(t) == class
                                && loc_at(&temp_pieces, &st.bundles, t, Point::read(gi)).is_none()
                                && !src_spilled.contains(&t)
                            {
                                src_spilled.push(t);
                            }
                        }
                    });
                    let mut need = src_spilled.len();
                    let mut dst_extra = false;
                    ins.inst.for_each_def(|r| {
                        if let Reg::Temp(t) = r {
                            if f.temp_class(t) == class
                                && loc_at(&temp_pieces, &st.bundles, t, Point::write(gi)).is_none()
                            {
                                dst_extra = src_spilled.is_empty();
                            }
                        }
                    });
                    if dst_extra {
                        need += 1;
                    }
                    if need == 0 {
                        continue;
                    }
                    loop {
                        let free = st
                            .class_range(class)
                            .filter(|&d| !st.regs[d].overlaps(span.start.0, span.end.0))
                            .count();
                        if free >= need {
                            break;
                        }
                        // Victim: the overlapping bundle with the greatest
                        // priority (longest total life — the cheapest per
                        // point to park in memory), lowest id on ties.
                        let mut victim: Option<(u64, u32, usize)> = None;
                        for d in st.class_range(class) {
                            for (_, _, owner) in
                                st.regs[d].overlapping_entries(span.start.0, span.end.0)
                            {
                                if let Some(t) = owner {
                                    let prio = st.bundles[t.0 as usize].prio;
                                    if victim
                                        .is_none_or(|(p, v, _)| prio > p || (prio == p && t.0 < v))
                                    {
                                        victim = Some((prio, t.0, d));
                                    }
                                }
                            }
                        }
                        let (_, v, d) = victim.unwrap_or_else(|| {
                            panic!(
                                "ion cannot satisfy point lifetimes at instruction {gi} \
                                 (class {class})"
                            )
                        });
                        if sink.enabled() {
                            sink.event(&TraceEvent::PackUnassign { temp: st.repr(v), gi });
                        }
                        st.regs[d].remove_owner(Temp(v));
                        st.bundles[v as usize].assignment = None;
                        st.bundles[v as usize].spilled = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    stats.iterations = rounds;
    stats.spilled_temps = (0..nt)
        .filter(|&ti| {
            temp_pieces[ti].iter().any(|&(_, _, bid)| st.bundles[bid as usize].assignment.is_none())
        })
        .count();

    // Phase 5: connection copies between adjacent pieces cut mid-block by a
    // use-gap split. Block-top cuts are repaired by edge resolution instead.
    // All movement at one cut is a parallel copy (two bundles can swap
    // registers at the same point), so it runs through the shared
    // sequencer, with tags remapped to the eviction family — these are
    // in-block spill decisions, not CFG repairs.
    let mut connections: Vec<(u32, EdgeOp)> = Vec::new();
    for (ti, pieces) in temp_pieces.iter().enumerate() {
        let t = Temp(ti as u32);
        for w in pieces.windows(2) {
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

    // Phase 6: rewrite. Every temp operand becomes its piece's register, or
    // a scratch register free over the instruction's span when the piece
    // lives in memory.
    fn ensure_slot(f: &mut Function, t: Temp, stats: &mut AllocStats) {
        if f.spill_slots[t.index()].is_none() {
            stats.spilled_temps += 1;
        }
        f.slot_for(t);
    }
    let mut pre: Vec<Ins> = Vec::new();
    let mut post: Vec<Ins> = Vec::new();
    let mut seq: Vec<(Inst, SpillTag)> = Vec::new();
    let mut conn_ops: Vec<EdgeOp> = Vec::new();
    let mut free: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut scratch_of: SmallVec<(Temp, PhysReg), 8> = SmallVec::new();
    let mut src_temps: SmallVec<Temp, 8> = SmallVec::new();
    let mut conn_i = 0usize;
    for b in f.block_ids().collect::<Vec<_>>() {
        let first = lt.first_inst(b);
        if sink.enabled() {
            sink.event(&TraceEvent::BlockTop { block: b, first_gi: first });
        }
        let insts = std::mem::take(&mut f.block_mut(b).insts);
        let mut out: Vec<Ins> = Vec::with_capacity(insts.len());
        for (k, mut ins) in insts.into_iter().enumerate() {
            let gi = first + k as u32;
            let span = point_span(gi);
            // Connection copies first: their sources die at the cut, before
            // any scratch load below could clobber them.
            conn_ops.clear();
            while conn_i < connections.len() && connections[conn_i].0 == gi {
                conn_ops.push(connections[conn_i].1);
                conn_i += 1;
            }
            if !conn_ops.is_empty() {
                seq.clear();
                let mut cycle_spilled: SmallVec<Temp, 8> = SmallVec::new();
                sequentialize_into(&conn_ops, &mut seq, |t| cycle_spilled.push(t));
                for op in &conn_ops {
                    if let EdgeOp::Store { temp, .. } | EdgeOp::Load { temp, .. } = *op {
                        ensure_slot(f, temp, stats);
                    }
                }
                for &t in cycle_spilled.iter() {
                    ensure_slot(f, t, stats);
                }
                for (inst, tag) in seq.drain(..) {
                    let tag = match tag {
                        SpillTag::ResolveStore => SpillTag::EvictStore,
                        SpillTag::ResolveLoad => SpillTag::EvictLoad,
                        SpillTag::ResolveMove => SpillTag::EvictMove,
                        other => other,
                    };
                    stats.record_insert(tag);
                    pre.push(Ins::tagged(inst, tag));
                }
            }
            for class in RegClass::ALL {
                free[class.index()].clear();
                free[class.index()].extend(
                    st.class_range(class)
                        .filter(|&d| !st.regs[d].overlaps(span.start.0, span.end.0)),
                );
            }
            scratch_of.clear();
            src_temps.clear();
            ins.inst.for_each_use(|r| {
                if let Reg::Temp(t) = r {
                    if !src_temps.contains(&t) {
                        src_temps.push(t);
                    }
                }
            });
            for &t in src_temps.iter() {
                if loc_at(&temp_pieces, &st.bundles, t, Point::read(gi)).is_none() {
                    let class = f.temp_class(t);
                    let d = free[class.index()].pop().unwrap_or_else(|| {
                        panic!("no scratch register at instruction {gi} for {t}")
                    });
                    let r = st.phys(d);
                    ensure_slot(f, t, stats);
                    pre.push(Ins::tagged(
                        Inst::SpillLoad { dst: Reg::Phys(r), temp: t },
                        SpillTag::EvictLoad,
                    ));
                    stats.record_insert(SpillTag::EvictLoad);
                    scratch_of.push((t, r));
                }
            }
            ins.inst.for_each_use_mut(|r| {
                if let Reg::Temp(t) = *r {
                    *r = match loc_at(&temp_pieces, &st.bundles, t, Point::read(gi)) {
                        Some(p) => Reg::Phys(p),
                        None => {
                            let (_, p) =
                                scratch_of.iter().find(|(u, _)| *u == t).expect("scratch mapped");
                            Reg::Phys(*p)
                        }
                    };
                }
            });
            let mut def_temp = None;
            ins.inst.for_each_def(|r| {
                if let Reg::Temp(t) = r {
                    def_temp = Some(t);
                }
            });
            if let Some(t) = def_temp {
                let r = match loc_at(&temp_pieces, &st.bundles, t, Point::write(gi)) {
                    Some(p) => p,
                    None => {
                        let class = f.temp_class(t);
                        let r = scratch_of
                            .iter()
                            .find(|(_, p)| p.class == class)
                            .map(|(_, p)| *p)
                            .unwrap_or_else(|| {
                                let d = free[class.index()].pop().unwrap_or_else(|| {
                                    panic!("no scratch register at instruction {gi} for def {t}")
                                });
                                st.phys(d)
                            });
                        ensure_slot(f, t, stats);
                        post.push(Ins::tagged(
                            Inst::SpillStore { src: Reg::Phys(r), temp: t },
                            SpillTag::EvictStore,
                        ));
                        stats.record_insert(SpillTag::EvictStore);
                        r
                    }
                };
                ins.inst.for_each_def_mut(|d| {
                    if matches!(*d, Reg::Temp(_)) {
                        *d = Reg::Phys(r);
                    }
                });
            }
            let is_terminator = ins.inst.is_terminator();
            out.append(&mut pre);
            if is_terminator {
                debug_assert!(post.is_empty(), "terminators define no temporaries");
                out.push(ins);
            } else {
                out.push(ins);
                out.append(&mut post);
            }
        }
        f.block_mut(b).insts = out;
    }

    // Phase 7: edge resolution. The split bundles make locations per-piece,
    // so a temp's register leaving a predecessor can differ from the one
    // its successor expects — the same §2.4 repair as the linear scan, with
    // the parallel-move sequencer and the placement triad, but against
    // piece locations. Ion keeps no cross-edge consistency facts, so a
    // register-to-memory transition always stores.
    let mut edges: Vec<(BlockId, BlockId)> = Vec::new();
    let mut pred_count = vec![0u32; nb];
    for bi in 0..nb {
        for s in f.succs(BlockId(bi as u32)) {
            edges.push((BlockId(bi as u32), s));
            pred_count[s.index()] += 1;
        }
    }
    let mut ops: Vec<EdgeOp> = Vec::new();
    let mut cycle_spilled: Vec<Temp> = Vec::new();
    for (p, s) in edges {
        ops.clear();
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
        if ops.is_empty() {
            continue;
        }
        cycle_spilled.clear();
        seq.clear();
        sequentialize_into(&ops, &mut seq, |t| cycle_spilled.push(t));
        if sink.enabled() {
            for &t in &cycle_spilled {
                let op = ResolveOp::CycleBreak { temp: t };
                sink.event(&TraceEvent::EdgeOp { pred: p, succ: s, op });
            }
        }
        for t in ops.iter().filter_map(|o| match o {
            EdgeOp::Store { temp, .. } | EdgeOp::Load { temp, .. } => Some(*temp),
            EdgeOp::Move { .. } => None,
        }) {
            ensure_slot(f, t, stats);
        }
        for &t in &cycle_spilled {
            ensure_slot(f, t, stats);
        }
        for (_, tag) in &seq {
            stats.record_insert(*tag);
        }
        let insns = seq.drain(..).map(|(inst, tag)| Ins::tagged(inst, tag));
        if pred_count[s.index()] == 1 {
            f.block_mut(s).insts.splice(0..0, insns);
        } else if f.succs(p).len() == 1 && terminator_is_placement_safe(f, p) {
            let blk = f.block_mut(p);
            let at = blk.insts.len() - 1;
            blk.insts.splice(at..at, insns);
        } else {
            let nb2 = split_edge(f, p, s);
            f.block_mut(nb2).insts.splice(0..0, insns);
        }
    }

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
    let mut avail_out: Vec<Option<Vec<(Temp, PhysReg, bool)>>> = vec![None; f.blocks.len()];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); f.blocks.len()];
    for bi in 0..f.blocks.len() {
        for s in f.succs(BlockId(bi as u32)) {
            preds[s.index()].push(bi as u32);
        }
    }
    for bi in 0..f.blocks.len() {
        avail.clear();
        // A single-predecessor block inherits the predecessor's facts when
        // that block has already been scanned (its code is final).
        if let [p] = preds[bi][..] {
            if (p as usize) < bi {
                if let Some(out) = avail_out[p as usize].as_deref() {
                    avail.extend_from_slice(out);
                }
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
        avail_out[bi] = Some(avail.clone());
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

/// True if the block's terminator reads no register, so code may be placed
/// immediately before it.
fn terminator_is_placement_safe(f: &Function, b: BlockId) -> bool {
    let mut uses = 0;
    f.block(b).terminator().for_each_use(|_| uses += 1);
    uses == 0
}

/// The pieces of one split, in ascending start order.
struct SplitPieces {
    kind: SplitKind,
    groups: Vec<Vec<u32>>,
}

/// Splits bundle `bid`: at block boundaries when it spans several blocks,
/// at the widest gap between its references inside a single block. Returns
/// `None` when no cut makes progress (the caller spills).
fn split(st: &mut State<'_>, bid: u32) -> Option<SplitPieces> {
    // Cut every range at each block top strictly inside it, then group the
    // subranges by block.
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
    let multi_block = parts.windows(2).any(|w| w[0].0 != w[1].0);
    if multi_block {
        // Bisect at the median touched block rather than shattering into
        // per-block shards: every extra piece is a potential edge-resolution
        // move, so fragmentation should grow only where conflicts persist
        // (the halves re-enter the queue and bisect again on failure).
        let mut blocks: Vec<usize> = parts.iter().map(|&(blk, _, _)| blk).collect();
        blocks.dedup();
        let mid = blocks[blocks.len() / 2];
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
        for (blk, temp, seg) in parts {
            let r = push_range(st, temp, seg);
            groups[usize::from(blk >= mid)].push(r);
        }
        return Some(SplitPieces { kind: SplitKind::BlockBoundary, groups });
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
    let c = Point::before(cut_gi).0;
    let mut before: Vec<u32> = Vec::new();
    let mut after: Vec<u32> = Vec::new();
    for r in st.bundles[bid as usize].ranges.clone() {
        let lr = st.ranges[r as usize];
        if lr.seg.end.0 < c {
            let nr = push_range(st, lr.temp, lr.seg);
            before.push(nr);
        } else if lr.seg.start.0 >= c {
            let nr = push_range(st, lr.temp, lr.seg);
            after.push(nr);
        } else {
            let b1 = push_range(st, lr.temp, Segment::new(lr.seg.start, Point(c - 1)));
            before.push(b1);
            let a1 = push_range(st, lr.temp, Segment::new(Point(c), lr.seg.end));
            after.push(a1);
        }
    }
    if before.is_empty() || after.is_empty() {
        return None;
    }
    Some(SplitPieces { kind: SplitKind::UseGap, groups: vec![before, after] })
}

fn push_range(st: &mut State<'_>, temp: Temp, seg: Segment) -> u32 {
    let r = st.ranges.len() as u32;
    st.ranges.push(LiveRange { temp, seg });
    r
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
