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
//!    queue; a budget bounds the cascading), any bundle may **split** into
//!    smaller bundles at block boundaries or at the widest gap between its
//!    references, or — as the second-chance fallback that guarantees
//!    termination — spill to memory for good;
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
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use lsra_analysis::{
    BitSet, Cfg, Csr, Dominators, Lifetimes, Liveness, LoopInfo, Point, Segment, SmallVec,
};
use lsra_core::point::{self, point_span, PointAlloc, PointScratch};
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

/// Register occupancy, built for the two questions placement asks.
///
/// "Is register `d` free over `[s, e]`?" is answered by one row of point
/// bits per dense register, covering blocked segments and placed ranges
/// alike: a probe masks the first and last words of the span and tests
/// the words between, and landing or lifting a range sets or clears the
/// same words. "Who is there?" is asked only by the eviction search and
/// the feasibility victim pick. A B-tree per register answers it for
/// placed ranges; a blocked (precolored / call-clobber) segment is found
/// in the register's blocked list from `Lifetimes`, which never changes,
/// so set-up inserts nothing into the trees. Placed ranges enter and
/// leave through [`RegFile::occupy`] and [`RegFile::vacate`] only.
#[derive(Debug)]
struct RegFile<'a> {
    /// Words per register row.
    words: usize,
    /// Bit `p % 64` of `busy[d * words + p / 64]` is set while point `p` of
    /// register `d` is occupied.
    busy: Vec<u64>,
    /// Per register: placed range start → `(end, bundle)`.
    owners: Vec<BTreeMap<u32, (u32, u32)>>,
    /// Per register: the blocked segments, ascending and disjoint.
    blocked: Vec<&'a [Segment]>,
}

/// The word indices of `[start, end]` and the masks of its first and last
/// word (one word: `lo & hi`).
#[inline]
fn word_span(start: u32, end: u32) -> (usize, usize, u64, u64) {
    debug_assert!(start <= end);
    ((start / 64) as usize, (end / 64) as usize, !0u64 << (start % 64), !0u64 >> (63 - end % 64))
}

impl<'a> RegFile<'a> {
    /// A file for a function of `insts` instructions (every point is below
    /// `4 * insts + 4`) whose register `d` is blocked over `blocked[d]`.
    fn new(blocked: Vec<&'a [Segment]>, insts: u32) -> Self {
        let words = (4 * insts as usize + 4).div_ceil(64);
        let nregs = blocked.len();
        let owners = vec![BTreeMap::new(); nregs];
        let mut regs = RegFile { words, busy: vec![0; nregs * words], owners, blocked };
        for d in 0..nregs {
            let segs: &'a [Segment] = regs.blocked[d];
            for &s in segs {
                regs.claim(d, s);
            }
        }
        regs
    }

    /// The first occupied point of `[start, end]` in register `d`.
    #[inline]
    fn first_busy(&self, d: usize, start: u32, end: u32) -> Option<u32> {
        let row = &self.busy[d * self.words..(d + 1) * self.words];
        let (ws, we, lo, hi) = word_span(start, end);
        (ws..=we).find_map(|w| {
            let mut m = row[w];
            if w == ws {
                m &= lo;
            }
            if w == we {
                m &= hi;
            }
            (m != 0).then(|| w as u32 * 64 + m.trailing_zeros())
        })
    }

    /// True if any point of `[start, end]` is occupied in register `d`.
    #[inline]
    fn is_busy(&self, d: usize, start: u32, end: u32) -> bool {
        self.first_busy(d, start, end).is_some()
    }

    /// True if every segment avoids everything in register `d`.
    #[inline]
    fn fits(&self, d: usize, segs: impl IntoIterator<Item = Segment>) -> bool {
        segs.into_iter().all(|s| !self.is_busy(d, s.start.0, s.end.0))
    }

    /// Sets (`on`) or clears the bits of `[start, end]` in register `d`.
    fn mark(&mut self, d: usize, start: u32, end: u32, on: bool) {
        let row = &mut self.busy[d * self.words..(d + 1) * self.words];
        let (ws, we, lo, hi) = word_span(start, end);
        for (w, word) in (ws..).zip(&mut row[ws..=we]) {
            let mut m = !0u64;
            if w == ws {
                m &= lo;
            }
            if w == we {
                m &= hi;
            }
            if on {
                *word |= m;
            } else {
                *word &= !m;
            }
        }
    }

    /// Sets the bits of `s` in register `d`. The segment must be free
    /// (debug-asserted): every query relies on disjoint intervals.
    fn claim(&mut self, d: usize, s: Segment) {
        let (start, end) = (s.start.0, s.end.0);
        debug_assert!(
            !self.is_busy(d, start, end),
            "interval [{start}, {end}] overlaps an occupant of register {d}"
        );
        self.mark(d, start, end, true);
    }

    /// Parks bundle `bid` in register `d` over every segment.
    fn occupy(&mut self, d: usize, segs: impl IntoIterator<Item = Segment>, bid: u32) {
        for s in segs {
            self.claim(d, s);
            self.owners[d].insert(s.start.0, (s.end.0, bid));
        }
    }

    /// Lifts every segment, each exactly as [`RegFile::occupy`] parked it,
    /// out of register `d`.
    fn vacate(&mut self, d: usize, segs: impl IntoIterator<Item = Segment>) {
        for s in segs {
            let (start, end) = (s.start.0, s.end.0);
            let gone = self.owners[d].remove(&start);
            debug_assert_eq!(gone.map(|(e, _)| e), Some(end), "vacating an interval never parked");
            self.mark(d, start, end, false);
        }
    }

    /// Every interval of register `d` overlapping `[start, end]`, ascending
    /// by start, with its bundle (`None` for a blocked segment). The bits
    /// find each next occupied point; the interval holding it is the last
    /// placed range or, failing that, the last blocked segment starting at
    /// or before it. A span with no occupant never touches either.
    fn occupants(
        &self,
        d: usize,
        start: u32,
        end: u32,
    ) -> impl Iterator<Item = (u32, u32, Option<u32>)> + '_ {
        let mut from = start;
        std::iter::from_fn(move || {
            if from > end {
                return None;
            }
            let p = self.first_busy(d, from, end)?;
            let (s, e, owner) = match self.owners[d].range(..=p).next_back() {
                Some((&s, &(e, bid))) if e >= p => (s, e, Some(bid)),
                _ => {
                    let blocked = self.blocked[d];
                    let b = blocked[blocked.partition_point(|b| b.start.0 <= p).checked_sub(1)?];
                    (b.start.0, b.end.0, None)
                }
            };
            debug_assert!(e >= p, "occupied point {p} of register {d} has no interval");
            from = e.max(p) + 1;
            Some((s, e, owner))
        })
    }

    /// The distinct bundles parked in register `d` that overlap any of
    /// `segs`, and the greatest of their weights (0 for none). `None` when a
    /// blocked segment overlaps (the register cannot be evicted free), or
    /// as soon as a conflicting bundle weighs `bound` or more (the register
    /// cannot win the caller's search, so the rest of its scan would be
    /// thrown away).
    fn conflicts(
        &self,
        d: usize,
        segs: impl IntoIterator<Item = Segment>,
        weight: impl Fn(u32) -> f64,
        bound: f64,
    ) -> Option<(f64, SmallVec<u32, 8>)> {
        let mut out: SmallVec<u32, 8> = SmallVec::new();
        let mut maxw = 0.0f64;
        for s in segs {
            for (_, _, owner) in self.occupants(d, s.start.0, s.end.0) {
                let c = owner?;
                if !out.contains(&c) {
                    let w = weight(c);
                    if w >= bound {
                        return None;
                    }
                    maxw = maxw.max(w);
                    out.push(c);
                }
            }
        }
        Some((maxw, out))
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

impl State<'_> {
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

    /// True if every range of bundle `bid` avoids everything parked in
    /// register `d` (blocked segments included).
    fn fits(&self, bid: u32, d: usize) -> bool {
        let segs = self.bundles[bid as usize].ranges.iter().map(|&r| self.ranges[r as usize].seg);
        self.regs.fits(d, segs)
    }

    /// Lands bundle `bid` in register `d`, which must be free over its
    /// ranges.
    fn place(&mut self, bid: u32, d: usize) {
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

/// Ion's side of the shared point-lifetime pass ([`lsra_core::point`]):
/// piece locations through their bundles' current assignments, freedom from
/// the register file's bits, its own victim rule, and phase 5's connection
/// copies ahead of each instruction's scratch loads.
struct Points<'s, 'a> {
    st: &'s mut State<'a>,
    temp_pieces: &'s [Vec<(u32, u32, u32)>],
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

    fn is_free(&mut self, d: usize, gi: u32) -> bool {
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
    let nregs = spec.total_regs();
    let nb = f.num_blocks();

    // Phase 1: one bundle per live temporary.
    let mut st = State {
        lt: &lt,
        spec,
        ranges: Vec::new(),
        bundles: Vec::new(),
        regs: RegFile::new((0..nregs).map(|d| lt.blocked(d)).collect(), lt.num_insts()),
        block_tops: (0..nb).map(|b| lt.top(BlockId(b as u32)).0).collect(),
    };
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
        let hint_d = b.hint.filter(|p| p.class == class).map(|p| spec.reg_index(p));
        // Sibling affinity: pieces of an already-placed temp try its
        // register first, so a split lifetime reassembles into one register
        // wherever it fits and edge resolution has nothing to repair.
        let mut sibling: SmallVec<usize, 4> = SmallVec::new();
        for &r in &st.bundles[bid as usize].ranges {
            if let Some(d) = temp_reg[st.ranges[r as usize].temp.index()] {
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
    // The seams do not move between rounds, so their adjacency is built
    // once: a counting sort, each row in the order its seams are met.
    let nbund = st.bundles.len();
    let seams = || {
        temp_pieces
            .iter()
            .flat_map(|pieces| pieces.windows(2).map(|w| (w[0].2, w[1].2)))
            .filter(|(a, b)| a != b)
    };
    let mut offsets = vec![0u32; nbund + 1];
    for (a, b) in seams() {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for i in 0..nbund {
        offsets[i + 1] += offsets[i];
    }
    let mut fill = offsets[..nbund].to_vec();
    let mut data = vec![0u32; offsets[nbund] as usize];
    for (a, b) in seams() {
        data[fill[a as usize] as usize] = b;
        fill[a as usize] += 1;
        data[fill[b as usize] as usize] = a;
        fill[b as usize] += 1;
    }
    let adj = Csr::from_parts(offsets, data);
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
    let mut avail_out: Vec<Option<Vec<(Temp, PhysReg, bool)>>> = vec![None; f.blocks.len()];
    let cfg = Cfg::compute(f); // after phase 7's splits
    for bi in 0..f.blocks.len() {
        avail.clear();
        // A single-predecessor block inherits the predecessor's facts when
        // that block has already been scanned (its code is final; only a
        // scanned block has an `avail_out`).
        if let [p] = *cfg.preds(BlockId(bi as u32)) {
            if let Some(out) = avail_out[p.index()].as_deref() {
                avail.extend_from_slice(out);
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

    fn seg(start: u32, end: u32) -> Segment {
        Segment::new(Point(start), Point(end))
    }

    /// Every interval of register `d` overlapping `[start, end]`, ascending
    /// by start, by a walk over the whole owner tree and blocked list.
    fn brute_occupants(
        regs: &RegFile,
        d: usize,
        start: u32,
        end: u32,
    ) -> Vec<(u32, u32, Option<u32>)> {
        let placed = regs.owners[d].iter().map(|(&s, &(e, bid))| (s, e, Some(bid)));
        let blocked = regs.blocked[d].iter().map(|b| (b.start.0, b.end.0, None));
        let mut all: Vec<_> =
            placed.chain(blocked).filter(|&(s, e, _)| s <= end && e >= start).collect();
        all.sort_unstable_by_key(|&(s, _, _)| s);
        all
    }

    /// A random span of `0..npoints` that often starts or ends on a word
    /// edge (`% 64` of 0 or 63), or covers 1, 63, 64, 65 or 128 points.
    fn edgy_span(rng: &mut lsra_workloads::Lcg, npoints: u32) -> (u32, u32) {
        let words = u64::from(npoints / 64);
        let start = match rng.below(4) {
            0 => 64 * rng.below(words) as u32,
            1 => 64 * rng.below(words) as u32 + 63,
            _ => rng.below(u64::from(npoints)) as u32,
        };
        let len = match rng.below(9) {
            0 => 1,
            1 => 63,
            2 => 64,
            3 => 65,
            4 => 128,
            5 => 64 - start % 64,
            6 => 65 - start % 64,
            7 => 128 - start % 64,
            _ => 1 + rng.below(40) as u32,
        };
        (start, (start + len - 1).min(npoints - 1))
    }

    /// Up to `n` random edgy spans as ascending disjoint segments.
    fn edgy_segments(rng: &mut lsra_workloads::Lcg, npoints: u32, n: u64) -> Vec<Segment> {
        let mut spans: Vec<(u32, u32)> = (0..n).map(|_| edgy_span(rng, npoints)).collect();
        spans.sort_unstable();
        let mut segs: Vec<Segment> = Vec::new();
        for (s, e) in spans {
            if segs.last().is_none_or(|l| l.end.0 < s) {
                segs.push(seg(s, e));
            }
        }
        segs
    }

    /// Random `occupy`/`vacate` sequences over three partly blocked
    /// registers, against the owner tree and blocked list walked in full:
    /// `is_busy`, `fits` and `occupants` agree with them, and every
    /// register's set bits are exactly its intervals' points.
    #[test]
    fn reg_file_matches_brute_force() {
        let mut rng = lsra_workloads::Lcg::new(1998);
        let (nregs, insts) = (3usize, 100u32);
        let npoints = 4 * insts + 4;
        for case in 0..200 {
            let blocked: Vec<Vec<Segment>> = (0..nregs)
                .map(|_| {
                    let n = rng.below(4);
                    edgy_segments(&mut rng, npoints, n)
                })
                .collect();
            let mut regs = RegFile::new(blocked.iter().map(Vec::as_slice).collect(), insts);
            // The model: (register, segments) of every parked bundle.
            let mut parked: Vec<(usize, Vec<Segment>)> = Vec::new();
            for step in 0..80 {
                if !parked.is_empty() && rng.below(3) == 0 {
                    let (d, segs) = parked.swap_remove(rng.below(parked.len() as u64) as usize);
                    regs.vacate(d, segs.iter().copied());
                } else {
                    let d = rng.below(nregs as u64) as usize;
                    let n = 1 + rng.below(3);
                    let segs = edgy_segments(&mut rng, npoints, n);
                    let free = segs
                        .iter()
                        .all(|s| brute_occupants(&regs, d, s.start.0, s.end.0).is_empty());
                    assert_eq!(regs.fits(d, segs.iter().copied()), free, "case {case} step {step}");
                    if free {
                        regs.occupy(d, segs.iter().copied(), step);
                        parked.push((d, segs));
                    }
                }
                for d in 0..nregs {
                    let all = brute_occupants(&regs, d, 0, npoints - 1);
                    let points: u32 = all.iter().map(|&(s, e, _)| e - s + 1).sum();
                    let row = &regs.busy[d * regs.words..(d + 1) * regs.words];
                    let bits: u32 = row.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(bits, points, "case {case} step {step}: stale bits in register {d}");
                    for _ in 0..8 {
                        let (s, e) = edgy_span(&mut rng, npoints);
                        let want = brute_occupants(&regs, d, s, e);
                        assert_eq!(
                            regs.is_busy(d, s, e),
                            !want.is_empty(),
                            "case {case} [{s}, {e}]"
                        );
                        let got: Vec<_> = regs.occupants(d, s, e).collect();
                        assert_eq!(got, want, "case {case} occupants [{s}, {e}]");
                    }
                }
            }
        }
    }

    /// The bounded conflict scan against a brute-force walk over every
    /// interval: random disjoint occupancy (owners bundles 0..6, or
    /// blocked), random bundle weights with ties, random query segments.
    #[test]
    fn bounded_conflict_scan_matches_brute_force() {
        let mut rng = lsra_workloads::Lcg::new(1998);
        for case in 0..2000 {
            let span = 10 + rng.below(120) as u32;
            let blocked_odds = 1 + rng.below(12);
            let (mut blocked, mut placed) = (Vec::new(), Vec::new());
            let mut at = rng.below(4) as u32;
            while at < span {
                let end = at + rng.below(6) as u32;
                match (rng.below(blocked_odds) != 0).then(|| rng.below(6) as u32) {
                    Some(bid) => placed.push((seg(at, end), bid)),
                    None => blocked.push(seg(at, end)),
                }
                at = end + 1 + rng.below(5) as u32;
            }
            let mut regs = RegFile::new(vec![&blocked], 64);
            for &(s, bid) in &placed {
                regs.occupy(0, [s], bid);
            }
            let weights: Vec<f64> = (0..6).map(|_| rng.below(8) as f64 * 0.5).collect();
            let weight = |c: u32| weights[c as usize];
            let mut segs: Vec<Segment> = Vec::new();
            let mut at = rng.below(8) as u32;
            for _ in 0..1 + rng.below(4) {
                let end = at + rng.below(12) as u32;
                segs.push(seg(at, end));
                at = end + 1 + rng.below(10) as u32;
            }

            // Brute force: every parked interval, in start order, per segment.
            let (mut want, mut blocked) = (Vec::new(), false);
            for s in &segs {
                for (_, _, owner) in brute_occupants(&regs, 0, s.start.0, s.end.0) {
                    match owner {
                        None => blocked = true,
                        Some(c) if !want.contains(&c) => want.push(c),
                        Some(_) => {}
                    }
                }
            }
            let maxw = want.iter().map(|&c| weight(c)).fold(0.0f64, f64::max);

            let bounds = [f64::INFINITY, maxw, maxw + 0.25, rng.below(9) as f64 * 0.5];
            for bound in bounds {
                let got = regs.conflicts(0, segs.iter().copied(), weight, bound);
                if blocked {
                    assert!(got.is_none(), "case {case}: blocked segment missed");
                } else if !want.is_empty() && maxw >= bound {
                    assert!(got.is_none(), "case {case}: max {maxw} reaches bound {bound}");
                } else {
                    let (w, cs) = got.unwrap_or_else(|| panic!("case {case}: bound {bound}"));
                    assert_eq!(w, maxw, "case {case}: bound {bound}");
                    assert_eq!(cs.as_slice(), &want[..], "case {case}: bound {bound}");
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlaps an occupant")]
    fn reg_file_occupy_rejects_overlap() {
        let blocked = [seg(10, 20)];
        let mut regs = RegFile::new(vec![&blocked], 16);
        regs.occupy(0, [seg(15, 30)], 1);
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
