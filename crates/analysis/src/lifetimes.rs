//! Lifetimes and lifetime holes (§2.1 of the paper), computed in a single
//! reverse pass over the linear order of the code.
//!
//! # The point scale
//!
//! Instructions are numbered globally in linear (layout) order. Instruction
//! `i` reads its sources at point `4i + 4` and writes its destination at
//! `4i + 6`. Block boundaries get their own points: the top of a block whose
//! first instruction is `i0` is `4*i0 + 3`, and its bottom is `4*(i1+1) + 3`
//! where `i1` is its last instruction — so the bottom of a block coincides
//! with the top of the next block in linear order, which is exactly how the
//! paper's Figure 1 lets holes open and close at block boundaries.
//!
//! A temporary's *lifetime* is the span from the first point where it is
//! live (in linear order) to the last; its live *segments* are the
//! sub-intervals where it actually carries a useful value; the gaps between
//! segments are its *lifetime holes*.
//!
//! Physical registers get the same treatment: a register is *blocked* while
//! a precolored value lives in it and across every call that clobbers it
//! (caller-saved registers, §2.5); the complement of the blocked segments
//! are the register's lifetime holes.

use lsra_ir::{BlockId, Function, Inst, MachineSpec, Reg, RegClass, Temp};

use crate::bitset::BitSet;
use crate::cfg::Cfg;
use crate::collections::Csr;
use crate::dominators::Dominators;
use crate::liveness::Liveness;
use crate::loops::{depth_weight, LoopInfo};

/// A point on the linear scale. Ordered; see the module docs for layout.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Point(pub u32);

impl Point {
    /// The read (source) slot of global instruction `i`.
    #[inline]
    pub const fn read(i: u32) -> Point {
        Point(4 * i + 4)
    }

    /// The write (destination) slot of global instruction `i`.
    #[inline]
    pub const fn write(i: u32) -> Point {
        Point(4 * i + 6)
    }

    /// The boundary point *before* global instruction `i`.
    #[inline]
    pub const fn before(i: u32) -> Point {
        Point(4 * i + 3)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let q = self.0 / 4;
        match self.0 % 4 {
            // Boundary before instruction q.
            3 => write!(f, "B{q}"),
            // Read slot of instruction q-1.
            0 => write!(f, "{}r", q - 1),
            // Write slot of instruction q-1.
            2 => write!(f, "{}w", q - 1),
            _ => write!(f, "p{}", self.0),
        }
    }
}

/// A closed interval `[start, end]` of points during which a value lives (or
/// a register is blocked).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// First point of the interval.
    pub start: Point,
    /// Last point of the interval (inclusive).
    pub end: Point,
}

impl Segment {
    /// Creates a segment; `start` must not exceed `end`.
    pub fn new(start: Point, end: Point) -> Segment {
        debug_assert!(start <= end, "segment start after end");
        Segment { start, end }
    }

    /// True if the segment contains `p`.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.start <= p && p <= self.end
    }

    /// True if the two segments share any point.
    #[inline]
    pub fn overlaps(&self, other: &Segment) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

/// One reference (use or definition) of a temporary, in 8 bytes.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RefPoint {
    /// Where the reference occurs.
    pub point: Point,
    /// True for definitions, false for uses. A reference that both reads and
    /// writes appears twice.
    pub is_def: bool,
    /// The loop depth of the enclosing block, saturated at `u8::MAX`.
    pub depth: u8,
}

impl RefPoint {
    /// The loop-depth weight of the enclosing block, the same
    /// [`LoopInfo::weight`] gives it — the paper's eviction heuristic
    /// weights the distance to the next reference by this (§2.3).
    #[inline]
    pub fn weight(self) -> f64 {
        depth_weight(u32::from(self.depth))
    }
}

/// Reusable buffers for [`Lifetimes::compute_in`]: the reverse-pass working
/// state plus the CSR backing arrays a recycled [`Lifetimes`] hands back
/// through [`Lifetimes::recycle`]. One per worker thread; dead state between
/// functions.
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    /// Reverse-chronological `(temp, segment)` events from the pass.
    seg_events: Vec<(u32, Segment)>,
    /// Per-temp segment event counts, then (in place) the counting-sort
    /// cursors.
    seg_cursor: Vec<u32>,
    /// Per-temp reference row cursors: each starts at its row's end and
    /// steps down as the reverse pass fills the row.
    ref_cursor: Vec<u32>,
    /// Recycled CSR backing arrays.
    seg_offsets: Vec<u32>,
    seg_data: Vec<Segment>,
    ref_offsets: Vec<u32>,
    ref_data: Vec<RefPoint>,
    /// End point of each temp's currently open segment.
    open_t: Vec<Option<Point>>,
    /// End point of each register's currently open blocked segment, plus
    /// the list of registers possibly open (so block boundaries don't scan
    /// the whole register file).
    open_r: Vec<Option<Point>>,
    open_r_list: Vec<u32>,
    /// The global temporaries with an open segment, kept exactly in sync
    /// with `open_t` so block boundaries are word-wise set differences
    /// instead of an O(temps) sweep.
    open_globals: BitSet,
}

/// Lifetimes, lifetime holes, reference lists, and register blocked
/// segments, for one function.
///
/// Per-temp segment and reference rows live in CSR containers — one flat
/// backing array each — rather than a `Vec` per temp.
#[derive(Clone, Debug)]
pub struct Lifetimes {
    segments: Csr<Segment>,
    refs: Csr<RefPoint>,
    block_first: Vec<u32>,
    block_last: Vec<u32>,
    reg_blocked: Vec<Vec<Segment>>,
    num_insts: u32,
}

impl Lifetimes {
    /// Computes lifetime information in one reverse pass over the linear
    /// order (plus the liveness analysis supplied by the caller).
    pub fn compute(f: &Function, live: &Liveness, loops: &LoopInfo, spec: &MachineSpec) -> Self {
        Lifetimes::compute_in(f, live, loops, spec, &mut AnalysisScratch::default())
    }

    /// Like [`Lifetimes::compute`], but drawing every working buffer and the
    /// result's CSR backing from `scratch`; pair with
    /// [`Lifetimes::recycle`] to reuse the backing across functions.
    pub fn compute_in(
        f: &Function,
        live: &Liveness,
        loops: &LoopInfo,
        spec: &MachineSpec,
        scratch: &mut AnalysisScratch,
    ) -> Self {
        let nt = f.num_temps();
        let nregs = spec.total_regs();

        // Global instruction numbering per block.
        let mut block_first = vec![0u32; f.num_blocks()];
        let mut block_last = vec![0u32; f.num_blocks()];
        let mut next = 0u32;
        for b in f.block_ids() {
            let n = f.block(b).insts.len() as u32;
            block_first[b.index()] = next;
            block_last[b.index()] = next + n - 1;
            next += n;
        }
        let num_insts = next;

        // Reference rows are laid out before the pass: every temporary
        // operand is counted, the counts are prefix-summed into row offsets,
        // and the reverse pass writes each reference straight into its row,
        // filling from the end so every row comes out ascending.
        let ref_cursor = &mut scratch.ref_cursor;
        ref_cursor.clear();
        ref_cursor.resize(nt, 0);
        for ins in f.blocks.iter().flat_map(|b| &b.insts) {
            let mut count = |r: Reg| {
                if let Reg::Temp(t) = r {
                    ref_cursor[t.index()] += 1;
                }
            };
            ins.inst.for_each_def(&mut count);
            ins.inst.for_each_use(count);
        }
        let mut ref_offsets = std::mem::take(&mut scratch.ref_offsets);
        ref_offsets.clear();
        ref_offsets.reserve(nt + 1);
        ref_offsets.push(0);
        let mut acc = 0u32;
        for c in ref_cursor.iter_mut() {
            acc += *c;
            *c = acc;
            ref_offsets.push(acc);
        }
        let mut ref_data = std::mem::take(&mut scratch.ref_data);
        ref_data.clear();
        ref_data.resize(acc as usize, RefPoint { point: Point(0), is_def: false, depth: 0 });

        // Reverse pass state, recycled from the scratch arena. Segment rows
        // are not built directly: the pass appends to a flat event list
        // (with per-temp counts), and a counting sort lays the rows out
        // afterwards.
        let mut reg_blocked: Vec<Vec<Segment>> = vec![Vec::new(); nregs];
        scratch.seg_events.clear();
        let seg_events = &mut scratch.seg_events;
        scratch.seg_cursor.clear();
        scratch.seg_cursor.resize(nt, 0);
        let seg_count = &mut scratch.seg_cursor;
        scratch.open_t.clear();
        scratch.open_t.resize(nt, None);
        let open_t = &mut scratch.open_t;
        scratch.open_r.clear();
        scratch.open_r.resize(nregs, None);
        let open_r = &mut scratch.open_r;
        scratch.open_r_list.clear();
        let open_r_list = &mut scratch.open_r_list;
        scratch.open_globals.reset(live.num_globals());
        let open_globals = &mut scratch.open_globals;

        for b in f.block_ids().rev() {
            let bi = b.index();
            let bottom = Point::before(block_last[bi] + 1);
            let depth = loops.depth(b).min(u32::from(u8::MAX)) as u8;

            // Align the open-temp set with this block's live-out: temps live
            // out of b continue (or open) here; temps that were open (live
            // into the linearly-following block) but are not live out of b
            // close at this block's bottom boundary. Only globals can be
            // open at a boundary (block-locals always close within their
            // block), so both transitions are bitset differences.
            let out = live.live_out(b);
            open_globals.for_each_difference(out, |g| {
                let t = live.temp_of(g).index();
                let end = open_t[t].take().expect("open global with no open segment");
                seg_count[t] += 1;
                seg_events.push((t as u32, Segment::new(bottom, end)));
            });
            out.for_each_difference(open_globals, |g| {
                open_t[live.temp_of(g).index()] = Some(bottom);
            });
            open_globals.copy_from(out);
            // Precolored registers must not be live across block boundaries
            // (an IR invariant; see `check_phys_block_local`): close any
            // still-open register segment at this boundary.
            for r in open_r_list.drain(..) {
                if let Some(end) = open_r[r as usize].take() {
                    reg_blocked[r as usize].push(Segment::new(bottom, end));
                }
            }

            for (k, ins) in f.block(b).insts.iter().enumerate().rev() {
                let gi = block_first[bi] + k as u32;
                let rp = Point::read(gi);
                let wp = Point::write(gi);
                // A call clobbers every caller-saved register over the span
                // of the instruction.
                if let Inst::Call { .. } = ins.inst {
                    for class in RegClass::ALL {
                        for p in spec.caller_saved(class) {
                            let i = spec.reg_index(p);
                            match open_r[i] {
                                Some(_) => {} // already blocked across this point
                                None => reg_blocked[i].push(Segment::new(rp, wp)),
                            }
                        }
                    }
                }
                // Definitions first (they come later on the point scale).
                ins.inst.for_each_def(|r| match r {
                    Reg::Temp(t) => {
                        let at = &mut ref_cursor[t.index()];
                        *at -= 1;
                        ref_data[*at as usize] = RefPoint { point: wp, is_def: true, depth };
                        seg_count[t.index()] += 1;
                        match open_t[t.index()].take() {
                            Some(end) => {
                                seg_events.push((t.0, Segment::new(wp, end)));
                                if let Some(g) = live.global_of(t) {
                                    open_globals.remove(g);
                                }
                            }
                            // Dead def: a point segment, nothing was open.
                            None => seg_events.push((t.0, Segment::new(wp, wp))),
                        }
                    }
                    Reg::Phys(p) => {
                        let i = spec.reg_index(p);
                        match open_r[i].take() {
                            Some(end) => reg_blocked[i].push(Segment::new(wp, end)),
                            None => reg_blocked[i].push(Segment::new(wp, wp)),
                        }
                    }
                });
                // Then uses.
                ins.inst.for_each_use(|r| match r {
                    Reg::Temp(t) => {
                        let at = &mut ref_cursor[t.index()];
                        *at -= 1;
                        ref_data[*at as usize] = RefPoint { point: rp, is_def: false, depth };
                        if open_t[t.index()].is_none() {
                            open_t[t.index()] = Some(rp);
                            if let Some(g) = live.global_of(t) {
                                open_globals.insert(g);
                            }
                        }
                    }
                    Reg::Phys(p) => {
                        let i = spec.reg_index(p);
                        if open_r[i].is_none() {
                            open_r[i] = Some(rp);
                            open_r_list.push(i as u32);
                        }
                    }
                });
            }
        }

        // Close anything still live at the top of the entry block
        // (upward-exposed temporaries; argument registers).
        let top = Point::before(0);
        for g in open_globals.iter() {
            let t = live.temp_of(g).index();
            if let Some(end) = open_t[t].take() {
                seg_count[t] += 1;
                seg_events.push((t as u32, Segment::new(top, end)));
            }
        }
        debug_assert!(open_t.iter().all(Option::is_none), "non-global temp open at entry");
        for r in open_r_list.drain(..) {
            if let Some(end) = open_r[r as usize].take() {
                reg_blocked[r as usize].push(Segment::new(top, end));
            }
        }

        // Every reference row is full: each cursor met its row's start.
        debug_assert!(ref_cursor.iter().zip(&ref_offsets).all(|(c, o)| c == o));
        let refs = Csr::from_parts(ref_offsets, ref_data);
        // Counting sort: prefix-sum the per-temp counts into row offsets,
        // then back-fill the flat rows by walking the events in reverse —
        // which is chronological order, so every row comes out sorted
        // without a per-row reverse.
        let segments = csr_from_events(
            seg_count,
            seg_events,
            std::mem::take(&mut scratch.seg_offsets),
            std::mem::take(&mut scratch.seg_data),
        );

        // Coalesce adjacent register blocks (these rows were built in
        // reverse and stay nested: the register file is small and fixed).
        for blocked in &mut reg_blocked {
            blocked.reverse();
            let mut merged: Vec<Segment> = Vec::with_capacity(blocked.len());
            for s in blocked.drain(..) {
                match merged.last_mut() {
                    Some(last) if s.start <= last.end || s.start.0 == last.end.0 + 1 => {
                        last.end = last.end.max(s.end);
                    }
                    _ => merged.push(s),
                }
            }
            *blocked = merged;
        }

        Lifetimes { segments, refs, block_first, block_last, reg_blocked, num_insts }
    }

    /// Convenience constructor that runs the prerequisite analyses.
    pub fn of(f: &Function, spec: &MachineSpec) -> Self {
        let cfg = Cfg::compute(f);
        let live = Liveness::compute_on(f, &cfg, 1);
        let loops = LoopInfo::compute(f, &cfg, &Dominators::compute(f, &cfg));
        Lifetimes::compute(f, &live, &loops, spec)
    }

    /// Hands the CSR backing arrays back to `scratch` so the next
    /// [`Lifetimes::compute_in`] call allocates nothing.
    pub fn recycle(self, scratch: &mut AnalysisScratch) {
        let (so, sd) = self.segments.into_parts();
        scratch.seg_offsets = so;
        scratch.seg_data = sd;
        let (ro, rd) = self.refs.into_parts();
        scratch.ref_offsets = ro;
        scratch.ref_data = rd;
    }

    /// The live segments of `t`, in increasing order.
    #[inline]
    pub fn segments(&self, t: Temp) -> &[Segment] {
        self.segments.row(t.index())
    }

    /// The overall lifetime of `t` (`None` if `t` is never referenced).
    pub fn lifetime(&self, t: Temp) -> Option<Segment> {
        let s = self.segments.row(t.index());
        match (s.first(), s.last()) {
            (Some(a), Some(b)) => Some(Segment::new(a.start, b.end)),
            _ => None,
        }
    }

    /// The lifetime holes of `t`: the gaps strictly between consecutive live
    /// segments, as `(end of previous, start of next)` exclusive bounds.
    pub fn holes(&self, t: Temp) -> Vec<(Point, Point)> {
        let s = self.segments.row(t.index());
        s.windows(2).map(|w| (w[0].end, w[1].start)).collect()
    }

    /// The references of `t` in increasing point order.
    #[inline]
    pub fn refs(&self, t: Temp) -> &[RefPoint] {
        self.refs.row(t.index())
    }

    /// The blocked segments of the register with dense index `d`
    /// ([`MachineSpec::reg_index`]): precolored values and call clobbers, in
    /// increasing order, coalesced.
    #[inline]
    pub fn blocked(&self, d: usize) -> &[Segment] {
        &self.reg_blocked[d]
    }

    /// The boundary point at the top of block `b`.
    pub fn top(&self, b: BlockId) -> Point {
        Point::before(self.block_first[b.index()])
    }

    /// The boundary point at the bottom of block `b`.
    pub fn bottom(&self, b: BlockId) -> Point {
        Point::before(self.block_last[b.index()] + 1)
    }

    /// Global index of the first instruction of `b`.
    pub fn first_inst(&self, b: BlockId) -> u32 {
        self.block_first[b.index()]
    }

    /// Global index of the last instruction of `b`.
    pub fn last_inst(&self, b: BlockId) -> u32 {
        self.block_last[b.index()]
    }

    /// Total number of instructions in the function.
    pub fn num_insts(&self) -> u32 {
        self.num_insts
    }

    /// True if `t` is live at `p`.
    pub fn live_at(&self, t: Temp, p: Point) -> bool {
        self.segments.row(t.index()).iter().any(|s| s.contains(p))
    }
}

/// Lays per-temp segment rows out in one flat array from a
/// reverse-chronological event list: `counts[t]` is rewritten in place into
/// the row cursor, and walking the events backwards fills each row in
/// increasing point order.
fn csr_from_events(
    counts: &mut [u32],
    events: &[(u32, Segment)],
    mut offsets: Vec<u32>,
    mut data: Vec<Segment>,
) -> Csr<Segment> {
    offsets.clear();
    offsets.reserve(counts.len() + 1);
    offsets.push(0);
    let mut acc = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = acc; // becomes the cursor for this row
        acc += n;
        offsets.push(acc);
    }
    data.clear();
    data.resize(acc as usize, Segment::new(Point(0), Point(0)));
    for &(t, v) in events.iter().rev() {
        let cur = &mut counts[t as usize];
        data[*cur as usize] = v;
        *cur += 1;
    }
    Csr::from_parts(offsets, data)
}

/// Checks the IR invariant that precolored physical registers are never live
/// across a block boundary (argument registers at the function entry are the
/// one exception — they carry the parameters in).
pub fn check_phys_block_local(f: &Function, spec: &MachineSpec) -> bool {
    for b in f.block_ids() {
        let mut defined: Vec<bool> = vec![false; spec.total_regs()];
        let mut ok = true;
        for ins in &f.block(b).insts {
            ins.inst.for_each_use(|r| {
                if let Reg::Phys(p) = r {
                    if !defined[spec.reg_index(p)] {
                        // Upward-exposed physical use: only argument
                        // registers in the entry block may do this.
                        let is_entry_arg =
                            b == f.entry() && spec.arg_regs(p.class).contains(&p.index);
                        if !is_entry_arg {
                            ok = false;
                        }
                    }
                }
            });
            ins.inst.for_each_def(|r| {
                if let Reg::Phys(p) = r {
                    defined[spec.reg_index(p)] = true;
                }
            });
        }
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, ExtFn, FunctionBuilder, MachineSpec, RegClass};

    #[test]
    fn straight_line_lifetime() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "s", &[]);
        let x = b.int_temp("x"); // inst 0: x = 1
        let y = b.int_temp("y"); // inst 1: y = x + x
        b.movi(x, 1);
        b.add(y, x, x);
        b.ret(Some(y.into())); // inst 2: mov r0, y ; inst 3: ret
        let f = b.finish();
        let lt = Lifetimes::of(&f, &spec);
        // x: defined at write of inst 0, last used at read of inst 1.
        assert_eq!(lt.segments(x), &[Segment::new(Point::write(0), Point::read(1))]);
        // y: defined at write of 1, used at read of 2.
        assert_eq!(lt.segments(y), &[Segment::new(Point::write(1), Point::read(2))]);
        assert!(lt.holes(x).is_empty());
    }

    #[test]
    fn redefinition_creates_hole() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "h", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        let z = b.int_temp("z");
        b.movi(x, 1); // 0
        b.mov(y, x); // 1: last use of x's first value
        b.movi(z, 5); // 2: hole for x here
        b.movi(x, 2); // 3: x redefined
        b.add(y, x, z); // 4
        b.ret(Some(y.into()));
        let f = b.finish();
        let lt = Lifetimes::of(&f, &spec);
        let holes = lt.holes(x);
        assert_eq!(holes.len(), 1);
        assert_eq!(holes[0], (Point::read(1), Point::write(3)));
        assert!(lt.live_at(x, Point::read(1)));
        assert!(!lt.live_at(x, Point::read(2)));
    }

    #[test]
    fn dead_def_is_point_segment() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "d", &[]);
        let x = b.int_temp("x");
        b.movi(x, 1); // inst 0; x never used
        b.ret(None);
        let f = b.finish();
        let lt = Lifetimes::of(&f, &spec);
        assert_eq!(lt.segments(x), &[Segment::new(Point::write(0), Point::write(0))]);
    }

    #[test]
    fn block_boundary_hole_like_figure_1() {
        // Figure 1's essence: a temp live in B1 and B4 but dead through the
        // linearly intervening blocks gets a hole spanning them.
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "f1", &[RegClass::Int]);
        let p = b.param(0);
        let t1 = b.int_temp("t1");
        let t4 = b.int_temp("t4");
        let b1 = b.block();
        let b2 = b.block();
        let b3 = b.block();
        b.jump(b1);
        b.switch_to(b1);
        b.movi(t1, 7);
        b.movi(t4, 1);
        b.branch(Cond::Ne, p, b2, b3);
        b.switch_to(b2);
        // t1 dead here; t4 used
        b.add(t4, t4, t4);
        b.jump(b3);
        b.switch_to(b3);
        let s = b.int_temp("s");
        b.add(s, t1, t4);
        b.ret(Some(s.into()));
        let f = b.finish();
        let lt = Lifetimes::of(&f, &spec);
        // t1 has no hole: it's live-out of b1, live-in b2? No — t1 unused in
        // b2 but live *through* it (live-out of b2 since b2->b3 uses it). So
        // single segment.
        assert_eq!(lt.segments(t1).len(), 1);
        // Now check an actual boundary hole: t4 in a variant below.
        let _ = t4;
    }

    #[test]
    fn boundary_hole_when_value_dead_through_linear_gap() {
        // CFG: b0 -> b1, b0 -> b2; b1 -> b3, b2 -> b3. Linear order
        // b0,b1,b2,b3. A temp defined in b1 and used in b3 is dead
        // throughout b2 (no path b1->b2), so its linear view has a hole
        // covering b2... but liveness says it IS live-out of b1 and live-in
        // of b3; through b2 it is NOT live (b2's live-in doesn't contain it
        // only if b2 doesn't reach a use without redefinition — b2->b3 uses
        // it!). To make it dead in b2, b2 must redefine it.
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "g", &[RegClass::Int]);
        let p = b.param(0);
        let t = b.int_temp("t");
        let b1 = b.block();
        let b2 = b.block();
        let b3 = b.block();
        b.branch(Cond::Ne, p, b1, b2);
        b.switch_to(b1);
        b.movi(t, 1);
        b.jump(b3);
        b.switch_to(b2);
        b.movi(t, 2);
        b.jump(b3);
        b.switch_to(b3);
        b.ret(Some(t.into()));
        let f = b.finish();
        let lt = Lifetimes::of(&f, &spec);
        // t is defined in both b1 and b2; in the linear order its lifetime
        // runs from the def in b1 to the use in b3 with a hole between the
        // bottom of b1 (where its first value's liveness pauses — it is not
        // live into b2) and the def in b2.
        let segs = lt.segments(t);
        assert_eq!(segs.len(), 2, "segments: {segs:?}");
        assert_eq!(segs[0].end, lt.bottom(b1));
        assert_eq!(segs[1].start.0, Point::write(lt.first_inst(b2)).0);
    }

    #[test]
    fn call_blocks_caller_saved_registers() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "c", &[]);
        let r = b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int)).unwrap();
        b.ret(Some(r.into()));
        let f = b.finish();
        let lt = Lifetimes::of(&f, &spec);
        // Call is instruction 0. A caller-saved register that is neither an
        // arg nor ret register is blocked exactly across the call.
        let cs = lsra_ir::PhysReg::int(10);
        assert!(spec.is_caller_saved(cs));
        let blocked = lt.blocked(spec.reg_index(cs));
        assert_eq!(blocked, &[Segment::new(Point::read(0), Point::write(0))]);
        // A callee-saved register is never blocked.
        let callee = lsra_ir::PhysReg::int(20);
        assert!(lt.blocked(spec.reg_index(callee)).is_empty());
        // The return register is blocked twice: from the call's write to the
        // result move's read, and again from the `ret`-value move to the
        // `ret` itself.
        let ret0 = spec.ret_reg(RegClass::Int);
        let rb = lt.blocked(spec.reg_index(ret0));
        assert_eq!(rb.len(), 2, "blocked: {rb:?}");
        assert_eq!(rb[0], Segment::new(Point::write(0), Point::read(1)));
        assert_eq!(rb[1], Segment::new(Point::write(2), Point::read(3)));
    }

    #[test]
    fn phys_block_local_check() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "ok", &[RegClass::Int]);
        let p = b.param(0);
        b.ret(Some(p.into()));
        let f = b.finish();
        assert!(check_phys_block_local(&f, &spec));
    }

    #[test]
    fn refs_carry_loop_weights() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "w", &[RegClass::Int]);
        let n = b.param(0);
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        let head = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.add(acc, acc, n);
        b.addi(n, n, -1);
        b.branch(Cond::Gt, n, head, exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let f = b.finish();
        let lt = Lifetimes::of(&f, &spec);
        let refs = lt.refs(acc);
        // acc: def in entry (weight 1), use+def in loop (weight 10), use in
        // exit's mov (weight 1).
        assert!(refs.iter().any(|r| r.weight() == 10.0));
        assert!(refs.first().unwrap().is_def);
        assert_eq!(refs.first().unwrap().weight(), 1.0);
        assert_eq!(std::mem::size_of::<RefPoint>(), 8);
        // Refs are sorted by point.
        for w in refs.windows(2) {
            assert!(w[0].point <= w[1].point);
        }
    }
}
