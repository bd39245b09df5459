//! Point lifetimes: the one "spill everywhere" pass the allocators share.
//!
//! Two-pass binpacking (§3.1) and Poletto's linear scan (§4) give each
//! temporary either a register or memory for its whole lifetime; ion gives
//! each piece of a split lifetime one or the other. Every reference to a
//! memory-resident value then becomes a *point lifetime*: a load into a
//! scratch register before a use, a store after a definition. This module
//! holds that pass once, generic over [`PointAlloc`], which answers four
//! questions of an allocation in progress: where a temporary is at a point,
//! whether a register is free over an instruction, which occupant to demote
//! (each allocator keeps its own rule), and what goes before an
//! instruction.
//!
//! * [`ensure_point_feasibility`] — the fixpoint that demotes victims until
//!   every instruction has enough free registers for its point lifetimes;
//! * [`rewrite`] — the rewrite of memory-resident references through
//!   scratch registers handed out from the top of each class (`EvictLoad`
//!   before, `EvictStore` after; a spilled destination reuses a same-class
//!   source scratch);
//! * [`RegFile`] — the one register occupancy of the point allocators, with
//!   `u32` owners: a temporary's index for the whole-lifetime allocators, a
//!   bundle id for ion;
//! * [`Occupancy`] — the whole-lifetime allocators' [`PointAlloc`]: a
//!   [`RegFile`] owned by temporaries plus the assignment, demoting the
//!   longest lifetime. Ion implements the trait on its bundles over its own
//!   [`RegFile`].
//!
//! A [`RegFile`] query costs the same whatever was asked before it, so the
//! passes and the allocators' searches may ask in any order.

use lsra_analysis::{Lifetimes, Point, Segment, SmallVec};
use lsra_ir::{Function, Ins, Inst, MachineSpec, PhysReg, Reg, RegClass, SpillTag, Temp};
use lsra_trace::{TraceEvent, TraceSink};

use crate::resolve::ensure_slot;
use crate::stats::AllocStats;

/// The span a point lifetime at instruction `gi` must have free.
pub fn point_span(gi: u32) -> Segment {
    Segment::new(Point::before(gi), Point::before(gi + 1))
}

/// What the point-lifetime passes ask of an allocation in progress.
///
/// Registers are indexed densely ([`MachineSpec::reg_index`]).
pub trait PointAlloc {
    /// The register holding `t` at point `p`, or `None` if `t` is in memory
    /// there.
    fn loc(&self, t: Temp, p: Point) -> Option<PhysReg>;

    /// True if register `d` has no occupant over [`point_span`]`(gi)`.
    fn is_free(&self, d: usize, gi: u32) -> bool;

    /// Sends one occupant of a `class` register over `gi`'s span to memory,
    /// by the allocator's own victim rule, and returns the temporary that
    /// names it in a trace; `None` if no register of `class` holds one.
    fn demote(&mut self, lt: &Lifetimes, class: RegClass, gi: u32) -> Option<Temp>;

    /// Appends the code that goes before instruction `gi`, ahead of its
    /// scratch loads. Nothing by default.
    fn before(
        &mut self,
        _gi: u32,
        _f: &mut Function,
        _stats: &mut AllocStats,
        _out: &mut Vec<Ins>,
    ) {
    }
}

/// The highest register of `class` below `below[class]` that is free over
/// instruction `gi`'s span, moving the bound down to it: successive calls
/// hand out the free registers from the top of each class.
fn scratch_reg(
    a: &impl PointAlloc,
    spec: &MachineSpec,
    class: RegClass,
    gi: u32,
    below: &mut [usize; 2],
) -> PhysReg {
    let (lo, next) = (spec.reg_indices(class).start, &mut below[class.index()]);
    while *next > lo {
        *next -= 1;
        if a.is_free(*next, gi) {
            return spec.reg_at(*next);
        }
    }
    panic!("no scratch register at instruction {gi} (class {class})")
}

/// Makes sure every instruction referencing memory-resident temporaries
/// has enough free registers for its point lifetimes, demoting victims
/// until it does. Iterates to a fixed point (a demotion adds point-lifetime
/// demand at the victim's own references) and returns the number of sweeps.
///
/// # Panics
///
/// Panics if an instruction needs more scratch registers of a class than
/// the precolored blocks leave free.
pub fn ensure_point_feasibility(
    a: &mut impl PointAlloc,
    f: &Function,
    lt: &Lifetimes,
    spec: &MachineSpec,
    sink: &mut dyn TraceSink,
) -> u32 {
    // Per-instruction spilled-source list, hoisted out of the loops;
    // inline storage covers every realistic operand count.
    let mut src_spilled: SmallVec<Temp, 8> = SmallVec::new();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = false;
        for b in f.block_ids() {
            let first = lt.first_inst(b);
            for (k, ins) in f.block(b).insts.iter().enumerate() {
                let gi = first + k as u32;
                src_spilled.clear();
                ins.inst.for_each_use(|r| {
                    if let Reg::Temp(t) = r {
                        if !src_spilled.contains(&t) && a.loc(t, Point::read(gi)).is_none() {
                            src_spilled.push(t);
                        }
                    }
                });
                let mut dst_class = None;
                ins.inst.for_each_def(|r| {
                    if let Reg::Temp(t) = r {
                        if a.loc(t, Point::write(gi)).is_none() {
                            dst_class = Some(f.temp_class(t));
                        }
                    }
                });
                if src_spilled.is_empty() && dst_class.is_none() {
                    continue;
                }
                // Demoting a victim of one class changes no demand of the
                // other, so both demands are read up front.
                for class in RegClass::ALL {
                    let srcs = src_spilled.iter().filter(|&&t| f.temp_class(t) == class).count();
                    // The destination can reuse a source scratch of the
                    // same class.
                    let need = srcs + usize::from(srcs == 0 && dst_class == Some(class));
                    if need == 0 {
                        continue;
                    }
                    while spec.reg_indices(class).filter(|&d| a.is_free(d, gi)).take(need).count()
                        < need
                    {
                        let victim = a.demote(lt, class, gi).unwrap_or_else(|| {
                            panic!(
                                "cannot satisfy point lifetimes at instruction {gi} \
                                 (class {class})"
                            )
                        });
                        if sink.enabled() {
                            sink.event(&TraceEvent::PackUnassign { temp: victim, gi });
                        }
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return rounds;
        }
    }
}

/// Rewrites `f`'s temporaries to their registers, routing every reference
/// to a memory-resident temporary through a scratch register free over the
/// instruction's span: a load before each use, and a store after each
/// definition (point lifetimes do not avoid stores). What
/// [`PointAlloc::before`] emits precedes the loads. Every temporary that
/// gets a slot is counted in `stats.spilled_temps` ([`ensure_slot`]).
///
/// # Panics
///
/// Panics if an instruction lacks a free scratch register, which
/// [`ensure_point_feasibility`] rules out.
pub fn rewrite(
    a: &mut impl PointAlloc,
    f: &mut Function,
    lt: &Lifetimes,
    spec: &MachineSpec,
    stats: &mut AllocStats,
    scratch: &mut PointScratch,
    sink: &mut dyn TraceSink,
) {
    let PointScratch { srcs, pre, post, .. } = scratch;
    pre.clear();
    post.clear();
    for b in f.block_ids().collect::<Vec<_>>() {
        let first = lt.first_inst(b);
        if sink.enabled() {
            sink.event(&TraceEvent::BlockTop { block: b, first_gi: first });
        }
        let insts = std::mem::take(&mut f.block_mut(b).insts);
        let mut out: Vec<Ins> = Vec::with_capacity(insts.len());
        for (k, mut ins) in insts.into_iter().enumerate() {
            let gi = first + k as u32;
            a.before(gi, f, stats, pre);
            // Each distinct source and its register (`None`: memory).
            srcs.clear();
            ins.inst.for_each_use(|r| {
                if let Reg::Temp(t) = r {
                    if !srcs.iter().any(|&(u, _)| u == t) {
                        srcs.push((t, a.loc(t, Point::read(gi))));
                    }
                }
            });
            // Loads for memory-resident sources; the first scratch of each
            // class is the one a spilled destination reuses.
            let mut below = RegClass::ALL.map(|c| spec.reg_indices(c).end);
            let mut reuse = [None; 2];
            for (t, loc) in srcs.iter_mut() {
                if loc.is_none() {
                    let class = f.temp_class(*t);
                    let r = scratch_reg(&*a, spec, class, gi, &mut below);
                    reuse[class.index()].get_or_insert(r);
                    ensure_slot(f, *t, stats);
                    pre.push(Ins::tagged(
                        Inst::SpillLoad { dst: Reg::Phys(r), temp: *t },
                        SpillTag::EvictLoad,
                    ));
                    stats.record_insert(SpillTag::EvictLoad);
                    *loc = Some(r);
                }
            }
            ins.inst.for_each_use_mut(|r| {
                if let Reg::Temp(t) = *r {
                    let (_, loc) = srcs.iter().find(|(u, _)| *u == t).expect("source resolved");
                    *r = Reg::Phys(loc.expect("source located"));
                }
            });
            let mut def_temp = None;
            ins.inst.for_each_def(|r| {
                if let Reg::Temp(t) = r {
                    def_temp = Some(t);
                }
            });
            if let Some(t) = def_temp {
                let r = match a.loc(t, Point::write(gi)) {
                    Some(r) => r,
                    None => {
                        let class = f.temp_class(t);
                        let r = match reuse[class.index()] {
                            Some(r) => r,
                            None => scratch_reg(&*a, spec, class, gi, &mut below),
                        };
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
            // A terminator defines no temporary, so its post is empty.
            debug_assert!(post.is_empty() || !ins.inst.is_terminator());
            out.append(pre);
            out.push(ins);
            out.append(post);
        }
        f.block_mut(b).insts = out;
    }
}

/// Reusable per-instruction buffers for [`rewrite`], so allocating many
/// functions in sequence reuses one set of lists.
#[derive(Debug, Default)]
pub struct PointScratch {
    srcs: Vec<(Temp, Option<PhysReg>)>,
    pre: Vec<Ins>,
    post: Vec<Ins>,
}

/// Register occupancy, built for the two questions the point allocators
/// ask.
///
/// "Is register `d` free over `[s, e]`?" is answered by one row of point
/// bits per dense register, covering blocked segments and placed ranges
/// alike: a probe masks the first and last words of the span and tests the
/// words between, and landing or lifting a range sets or clears the same
/// words. "Who holds `d` at `p`?" is answered without searching the ranges.
/// A blocked (precolored / call-clobber) segment is found by binary search
/// in the register's blocked list from `Lifetimes`, which never changes. A
/// placed range is found from a second row per register holding one bit at
/// each placed range's first point: ranges in a register are disjoint, so
/// the last start bit at or before an occupied, unblocked point is its
/// range's. A summary row, one bit per nonzero word of the start row, takes
/// that backward search over a long range in a step or two. The start
/// point then indexes a table of chains, one per four consecutive points
/// (about one per instruction), holding the ranges of every register that
/// start there, and the chain names the range's end and owner. Set-up inserts nothing but the
/// blocked bits; placed ranges enter and leave through [`RegFile::occupy`]
/// and [`RegFile::vacate`] only, each range as bit work plus one chain
/// update.
///
/// The rows share one buffer and a chain covers four points, not one: at
/// 2×10^5 instructions three separate row buffers and a per-point table
/// nearly doubled a two-pass allocation's page faults, as the memory
/// allocator handed the pages back after each function and faulted them in
/// again for the next.
#[derive(Debug)]
pub struct RegFile<'a> {
    /// Words per register row.
    words: usize,
    /// Words per register row of the summary.
    sum_words: usize,
    /// Every bit row, register by register within each kind. Bit `p % 64`
    /// of word `p / 64` of register `d`'s *busy* row is set while point `p`
    /// is occupied; the same bit of its *start* row is set while a placed
    /// range starts at `p`; bit `w % 64` of word `w / 64` of its *summary*
    /// row is set while word `w` of its start row is nonzero.
    bits: Vec<u64>,
    /// Per chain `k`: 1 + the index in `placed` of the last range landed at
    /// a point `p` with `p / 4 == k` (0 for none).
    head: Vec<u32>,
    /// The placed ranges, linked into the chains of their start points;
    /// vacated entries are linked into the free list instead.
    placed: Vec<Placed>,
    /// 1 + the index of the first vacated entry of `placed` (0 for none).
    free: u32,
    /// Per register: the blocked segments, ascending and disjoint.
    blocked: Vec<&'a [Segment]>,
}

/// One placed range of a [`RegFile`].
#[derive(Clone, Copy, Debug)]
struct Placed {
    reg: u32,
    start: u32,
    end: u32,
    owner: u32,
    /// 1 + the index of the next entry of the same chain (0 at its end).
    next: u32,
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
    pub fn new(blocked: Vec<&'a [Segment]>, insts: u32) -> Self {
        let points = 4 * insts as usize + 4;
        let words = points.div_ceil(64);
        let sum_words = words.div_ceil(64);
        let nregs = blocked.len();
        let mut regs = RegFile {
            words,
            sum_words,
            bits: vec![0; nregs * (2 * words + sum_words)],
            head: vec![0; points / 4],
            placed: Vec::new(),
            free: 0,
            blocked,
        };
        for d in 0..nregs {
            let segs: &'a [Segment] = regs.blocked[d];
            for &s in segs {
                regs.claim(d, s);
            }
        }
        regs
    }

    /// The index in `bits` of word `w` of register `d`'s busy row.
    #[inline]
    fn busy_at(&self, d: usize, w: usize) -> usize {
        d * self.words + w
    }

    /// The index in `bits` of word `w` of register `d`'s start row.
    #[inline]
    fn start_at(&self, d: usize, w: usize) -> usize {
        (self.blocked.len() + d) * self.words + w
    }

    /// The index in `bits` of word `i` of register `d`'s summary row.
    #[inline]
    fn summary_at(&self, d: usize, i: usize) -> usize {
        2 * self.blocked.len() * self.words + d * self.sum_words + i
    }

    /// The first occupied point of `[start, end]` in register `d`.
    #[inline]
    fn first_busy(&self, d: usize, start: u32, end: u32) -> Option<u32> {
        let (ws, we, lo, hi) = word_span(start, end);
        debug_assert!(we < self.words, "point {end} is past the function");
        let at = |w: usize, m: u64| (m != 0).then(|| w as u32 * 64 + m.trailing_zeros());
        if ws == we {
            // Most spans sit in one word: one masked load.
            return at(ws, self.bits[self.busy_at(d, ws)] & lo & hi);
        }
        let row = &self.bits[self.busy_at(d, 0)..self.busy_at(d + 1, 0)];
        at(ws, row[ws] & lo)
            .or_else(|| (ws + 1..we).find_map(|w| at(w, row[w])))
            .or_else(|| at(we, row[we] & hi))
    }

    /// The start of the placed range of register `d` holding point `p`: the
    /// last start bit at or before `p`, in `p`'s word or else in the last
    /// nonzero start word before it, which the summary row names.
    #[inline]
    fn range_start(&self, d: usize, p: u32) -> u32 {
        let row = &self.bits[self.start_at(d, 0)..self.start_at(d + 1, 0)];
        let mut w = (p / 64) as usize;
        let mut bits = row[w] & !0u64 >> (63 - p % 64);
        if bits == 0 {
            let sum = &self.bits[self.summary_at(d, 0)..self.summary_at(d + 1, 0)];
            let (mut i, mut m) = (w / 64, sum[w / 64] & !(!0u64 << (w % 64)));
            while m == 0 {
                i = i.checked_sub(1).expect("an occupied, unblocked point lies in a placed range");
                m = sum[i];
            }
            w = i * 64 + 63 - m.leading_zeros() as usize;
            bits = row[w];
        }
        w as u32 * 64 + 63 - bits.leading_zeros()
    }

    /// The index in `placed` of register `d`'s range starting at `start`,
    /// after the index of the entry before it in its chain (`None` when it
    /// heads the chain).
    fn find(&self, d: usize, start: u32) -> (Option<usize>, usize) {
        let (mut link, mut prev) = (self.head[start as usize / 4], None);
        loop {
            let i = link.checked_sub(1).expect("a placed range starts there") as usize;
            if (self.placed[i].reg, self.placed[i].start) == (d as u32, start) {
                return (prev, i);
            }
            (link, prev) = (self.placed[i].next, Some(i));
        }
    }

    /// True if any point of `[start, end]` is occupied in register `d`.
    #[inline]
    pub fn is_busy(&self, d: usize, start: u32, end: u32) -> bool {
        self.first_busy(d, start, end).is_some()
    }

    /// True if every segment avoids everything in register `d`.
    #[inline]
    pub fn fits(&self, d: usize, segs: impl IntoIterator<Item = Segment>) -> bool {
        segs.into_iter().all(|s| !self.is_busy(d, s.start.0, s.end.0))
    }

    /// Sets (`on`) or clears the bits of `[start, end]` in register `d`.
    fn mark(&mut self, d: usize, start: u32, end: u32, on: bool) {
        let (ws, we, lo, hi) = word_span(start, end);
        let at = self.busy_at(d, 0);
        let row = &mut self.bits[at..at + self.words];
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

    /// Flips the start bit of point `p` in register `d`, and its word's
    /// summary bit to match.
    #[inline]
    fn toggle_start(&mut self, d: usize, p: u32) {
        let w = (p / 64) as usize;
        let (at, sum) = (self.start_at(d, w), self.summary_at(d, w / 64));
        self.bits[at] ^= 1 << (p % 64);
        let (nonzero, bit) = (self.bits[at] != 0, 1u64 << (w % 64));
        let sum = &mut self.bits[sum];
        if nonzero {
            *sum |= bit;
        } else {
            *sum &= !bit;
        }
    }

    /// Parks `owner` in register `d` over every segment, each free there.
    pub fn occupy(&mut self, d: usize, segs: impl IntoIterator<Item = Segment>, owner: u32) {
        for s in segs {
            let (start, end) = (s.start.0, s.end.0);
            self.claim(d, s);
            self.toggle_start(d, start);
            let chain = start as usize / 4;
            let entry = Placed { reg: d as u32, start, end, owner, next: self.head[chain] };
            let i = match self.free.checked_sub(1) {
                Some(i) => {
                    self.free = self.placed[i as usize].next;
                    self.placed[i as usize] = entry;
                    i
                }
                None => {
                    self.placed.push(entry);
                    self.placed.len() as u32 - 1
                }
            };
            self.head[chain] = i + 1;
        }
    }

    /// Lifts every segment, each exactly as [`RegFile::occupy`] parked it,
    /// out of register `d`.
    pub fn vacate(&mut self, d: usize, segs: impl IntoIterator<Item = Segment>) {
        for s in segs {
            let (start, end) = (s.start.0, s.end.0);
            let (prev, i) = self.find(d, start);
            debug_assert_eq!(self.placed[i].end, end, "vacating an interval never parked");
            let next = self.placed[i].next;
            match prev {
                Some(p) => self.placed[p].next = next,
                None => self.head[start as usize / 4] = next,
            }
            self.placed[i].next = self.free;
            self.free = i as u32 + 1;
            self.toggle_start(d, start);
            self.mark(d, start, end, false);
        }
    }

    /// Every interval of register `d` overlapping `[start, end]`, ascending
    /// by start, with its owner (`None` for a blocked segment). The bits
    /// find each next occupied point; the interval holding it is the last
    /// blocked segment starting at or before it, if that reaches it, and
    /// otherwise the placed range of the last start bit at or before it. A
    /// span with no occupant touches neither.
    pub fn occupants(
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
            let blocked = self.blocked[d];
            let (s, e, owner) = match blocked.partition_point(|b| b.start.0 <= p).checked_sub(1) {
                Some(i) if blocked[i].end.0 >= p => (blocked[i].start.0, blocked[i].end.0, None),
                _ => {
                    let s = self.range_start(d, p);
                    let r = self.placed[self.find(d, s).1];
                    (s, r.end, Some(r.owner))
                }
            };
            debug_assert!(e >= p, "occupied point {p} of register {d} has no interval");
            from = e.max(p) + 1;
            Some((s, e, owner))
        })
    }

    /// The distinct owners parked in register `d` that overlap any of
    /// `segs`, and the greatest of their weights (0 for none). `None` when a
    /// blocked segment overlaps (the register cannot be evicted free), or
    /// as soon as a conflicting owner weighs `bound` or more (the register
    /// cannot win the caller's search, so the rest of its scan would be
    /// thrown away).
    pub fn conflicts(
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

/// Per-register occupancy of a whole-lifetime allocation in progress: each
/// temporary with a lifetime is either assigned a register or in memory.
///
/// Registers are indexed densely ([`MachineSpec::reg_index`]). Precolored
/// blocks (call clobbers, fixed operands) occupy their registers with owner
/// `None` from the start; an assigned temporary's ranges are owned by its
/// index.
#[derive(Debug)]
pub struct Occupancy<'a> {
    spec: &'a MachineSpec,
    lt: &'a Lifetimes,
    regs: RegFile<'a>,
    assigned: Vec<Option<PhysReg>>,
}

impl<'a> Occupancy<'a> {
    /// Empty registers (apart from `lt`'s precolored blocks) for `f`'s
    /// temporaries.
    pub fn new(f: &Function, lt: &'a Lifetimes, spec: &'a MachineSpec) -> Self {
        let blocked = (0..spec.total_regs()).map(|d| lt.blocked(d)).collect();
        Occupancy {
            spec,
            lt,
            regs: RegFile::new(blocked, lt.num_insts()),
            assigned: vec![None; f.num_temps()],
        }
    }

    /// The first register of `class` free over every segment of `segs`.
    pub fn first_fit(&self, class: RegClass, segs: &[Segment]) -> Option<usize> {
        self.spec.reg_indices(class).find(|&d| self.regs.fits(d, segs.iter().copied()))
    }

    /// The owner of register `d` at point `p` (`Some(None)` for a precolored
    /// block).
    pub fn owner_at(&self, d: usize, p: Point) -> Option<Option<Temp>> {
        self.regs.occupants(d, p.0, p.0).next().map(|(_, _, o)| o.map(Temp))
    }

    /// Gives `t` register `d` over `segments`.
    pub fn assign(&mut self, t: Temp, d: usize, segments: &[Segment]) {
        self.regs.occupy(d, segments.iter().copied(), t.0);
        self.assigned[t.index()] = Some(self.spec.reg_at(d));
    }

    /// Sends `t` to memory for its whole lifetime, releasing its register:
    /// of that register's occupants over `t`'s lifetime, those `t` owns are
    /// lifted, whether `t` was given its segments or the whole interval.
    pub fn unassign(&mut self, t: Temp) {
        let Some(r) = self.assigned[t.index()].take() else {
            return;
        };
        let d = self.spec.reg_index(r);
        let iv = self.lt.lifetime(t).expect("an assigned temporary has a lifetime");
        let mut from = iv.start.0;
        loop {
            let Some((s, e, owner)) = self.regs.occupants(d, from, iv.end.0).next() else {
                return;
            };
            if owner == Some(t.0) {
                self.regs.vacate(d, [Segment::new(Point(s), Point(e))]);
            }
            from = e + 1;
        }
    }
}

impl PointAlloc for Occupancy<'_> {
    fn loc(&self, t: Temp, _: Point) -> Option<PhysReg> {
        self.assigned[t.index()]
    }

    fn is_free(&self, d: usize, gi: u32) -> bool {
        let span = point_span(gi);
        !self.regs.is_busy(d, span.start.0, span.end.0)
    }

    /// Unassigns the assigned temporary occupying `gi` with the longest
    /// lifetime (the classic "furthest end" heuristic), lowest register on
    /// ties. A register counts only if its latest-starting occupant over
    /// `gi`'s span is a temporary.
    fn demote(&mut self, lt: &Lifetimes, class: RegClass, gi: u32) -> Option<Temp> {
        let span = point_span(gi);
        let mut best: Option<(u32, Temp)> = None;
        for d in self.spec.reg_indices(class) {
            if let Some((_, _, Some(t))) = self.regs.occupants(d, span.start.0, span.end.0).last() {
                let t = Temp(t);
                let len = lt.lifetime(t).map_or(0, |s| s.end.0 - s.start.0);
                if best.is_none_or(|(l, _)| len > l) {
                    best = Some((len, t));
                }
            }
        }
        let (_, victim) = best?;
        self.unassign(victim);
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{BlockId, Cond, ExtFn, FunctionBuilder, OpCode};
    use lsra_trace::NoopSink;

    /// Each temporary has one home for the whole function, and each
    /// register one occupant over every instruction. The victim is the
    /// occupant of the class's lowest register; the hook drops a marker
    /// before one instruction.
    struct Homes<'a> {
        spec: &'a MachineSpec,
        home: Vec<Option<PhysReg>>,
        occupant: Vec<Option<Temp>>,
        mark_at: u32,
    }

    const MARK: Inst =
        Inst::MovI { dst: Reg::Phys(PhysReg { class: RegClass::Int, index: 0 }), imm: 99 };

    impl PointAlloc for Homes<'_> {
        fn loc(&self, t: Temp, _: Point) -> Option<PhysReg> {
            self.home[t.index()]
        }

        fn is_free(&self, d: usize, _: u32) -> bool {
            self.occupant[d].is_none()
        }

        fn demote(&mut self, _: &Lifetimes, class: RegClass, _: u32) -> Option<Temp> {
            let d = self.spec.reg_indices(class).find(|&d| self.occupant[d].is_some())?;
            let t = self.occupant[d].take()?;
            self.home[t.index()] = None;
            Some(t)
        }

        fn before(&mut self, gi: u32, _: &mut Function, _: &mut AllocStats, out: &mut Vec<Ins>) {
            if gi == self.mark_at {
                out.push(Ins::tagged(MARK, SpillTag::EvictMove));
            }
        }
    }

    #[test]
    fn shared_pass_demotes_then_rewrites_through_top_scratches() {
        // Int r0..r3 (dense 0..3), float f0, f1 (dense 4, 5).
        let spec = MachineSpec::small(4, 2);
        let mut b = FunctionBuilder::new(&spec, "f", &[]);
        let (i0, i1, i2) = (b.int_temp("i0"), b.int_temp("i1"), b.int_temp("i2"));
        let (x, y) = (b.float_temp("x"), b.float_temp("y"));
        let fillers = [b.int_temp("a1"), b.int_temp("a3"), b.float_temp("g0"), b.float_temp("g1")];
        let exit = b.block();
        b.movi(i0, 5); // gi 0
        b.movf(x, 1.0); // gi 1
        b.movf(y, 2.0); // gi 2
        b.add(i1, i0, i0); // gi 3
        b.op2(OpCode::FCmpLt, i2, x, y); // gi 4: two float sources, an int destination
        b.branch(Cond::Ne, i2, exit, exit); // gi 5
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        let lt = Lifetimes::of(&f, &spec);

        // Every referenced temporary lives in memory; fillers hold r1, r3,
        // f0 and f1, so the int class keeps r0 and r2 free.
        let mut home = vec![None; f.num_temps()];
        let mut occupant = vec![None; spec.total_regs()];
        for (t, d) in fillers.into_iter().zip([1, 3, 4, 5]) {
            home[t.index()] = Some(spec.reg_at(d));
            occupant[d] = Some(t);
        }
        let mut a = Homes { spec: &spec, home, occupant, mark_at: 3 };

        // gi 1 needs one float register (g0 goes), gi 4 two (g1 goes); the
        // int class never runs short. The second sweep changes nothing.
        assert_eq!(ensure_point_feasibility(&mut a, &f, &lt, &spec, &mut NoopSink), 2);
        assert_eq!(a.occupant, [None, Some(fillers[0]), None, Some(fillers[1]), None, None]);

        let mut stats = AllocStats::default();
        let mut scratch = PointScratch::default();
        rewrite(&mut a, &mut f, &lt, &spec, &mut stats, &mut scratch, &mut NoopSink);
        let (r2, f0, f1) = (PhysReg::int(2), PhysReg::float(0), PhysReg::float(1));
        let load =
            |r, t| Ins::tagged(Inst::SpillLoad { dst: Reg::Phys(r), temp: t }, SpillTag::EvictLoad);
        let store = |r, t| {
            Ins::tagged(Inst::SpillStore { src: Reg::Phys(r), temp: t }, SpillTag::EvictStore)
        };
        let op = |op, dst, [a, b]: [PhysReg; 2]| -> Ins {
            Inst::Op { op, dst: Reg::Phys(dst), srcs: [Reg::Phys(a), Reg::Phys(b)].into() }.into()
        };
        let expect: Vec<Ins> = vec![
            // Destination scratches come from the top free register.
            Inst::MovI { dst: Reg::Phys(r2), imm: 5 }.into(),
            store(r2, i0),
            Inst::MovF { dst: Reg::Phys(f1), imm: 1.0 }.into(),
            store(f1, x),
            Inst::MovF { dst: Reg::Phys(f1), imm: 2.0 }.into(),
            store(f1, y),
            // The hook's code precedes the scratch loads; the destination
            // reuses the same-class source scratch.
            Ins::tagged(MARK, SpillTag::EvictMove),
            load(r2, i0),
            op(OpCode::Add, r2, [r2, r2]),
            store(r2, i1),
            // Float scratches from the top down; the int destination gets a
            // scratch of its own.
            load(f1, x),
            load(f0, y),
            op(OpCode::FCmpLt, r2, [f1, f0]),
            store(r2, i2),
            // The terminator gets its load and no trailing store.
            load(r2, i2),
            Inst::Branch { cond: Cond::Ne, src: Reg::Phys(r2), then_tgt: exit, else_tgt: exit }
                .into(),
        ];
        assert_eq!(f.block(BlockId(0)).insts, expect);
        // One slot per memory-resident temporary, each counted once, in
        // first-reference order.
        assert_eq!(stats.spilled_temps, 5);
        let slots: Vec<_> =
            [i0, x, y, i1, i2].iter().map(|t| f.spill_slots[t.index()].unwrap().0).collect();
        assert_eq!(slots, [0, 1, 2, 3, 4]);
        assert_eq!(stats.inserted_count(SpillTag::EvictLoad), 4);
        assert_eq!(stats.inserted_count(SpillTag::EvictStore), 5);
    }

    fn seg(start: u32, end: u32) -> Segment {
        Segment::new(Point(start), Point(end))
    }

    /// The number of ranges linked into the start-point chains; with the
    /// free list, they account for every entry of the table.
    fn chained(regs: &RegFile) -> usize {
        let walk = |mut at: u32| {
            let mut n = 0;
            while let Some(i) = at.checked_sub(1) {
                n += 1;
                at = regs.placed[i as usize].next;
            }
            n
        };
        let n = regs.head.iter().map(|&h| walk(h)).sum();
        assert_eq!(n + walk(regs.free), regs.placed.len(), "an entry is lost or linked twice");
        n
    }

    /// Every interval overlapping `[start, end]`, ascending by start, by a
    /// walk over a model of one register in full: its blocked segments and
    /// its placed `(segment, owner)` pairs.
    fn brute_occupants(
        blocked: &[Segment],
        placed: &[(Segment, u32)],
        start: u32,
        end: u32,
    ) -> Vec<(u32, u32, Option<u32>)> {
        let placed = placed.iter().map(|&(s, owner)| (s.start.0, s.end.0, Some(owner)));
        let blocked = blocked.iter().map(|b| (b.start.0, b.end.0, None));
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

    /// `s` cut to a random nonempty prefix: the same start, any end in it.
    fn shortened(rng: &mut lsra_workloads::Lcg, s: Segment) -> Segment {
        seg(s.start.0, s.start.0 + rng.below(u64::from(s.end.0 - s.start.0) + 1) as u32)
    }

    /// Random `occupy`/`vacate` sequences over three partly blocked
    /// registers, against a model of every parked owner walked in full:
    /// `is_busy`, `fits` and `occupants` (the owner lookups through the
    /// start bits) agree with it, and every register's set bits are exactly
    /// its intervals' points and starts. Steps deliberately land ranges
    /// abutting a placed range or a blocked segment on either side, and
    /// lift an owner's ranges to re-place them, shortened and renamed, at the same
    /// starts.
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
            // The model: (register, segments, owner) of every parked owner.
            let mut parked: Vec<(usize, Vec<Segment>, u32)> = Vec::new();
            let placed_in = |parked: &[(usize, Vec<Segment>, u32)], d: usize| {
                let mine = parked.iter().filter(|p| p.0 == d);
                mine.flat_map(|(_, segs, o)| segs.iter().map(|&s| (s, *o))).collect::<Vec<_>>()
            };
            for step in 0..80 {
                let op = if parked.is_empty() { 2 } else { rng.below(6) };
                if op == 0 {
                    let (d, segs, _) = parked.swap_remove(rng.below(parked.len() as u64) as usize);
                    regs.vacate(d, segs.iter().copied());
                } else if op == 1 {
                    let i = rng.below(parked.len() as u64) as usize;
                    let (d, segs, _) = parked.swap_remove(i);
                    regs.vacate(d, segs.iter().copied());
                    let segs: Vec<Segment> = segs.iter().map(|&s| shortened(&mut rng, s)).collect();
                    assert!(regs.fits(d, segs.iter().copied()), "case {case} step {step}");
                    regs.occupy(d, segs.iter().copied(), step);
                    parked.push((d, segs, step));
                } else {
                    let d = rng.below(nregs as u64) as usize;
                    let n = 1 + rng.below(3);
                    let mut segs = edgy_segments(&mut rng, npoints, n);
                    // Abut a neighbour: start right after one, or end right
                    // before one.
                    let mut near: Vec<Segment> = blocked[d].clone();
                    near.extend(placed_in(&parked, d).into_iter().map(|(s, _)| s));
                    if !near.is_empty() && rng.below(2) == 0 {
                        let nb = near[rng.below(near.len() as u64) as usize];
                        let len = 1 + rng.below(70) as u32;
                        // No neighbour spans every point, so one side is open.
                        let after =
                            nb.start.0 == 0 || (nb.end.0 + 1 < npoints && rng.below(2) == 0);
                        segs = vec![if after {
                            seg(nb.end.0 + 1, (nb.end.0 + len).min(npoints - 1))
                        } else {
                            seg(nb.start.0.saturating_sub(len), nb.start.0 - 1)
                        }];
                    }
                    let placed = placed_in(&parked, d);
                    let free = segs.iter().all(|s| {
                        brute_occupants(&blocked[d], &placed, s.start.0, s.end.0).is_empty()
                    });
                    assert_eq!(regs.fits(d, segs.iter().copied()), free, "case {case} step {step}");
                    if free {
                        regs.occupy(d, segs.iter().copied(), step);
                        parked.push((d, segs, step));
                    }
                }
                for (d, blocked) in blocked.iter().enumerate() {
                    let placed = placed_in(&parked, d);
                    let all = brute_occupants(blocked, &placed, 0, npoints - 1);
                    let points: u32 = all.iter().map(|&(s, e, _)| e - s + 1).sum();
                    let words = |from: usize, to: usize| &regs.bits[from..to];
                    let ones = |ws: &[u64]| -> u32 { ws.iter().map(|w| w.count_ones()).sum() };
                    let busy = words(regs.busy_at(d, 0), regs.busy_at(d + 1, 0));
                    let starts = words(regs.start_at(d, 0), regs.start_at(d + 1, 0));
                    let summary = words(regs.summary_at(d, 0), regs.summary_at(d + 1, 0));
                    let why = format!("case {case} step {step}: register {d}");
                    assert_eq!(ones(busy), points, "{why}: stale busy bits");
                    assert_eq!(ones(starts), placed.len() as u32, "{why}: stale start bits");
                    let nonzero = starts.iter().filter(|&&w| w != 0).count() as u32;
                    assert_eq!(ones(summary), nonzero, "{why}: stale summary bits");
                    for _ in 0..8 {
                        let (s, e) = edgy_span(&mut rng, npoints);
                        let want = brute_occupants(blocked, &placed, s, e);
                        assert_eq!(regs.is_busy(d, s, e), !want.is_empty(), "{why} [{s}, {e}]");
                        let got: Vec<_> = regs.occupants(d, s, e).collect();
                        assert_eq!(got, want, "{why} occupants [{s}, {e}]");
                    }
                    // Every point of every interval names its owner.
                    for &(s, e, owner) in &all {
                        let p = s + rng.below(u64::from(e - s) + 1) as u32;
                        let got: Vec<_> = regs.occupants(d, p, p).collect();
                        assert_eq!(got, [(s, e, owner)], "{why} point {p}");
                    }
                }
            }
            assert_eq!(chained(&regs), parked.iter().map(|p| p.1.len()).sum::<usize>());
        }
    }

    /// The bounded conflict scan against a brute-force walk over a model of
    /// every interval: random disjoint occupancy (owners 0..6, or
    /// blocked) where neighbours often abut, half the time with one placed
    /// range lifted and re-placed, shortened and under another owner, at
    /// the same start; random owner weights with ties, random query
    /// segments.
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
                    Some(owner) => placed.push((seg(at, end), owner)),
                    None => blocked.push(seg(at, end)),
                }
                at = end + 1 + rng.below(5) as u32;
            }
            let mut regs = RegFile::new(vec![&blocked], 64);
            for &(s, owner) in &placed {
                regs.occupy(0, [s], owner);
            }
            if !placed.is_empty() && rng.below(2) == 0 {
                let i = rng.below(placed.len() as u64) as usize;
                let (s, _) = placed[i];
                regs.vacate(0, [s]);
                let s = shortened(&mut rng, s);
                let owner = rng.below(6) as u32;
                regs.occupy(0, [s], owner);
                placed[i] = (s, owner);
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
            let (mut want, mut hit_blocked) = (Vec::new(), false);
            for s in &segs {
                assert_eq!(
                    regs.occupants(0, s.start.0, s.end.0).collect::<Vec<_>>(),
                    brute_occupants(&blocked, &placed, s.start.0, s.end.0),
                    "case {case}: occupants of {s:?}"
                );
                for (_, _, owner) in brute_occupants(&blocked, &placed, s.start.0, s.end.0) {
                    match owner {
                        None => hit_blocked = true,
                        Some(c) if !want.contains(&c) => want.push(c),
                        Some(_) => {}
                    }
                }
            }
            let maxw = want.iter().map(|&c| weight(c)).fold(0.0f64, f64::max);

            let bounds = [f64::INFINITY, maxw, maxw + 0.25, rng.below(9) as f64 * 0.5];
            for bound in bounds {
                let got = regs.conflicts(0, segs.iter().copied(), weight, bound);
                if hit_blocked {
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

    /// The start-point chains: one chain holds the ranges starting in one
    /// instruction's points, of every register, two of them register 0's.
    /// Vacating its head, a middle link and its tail leaves every other
    /// range named, and ranges landed afterwards reuse the freed entries.
    #[test]
    fn start_point_chains_keep_ranges_apart() {
        let none: &[Segment] = &[];
        let mut regs = RegFile::new(vec![none; 4], 64);
        regs.occupy(0, [seg(42, 43)], 20);
        for (d, e) in [(0, 40), (1, 41), (2, 90), (3, 42)] {
            regs.occupy(d, [seg(40, e)], 10 + d as u32);
        }
        // Landed last first, the chain is 3, 2, 1, 0 at 40, 0 at 42.
        let mut want = vec![
            (3, 40, 42, 13),
            (2, 40, 90, 12),
            (1, 40, 41, 11),
            (0, 40, 40, 10),
            (0, 42, 43, 20),
        ];
        let named = |regs: &RegFile, want: &[(usize, u32, u32, u32)]| {
            for &(d, s, e, o) in want {
                let got: Vec<_> = regs.occupants(d, s, s).collect();
                assert_eq!(got, [(s, e, Some(o))], "register {d} at {s}");
            }
            assert_eq!(chained(regs), want.len());
        };
        named(&regs, &want);
        // The head, then a middle link, then the tail, which follows a
        // range of the same register in the chain.
        for k in [0, 1, 2] {
            let (d, s, e, _) = want.remove(k);
            regs.vacate(d, [seg(s, e)]);
            assert!(!regs.is_busy(d, s, e), "register {d} keeps bits at {s}");
            named(&regs, &want);
        }
        let entries = regs.placed.len();
        regs.occupy(0, [seg(41, 41)], 7);
        regs.occupy(1, [seg(39, 45)], 8);
        regs.occupy(3, [seg(40, 40)], 9);
        assert_eq!(regs.placed.len(), entries, "freed entries are reused");
        want.extend([(0, 41, 41, 7), (1, 39, 45, 8), (3, 40, 40, 9)]);
        named(&regs, &want);
    }

    /// A straight-line function over `n` integer temporaries that are
    /// defined, used, left dead and defined again, so lifetimes have holes
    /// that other temporaries can fill; calls block the caller-saved
    /// registers.
    fn holey_function(rng: &mut lsra_workloads::Lcg, spec: &MachineSpec, n: usize) -> Function {
        let mut b = FunctionBuilder::new(spec, "f", &[]);
        let ts: Vec<Temp> = (0..n).map(|i| b.int_temp(&format!("t{i}"))).collect();
        let mut defined = vec![false; n];
        let mut last = ts[0];
        b.movi(last, 0);
        for _ in 0..40 {
            let (i, j) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            match rng.below(8) {
                0 => {
                    b.call_ext(ExtFn::GetChar, &[], None);
                }
                1 | 2 => b.movi(ts[i], 1),
                _ if defined[j] => b.add(ts[i], ts[j], last),
                _ => b.movi(ts[i], 2),
            }
            defined[i] = true;
            last = ts[i];
        }
        b.ret(Some(last.into()));
        b.finish()
    }

    /// [`Occupancy`] against a model of every assigned temporary walked in
    /// full, over seeded functions whose lifetimes have holes: temporaries
    /// land over their segments (two-pass) or their whole interval
    /// (Poletto) where [`Occupancy::first_fit`] says, and random ones leave
    /// again. After each step `first_fit`, `owner_at` at every point and
    /// `is_free` at every instruction agree with the model, so `unassign`
    /// lifted exactly the leaver's ranges, including when others sit in its
    /// holes.
    #[test]
    fn occupancy_matches_brute_force() {
        let spec = MachineSpec::small(4, 2);
        let int = spec.reg_indices(RegClass::Int);
        let mut rng = lsra_workloads::Lcg::new(98);
        let mut filled_holes = 0;
        for case in 0..150 {
            let n = 4 + rng.below(12) as usize;
            let f = holey_function(&mut rng, &spec, n);
            let lt = Lifetimes::of(&f, &spec);
            let npoints = 4 * lt.num_insts() + 4;
            let mut occ = Occupancy::new(&f, &lt, &spec);
            // The model: each assigned temporary's register and ranges.
            let mut model: Vec<Option<(usize, Vec<Segment>)>> = vec![None; f.num_temps()];
            let owner = |model: &[Option<(usize, Vec<Segment>)>], d: usize, p: u32| {
                if lt.blocked(d).iter().any(|s| s.contains(Point(p))) {
                    return Some(None);
                }
                let mut held = model.iter().enumerate().filter_map(|(t, m)| {
                    let (r, segs) = m.as_ref()?;
                    (*r == d && segs.iter().any(|s| s.contains(Point(p)))).then_some(Temp(t as u32))
                });
                held.next().map(Some)
            };
            let free = |model: &[Option<(usize, Vec<Segment>)>], d: usize, s: Segment| {
                (s.start.0..=s.end.0).all(|p| owner(model, d, p).is_none())
            };
            let temps: Vec<Temp> =
                (0..f.num_temps() as u32).map(Temp).filter(|&t| lt.lifetime(t).is_some()).collect();
            for step in 0..30 {
                let why = format!("case {case} step {step}");
                let t = temps[rng.below(temps.len() as u64) as usize];
                if let Some((d, _)) = model[t.index()].take() {
                    let iv = lt.lifetime(t).unwrap();
                    let others = (iv.start.0..=iv.end.0)
                        .any(|p| matches!(owner(&model, d, p), Some(Some(o)) if o != t));
                    filled_holes += usize::from(others);
                    occ.unassign(t);
                } else {
                    let segs = match rng.below(2) {
                        0 => lt.segments(t).to_vec(),
                        _ => vec![lt.lifetime(t).unwrap()],
                    };
                    let want = int.clone().find(|&d| segs.iter().all(|&s| free(&model, d, s)));
                    assert_eq!(occ.first_fit(RegClass::Int, &segs), want, "{why}: first fit");
                    if let Some(d) = want {
                        occ.assign(t, d, &segs);
                        model[t.index()] = Some((d, segs));
                    }
                }
                for d in int.clone() {
                    for p in 0..npoints {
                        assert_eq!(
                            occ.owner_at(d, Point(p)),
                            owner(&model, d, p),
                            "{why}: {d} at {p}"
                        );
                    }
                    for gi in 0..lt.num_insts() {
                        let want = free(&model, d, point_span(gi));
                        assert_eq!(occ.is_free(d, gi), want, "{why}: {d} free at {gi}");
                    }
                }
            }
        }
        assert!(filled_holes > 20, "only {filled_holes} unassigns with others in the holes");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlaps an occupant")]
    fn reg_file_occupy_rejects_overlap() {
        let blocked = [seg(10, 20)];
        let mut regs = RegFile::new(vec![&blocked], 16);
        regs.occupy(0, [seg(15, 30)], 1);
    }
}
