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
//! * [`Occupancy`] — the whole-lifetime allocators' [`PointAlloc`]: one
//!   [`IntervalMap`] per register plus the assignment, demoting the
//!   longest lifetime. Ion implements the trait on its own register file.
//!
//! Both passes and the whole-lifetime allocators' first fits visit
//! instructions or lifetimes in non-decreasing order (`Lifetimes` numbers
//! instructions in `f.block_ids()` order), so each [`Occupancy`] register
//! answers "am I free over this span?" through a forward-only
//! [`IntervalCursor`] rather than a binary search per query.

use lsra_analysis::{IntervalCursor, IntervalMap, Lifetimes, Point, Segment, SmallVec};
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
/// Registers are indexed densely ([`MachineSpec::reg_index`]). Within one
/// sweep, begun by [`PointAlloc::rewind`], the passes ask about
/// instructions in non-decreasing `gi` order.
pub trait PointAlloc {
    /// The register holding `t` at point `p`, or `None` if `t` is in memory
    /// there.
    fn loc(&self, t: Temp, p: Point) -> Option<PhysReg>;

    /// True if register `d` has no occupant over [`point_span`]`(gi)`.
    fn is_free(&mut self, d: usize, gi: u32) -> bool;

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

    /// Begins a sweep from the first instruction. Nothing by default.
    fn rewind(&mut self) {}
}

/// The highest register of `class` below `below[class]` that is free over
/// instruction `gi`'s span, moving the bound down to it: successive calls
/// hand out the free registers from the top of each class.
fn scratch_reg(
    a: &mut impl PointAlloc,
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
        a.rewind();
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
    a.rewind();
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
                    let r = scratch_reg(a, spec, class, gi, &mut below);
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
                            None => scratch_reg(a, spec, class, gi, &mut below),
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

/// Reusable buffers for [`Occupancy`] and [`rewrite`], so allocating many
/// functions in sequence reuses one set of per-register maps and
/// per-instruction lists.
#[derive(Debug, Default)]
pub struct PointScratch {
    regs: Vec<IntervalMap>,
    srcs: Vec<(Temp, Option<PhysReg>)>,
    pre: Vec<Ins>,
    post: Vec<Ins>,
}

/// Per-register occupancy of a whole-lifetime allocation in progress: each
/// temporary with a lifetime is either assigned a register or in memory.
///
/// Registers are indexed densely ([`MachineSpec::reg_index`]).
/// Precolored blocks (call clobbers, fixed operands) occupy their registers
/// with owner `None` from the start.
#[derive(Debug)]
pub struct Occupancy<'a> {
    spec: &'a MachineSpec,
    regs: Vec<IntervalMap>,
    /// One forward-only cursor per register, rewound by each sweep.
    cursors: Vec<IntervalCursor>,
    assigned: Vec<Option<PhysReg>>,
}

impl<'a> Occupancy<'a> {
    /// Empty registers (apart from `lt`'s precolored blocks) for `f`'s
    /// temporaries, built in `scratch`'s recycled maps.
    pub fn new(
        f: &Function,
        lt: &Lifetimes,
        spec: &'a MachineSpec,
        scratch: &mut PointScratch,
    ) -> Self {
        let nregs = spec.total_regs();
        let mut regs = std::mem::take(&mut scratch.regs);
        regs.truncate(nregs);
        regs.iter_mut().for_each(IntervalMap::clear);
        regs.resize(nregs, IntervalMap::new());
        let mut occ = Occupancy {
            spec,
            regs,
            cursors: vec![IntervalCursor::default(); nregs],
            assigned: vec![None; f.num_temps()],
        };
        for d in 0..nregs {
            for &s in lt.blocked(d) {
                occ.regs[d].insert(s.start.0, s.end.0, None);
            }
        }
        occ
    }

    /// Hands the per-register maps back to `scratch`.
    pub fn recycle(self, scratch: &mut PointScratch) {
        scratch.regs = self.regs;
    }

    /// The occupied intervals of register `d`.
    pub fn reg(&self, d: usize) -> &IntervalMap {
        &self.regs[d]
    }

    /// The first register of `class` free over `[start, end]` for which
    /// `fits` also holds. Successive calls must come in non-decreasing
    /// `start` order (a first fit over lifetimes in start order): a busy
    /// register is then rejected in amortised O(1), and `fits` only runs for
    /// registers free over `[start, end]`.
    pub fn first_fit(
        &mut self,
        class: RegClass,
        start: u32,
        end: u32,
        fits: impl Fn(&IntervalMap) -> bool,
    ) -> Option<usize> {
        let mut range = self.spec.reg_indices(class);
        let Occupancy { regs, cursors, .. } = self;
        range.find(|&d| !regs[d].overlaps_from(&mut cursors[d], start, end) && fits(&regs[d]))
    }

    /// The owner of register `d` at point `p` (`Some(None)` for a precolored
    /// block), in the same non-decreasing sequence as
    /// [`Occupancy::first_fit`]'s `start`s.
    pub fn owner_at(&mut self, d: usize, p: Point) -> Option<Option<Temp>> {
        self.regs[d].overlapping_owner_from(&mut self.cursors[d], p.0, p.0)
    }

    /// Gives `t` register `d` over `segments`.
    pub fn assign(&mut self, t: Temp, d: usize, segments: &[Segment]) {
        for s in segments {
            self.regs[d].insert(s.start.0, s.end.0, Some(t));
        }
        self.assigned[t.index()] = Some(self.spec.reg_at(d));
    }

    /// Sends `t` to memory for its whole lifetime, releasing its register.
    pub fn unassign(&mut self, t: Temp) {
        if let Some(p) = self.assigned[t.index()].take() {
            let d = self.spec.reg_index(p);
            self.regs[d].remove_owner(t);
            self.regs[d].reset_cursor(&mut self.cursors[d]);
        }
    }

    /// The owner of register `d` over instruction `gi`'s point span, on the
    /// current sweep.
    fn owner_over(&mut self, d: usize, gi: u32) -> Option<Option<Temp>> {
        let span = point_span(gi);
        self.regs[d].overlapping_owner_from(&mut self.cursors[d], span.start.0, span.end.0)
    }
}

impl PointAlloc for Occupancy<'_> {
    fn loc(&self, t: Temp, _: Point) -> Option<PhysReg> {
        self.assigned[t.index()]
    }

    fn is_free(&mut self, d: usize, gi: u32) -> bool {
        self.owner_over(d, gi).is_none()
    }

    /// Unassigns the assigned temporary occupying `gi` with the longest
    /// lifetime (the classic "furthest end" heuristic), lowest register on
    /// ties.
    fn demote(&mut self, lt: &Lifetimes, class: RegClass, gi: u32) -> Option<Temp> {
        let mut best: Option<(u32, Temp)> = None;
        for d in self.spec.reg_indices(class) {
            if let Some(Some(t)) = self.owner_over(d, gi) {
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

    fn rewind(&mut self) {
        self.cursors.fill(IntervalCursor::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{BlockId, Cond, FunctionBuilder, OpCode};
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

        fn is_free(&mut self, d: usize, _: u32) -> bool {
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
}
