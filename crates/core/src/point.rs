//! Register occupancy and point lifetimes for the whole-lifetime allocators.
//!
//! Two-pass binpacking (§3.1) and Poletto's linear scan (§4) both give each
//! temporary either a register for its whole lifetime or memory for its
//! whole lifetime. Every reference to a memory-resident temporary then
//! becomes a *point lifetime*: a load into a scratch register before a use,
//! a store after a definition. This module holds what the two share:
//!
//! * [`Occupancy`] — one [`IntervalMap`] per register, plus the assignment
//!   and spill decisions;
//! * [`Occupancy::ensure_point_feasibility`] — the fixpoint that unassigns
//!   the longest-lifetime occupant until every instruction has enough free
//!   registers for its point lifetimes;
//! * [`Occupancy::rewrite`] — the rewrite of spilled references through
//!   scratch registers (`EvictLoad` before, `EvictStore` after; a spilled
//!   destination reuses a same-class source scratch).
//!
//! Every pass here and the allocators' first fits visit instructions or
//! lifetimes in non-decreasing order (`Lifetimes` numbers instructions in
//! `f.block_ids()` order), so each register answers "am I free over this
//! span?" through a forward-only [`IntervalCursor`] rather than a binary
//! search per query.

use lsra_analysis::{IntervalCursor, IntervalMap, Lifetimes, Point, Segment, SmallVec};
use lsra_ir::{Function, Ins, Inst, MachineSpec, PhysReg, Reg, RegClass, SpillTag, Temp};
use lsra_trace::{TraceEvent, TraceSink};

use crate::stats::AllocStats;

/// Reusable buffers for [`Occupancy`], so allocating many functions in
/// sequence reuses one set of per-register maps and per-instruction lists.
#[derive(Debug, Default)]
pub struct PointScratch {
    regs: Vec<IntervalMap>,
    scratch_of: Vec<(Temp, PhysReg)>,
    src_temps: Vec<Temp>,
    pre: Vec<Ins>,
    post: Vec<Ins>,
}

/// Per-register occupancy of a whole-lifetime allocation in progress.
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
    spilled: Vec<bool>,
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
            spilled: vec![false; f.num_temps()],
        };
        for d in 0..nregs {
            for &s in lt.blocked(d) {
                occ.regs[d].insert(s.start.0, s.end.0, None);
            }
        }
        occ
    }

    /// The occupied intervals of register `d`.
    pub fn reg(&self, d: usize) -> &IntervalMap {
        &self.regs[d]
    }

    /// Number of temporaries living in memory.
    pub fn spilled_count(&self) -> usize {
        self.spilled.iter().filter(|&&s| s).count()
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
        self.spilled[t.index()] = true;
    }

    fn rewind(&mut self) {
        self.cursors.fill(IntervalCursor::default());
    }

    /// The owner of register `d` over instruction `gi`'s point span, on the
    /// current sweep.
    fn owner_over(&mut self, d: usize, gi: u32) -> Option<Option<Temp>> {
        let span = Segment::new(Point::before(gi), Point::before(gi + 1));
        self.regs[d].overlapping_owner_from(&mut self.cursors[d], span.start.0, span.end.0)
    }

    /// True if at least `need` registers of `class` are free at `gi`.
    fn has_free(&mut self, class: RegClass, gi: u32, need: usize) -> bool {
        let free = self.spec.reg_indices(class).filter(|&d| self.owner_over(d, gi).is_none());
        free.take(need).count() == need
    }

    /// The highest register of `class` below `below[class]` that is free
    /// over instruction `gi`'s span, moving the bound down to it: successive
    /// calls hand out the free registers from the top of each class.
    fn scratch_reg(&mut self, class: RegClass, gi: u32, below: &mut [usize; 2]) -> PhysReg {
        let (lo, next) = (self.spec.reg_indices(class).start, &mut below[class.index()]);
        while *next > lo {
            *next -= 1;
            if self.owner_over(*next, gi).is_none() {
                return self.spec.reg_at(*next);
            }
        }
        panic!("no scratch register at instruction {gi} (class {class})")
    }

    /// Picks the assigned temporary occupying `gi` with the longest lifetime
    /// (the classic "furthest end" heuristic), lowest register on ties.
    fn victim_at(&mut self, lt: &Lifetimes, class: RegClass, gi: u32) -> Option<Temp> {
        let mut best: Option<(u32, Temp)> = None;
        for d in self.spec.reg_indices(class) {
            if let Some(Some(t)) = self.owner_over(d, gi) {
                let len = lt.lifetime(t).map_or(0, |s| s.end.0 - s.start.0);
                if best.is_none_or(|(l, _)| len > l) {
                    best = Some((len, t));
                }
            }
        }
        best.map(|(_, t)| t)
    }

    /// Makes sure every instruction referencing spilled temporaries has
    /// enough free registers for its point lifetimes, unassigning victims
    /// until it does. Iterates to a fixed point (unassigning a temp adds
    /// point-lifetime demand at its own references).
    ///
    /// # Panics
    ///
    /// Panics if an instruction needs more scratch registers of a class than
    /// the precolored blocks leave free.
    pub fn ensure_point_feasibility(
        &mut self,
        f: &Function,
        lt: &Lifetimes,
        sink: &mut dyn TraceSink,
    ) {
        // Per-instruction spilled-source list, hoisted out of the loops;
        // inline storage covers every realistic operand count.
        let mut src_spilled: SmallVec<Temp, 8> = SmallVec::new();
        loop {
            let mut changed = false;
            self.rewind();
            for b in f.block_ids() {
                let first = lt.first_inst(b);
                for (k, ins) in f.block(b).insts.iter().enumerate() {
                    src_spilled.clear();
                    ins.inst.for_each_use(|r| {
                        if let Reg::Temp(t) = r {
                            if self.spilled[t.index()] && !src_spilled.contains(&t) {
                                src_spilled.push(t);
                            }
                        }
                    });
                    let mut dst_class = None;
                    ins.inst.for_each_def(|r| {
                        if let Reg::Temp(t) = r {
                            if self.spilled[t.index()] {
                                dst_class = Some(f.temp_class(t));
                            }
                        }
                    });
                    if src_spilled.is_empty() && dst_class.is_none() {
                        continue;
                    }
                    let gi = first + k as u32;
                    // Unassigning a victim of one class changes no demand
                    // of the other, so both demands are read up front.
                    for class in RegClass::ALL {
                        let srcs =
                            src_spilled.iter().filter(|&&t| f.temp_class(t) == class).count();
                        // The destination can reuse a source scratch of the
                        // same class.
                        let need = srcs + usize::from(srcs == 0 && dst_class == Some(class));
                        if need == 0 {
                            continue;
                        }
                        while !self.has_free(class, gi, need) {
                            let victim = self.victim_at(lt, class, gi).unwrap_or_else(|| {
                                panic!(
                                    "cannot satisfy point lifetimes at instruction {gi} \
                                     (class {class})"
                                )
                            });
                            if sink.enabled() {
                                sink.event(&TraceEvent::PackUnassign { temp: victim, gi });
                            }
                            self.unassign(victim);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Rewrites `f`'s temporaries to their registers, routing every
    /// reference to a spilled temporary through a scratch register free over
    /// the instruction's span: a load before each use, and a store after
    /// each definition (whole-lifetime allocation does not avoid stores).
    /// Hands the working memory back to `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if an instruction lacks a free scratch register, which
    /// [`Occupancy::ensure_point_feasibility`] rules out.
    pub fn rewrite(
        mut self,
        f: &mut Function,
        lt: &Lifetimes,
        stats: &mut AllocStats,
        scratch: &mut PointScratch,
        sink: &mut dyn TraceSink,
    ) {
        let PointScratch { scratch_of, src_temps, pre, post, .. } = scratch;
        pre.clear();
        post.clear();
        self.rewind();
        for b in f.block_ids().collect::<Vec<_>>() {
            let first = lt.first_inst(b);
            if sink.enabled() {
                sink.event(&TraceEvent::BlockTop { block: b, first_gi: first });
            }
            let insts = std::mem::take(&mut f.block_mut(b).insts);
            let mut out: Vec<Ins> = Vec::with_capacity(insts.len());
            for (k, mut ins) in insts.into_iter().enumerate() {
                let gi = first + k as u32;
                src_temps.clear();
                ins.inst.for_each_use(|r| {
                    if let Reg::Temp(t) = r {
                        if !src_temps.contains(&t) {
                            src_temps.push(t);
                        }
                    }
                });
                let mut def_temp = None;
                ins.inst.for_each_def(|r| {
                    if let Reg::Temp(t) = r {
                        def_temp = Some(t);
                    }
                });
                let mut below = RegClass::ALL.map(|c| self.spec.reg_indices(c).end);
                scratch_of.clear();
                // Loads for spilled sources.
                for &t in src_temps.iter() {
                    if self.spilled[t.index()] {
                        let r = self.scratch_reg(f.temp_class(t), gi, &mut below);
                        f.slot_for(t);
                        pre.push(Ins::tagged(
                            Inst::SpillLoad { dst: Reg::Phys(r), temp: t },
                            SpillTag::EvictLoad,
                        ));
                        stats.record_insert(SpillTag::EvictLoad);
                        scratch_of.push((t, r));
                    }
                }
                // Rewrite operands.
                ins.inst.for_each_use_mut(|r| {
                    if let Reg::Temp(t) = *r {
                        *r = if self.spilled[t.index()] {
                            let (_, p) =
                                scratch_of.iter().find(|(u, _)| *u == t).expect("scratch mapped");
                            Reg::Phys(*p)
                        } else {
                            Reg::Phys(self.assigned[t.index()].expect("assigned register"))
                        };
                    }
                });
                if let Some(t) = def_temp {
                    let r = if self.spilled[t.index()] {
                        let class = f.temp_class(t);
                        // Reuse a source scratch of the same class if possible.
                        let r = match scratch_of.iter().find(|(_, p)| p.class == class) {
                            Some(&(_, p)) => p,
                            None => self.scratch_reg(class, gi, &mut below),
                        };
                        f.slot_for(t);
                        post.push(Ins::tagged(
                            Inst::SpillStore { src: Reg::Phys(r), temp: t },
                            SpillTag::EvictStore,
                        ));
                        stats.record_insert(SpillTag::EvictStore);
                        r
                    } else {
                        self.assigned[t.index()].expect("assigned register")
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
        scratch.regs = self.regs;
    }
}
