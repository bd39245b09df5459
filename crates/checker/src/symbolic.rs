//! A symbolic dataflow checker for register allocations.
//!
//! The checker proves that every read of allocated code sees the *right
//! temporary's* value. It runs a forward must-dataflow over the allocated
//! code that tracks, per physical register and per spill slot, the set of
//! symbols (original temporaries, convention-defined physical-register
//! values, and one *written* symbol for "holds some value") the location is
//! guaranteed to hold:
//!
//! * an original instruction defining temporary `t` into register `r` kills
//!   `t` from every location and sets `r = {t}`;
//! * an original move additionally *transfers* the source location's symbol
//!   set (which makes a coalesced identity move `rX = rX` check out);
//! * allocator-inserted moves, spill loads, spill stores, and the spill
//!   store/load pairs that break parallel-move cycles simply copy symbol
//!   sets between locations, and their source must hold the written symbol
//!   even when nothing reads the copy;
//! * every definition, paired move destination, entry argument register
//!   and call result holds the written symbol;
//! * calls empty every caller-saved register and redefine the return-value
//!   symbols;
//! * joins intersect (a location holds `t` only if it does on *every*
//!   incoming path): the fixpoint is the workspace's one optimistic
//!   must-dataflow solver, [`lsra_analysis::solve_must`].
//!
//! A use of temporary `t` rewritten to register `r` is an error unless `t`
//! is in `r`'s set. Because the domain distinguishes *which* value a
//! location holds, the checker rejects wrong-value bugs — e.g. a swapped
//! pair of resolution moves on one CFG edge — even though every register
//! involved holds *a* value.
//!
//! The checker relies on the lockstep-correspondence invariant every
//! allocator in this workspace maintains: blocks `0..orig.num_blocks()` of
//! the allocated function contain the original instructions, untagged and
//! in order, interleaved with tagged ([`SpillTag::is_spill`]) insertions;
//! appended blocks (from critical-edge splitting) contain only tagged
//! instructions plus one untagged `Jump`. Run it *before*
//! `remove_identity_moves`.

use lsra_analysis::{solve_must, BitSet, Cfg};
use lsra_ir::{BlockId, Function, Inst, MachineSpec, Module, PhysReg, Reg, RegClass, SlotId, Temp};

/// A violation found by [`check_function`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The allocated function does not structurally correspond to the
    /// original (lockstep pairing broken, operand shape changed, virtual
    /// operand left behind). This signals a harness or allocator bug
    /// independent of any dataflow.
    Mismatch {
        /// Function name.
        func: String,
        /// Block containing the offending instruction.
        block: BlockId,
        /// Instruction index within the allocated block.
        inst: usize,
        /// Description of the structural problem.
        what: String,
    },
    /// A use may read a location that is not guaranteed to hold the used
    /// temporary's value on some path.
    WrongValue {
        /// Function name.
        func: String,
        /// Block containing the offending instruction.
        block: BlockId,
        /// Instruction index within the allocated block.
        inst: usize,
        /// Description of the read and the missing symbol.
        what: String,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Mismatch { func, block, inst, what } => {
                write!(f, "in {func}, {block} inst {inst}: structural mismatch: {what}")
            }
            CheckError::WrongValue { func, block, inst, what } => {
                write!(f, "in {func}, {block} inst {inst}: {what} on some path")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Location and symbol numbering.
///
/// Locations are physical registers ([`MachineSpec::reg_index`] order)
/// followed by spill slots. Symbols are the original temporaries followed by
/// one symbol per physical register, denoting "the value the original
/// program most recently placed in that register by convention" (entry
/// arguments, explicit moves into argument/return registers, call results),
/// and last the *written* symbol: the location holds some value at all.
struct Universe<'a> {
    spec: &'a MachineSpec,
    nslots: usize,
    ntemps: usize,
}

impl Universe<'_> {
    fn loc_slot(&self, s: SlotId) -> usize {
        self.spec.total_regs() + s.index()
    }

    fn num_locs(&self) -> usize {
        self.spec.total_regs() + self.nslots
    }

    fn sym_temp(&self, t: Temp) -> usize {
        t.index()
    }

    fn sym_phys(&self, p: PhysReg) -> usize {
        self.ntemps + self.spec.reg_index(p)
    }

    fn sym_written(&self) -> usize {
        self.ntemps + self.spec.total_regs()
    }

    fn num_syms(&self) -> usize {
        self.sym_written() + 1
    }
}

/// One symbol set per location.
type State = Vec<BitSet>;

struct Ctx<'a> {
    orig: &'a Function,
    alloc: &'a Function,
    spec: &'a MachineSpec,
    uni: Universe<'a>,
}

impl<'a> Ctx<'a> {
    fn mismatch(&self, block: BlockId, inst: usize, what: String) -> CheckError {
        CheckError::Mismatch { func: self.alloc.name.clone(), block, inst, what }
    }

    fn slot(&self, t: Temp) -> Option<SlotId> {
        self.alloc.spill_slots.get(t.index()).copied().flatten()
    }

    fn temp_desc(&self, t: Temp) -> String {
        match &self.orig.temps.get(t.index()).and_then(|i| i.name.clone()) {
            Some(n) => format!("{t} ({n})"),
            None => t.to_string(),
        }
    }

    fn entry_state(&self) -> State {
        let mut st: State =
            (0..self.uni.num_locs()).map(|_| BitSet::new(self.uni.num_syms())).collect();
        for class in RegClass::ALL {
            for &i in self.spec.arg_regs(class) {
                let p = PhysReg::new(class, i);
                let l = self.spec.reg_index(p);
                st[l].insert(self.uni.sym_phys(p));
                st[l].insert(self.uni.sym_written());
            }
        }
        st
    }

    /// Maps an original defined operand to its symbol, checking it against
    /// the allocated destination register.
    fn def_sym(&self, od: Reg, q: PhysReg, b: BlockId, i: usize) -> Result<usize, CheckError> {
        match od {
            Reg::Temp(t) => {
                if self.orig.temp_class(t) != q.class {
                    return Err(self.mismatch(
                        b,
                        i,
                        format!("{t} of class {} defined into {q}", self.orig.temp_class(t)),
                    ));
                }
                Ok(self.uni.sym_temp(t))
            }
            Reg::Phys(p) => {
                if p != q {
                    return Err(self.mismatch(
                        b,
                        i,
                        format!("fixed definition of {p} rewritten to {q}"),
                    ));
                }
                Ok(self.uni.sym_phys(p))
            }
        }
    }

    /// Checks the uses of one paired instruction against the current state.
    fn check_uses(
        &self,
        oi: &Inst,
        ai: &Inst,
        st: &State,
        b: BlockId,
        i: usize,
        report: bool,
    ) -> Result<(), CheckError> {
        let mut ouses = Vec::new();
        oi.for_each_use(|r| ouses.push(r));
        let mut auses = Vec::new();
        ai.for_each_use(|r| auses.push(r));
        if ouses.len() != auses.len() {
            return Err(self.mismatch(b, i, "operand count changed".into()));
        }
        for (&ou, &au) in ouses.iter().zip(&auses) {
            let q = match au {
                Reg::Phys(p) => p,
                Reg::Temp(t) => {
                    return Err(self.mismatch(
                        b,
                        i,
                        format!("virtual operand {t} survived allocation"),
                    ))
                }
            };
            let (sym, desc) = match ou {
                Reg::Temp(t) => {
                    if self.orig.temp_class(t) != q.class {
                        return Err(self.mismatch(
                            b,
                            i,
                            format!("{t} of class {} read from {q}", self.orig.temp_class(t)),
                        ));
                    }
                    (self.uni.sym_temp(t), self.temp_desc(t))
                }
                Reg::Phys(p) => {
                    if p != q {
                        return Err(self.mismatch(
                            b,
                            i,
                            format!("fixed use of {p} rewritten to {q}"),
                        ));
                    }
                    (self.uni.sym_phys(p), format!("the value of {p}"))
                }
            };
            if report && !st[self.spec.reg_index(q)].contains(sym) {
                return Err(CheckError::WrongValue {
                    func: self.alloc.name.clone(),
                    block: b,
                    inst: i,
                    what: format!("{q} is not guaranteed to hold {desc}"),
                });
            }
        }
        Ok(())
    }

    /// Transfer for one paired (original) instruction.
    fn step_paired(
        &self,
        oi: &Inst,
        ai: &Inst,
        st: &mut State,
        b: BlockId,
        i: usize,
        report: bool,
    ) -> Result<(), CheckError> {
        if std::mem::discriminant(oi) != std::mem::discriminant(ai) {
            return Err(self.mismatch(b, i, "instruction kind changed".into()));
        }
        // Shape checks beyond the discriminant: opcodes, conditions, and the
        // call/return convention operands (which are not rewritable).
        match (oi, ai) {
            (Inst::Op { op: a, .. }, Inst::Op { op: c, .. }) if a != c => {
                return Err(self.mismatch(b, i, "opcode changed".into()));
            }
            (Inst::Branch { cond: a, .. }, Inst::Branch { cond: c, .. }) if a != c => {
                return Err(self.mismatch(b, i, "branch condition changed".into()));
            }
            (
                Inst::Call { callee: c1, arg_regs: a1, ret_regs: r1 },
                Inst::Call { callee: c2, arg_regs: a2, ret_regs: r2 },
            ) if (c1, a1, r1) != (c2, a2, r2) => {
                return Err(self.mismatch(b, i, "call convention operands changed".into()));
            }
            (Inst::Ret { ret_regs: r1 }, Inst::Ret { ret_regs: r2 }) if r1 != r2 => {
                return Err(self.mismatch(b, i, "return registers changed".into()));
            }
            _ => {}
        }
        self.check_uses(oi, ai, st, b, i, report)?;
        // Effects.
        match (oi, ai) {
            (Inst::Mov { dst: od, .. }, Inst::Mov { dst: Reg::Phys(qd), src: Reg::Phys(qs) }) => {
                let d = self.def_sym(*od, *qd, b, i)?;
                // The moved value *is* the redefined symbol's new value, so
                // claims on the source location remain true; stale claims
                // everywhere else die.
                let src_loc = self.spec.reg_index(*qs);
                for (l, set) in st.iter_mut().enumerate() {
                    if l != src_loc {
                        set.remove(d);
                    }
                }
                let mut nd = st[src_loc].clone();
                nd.insert(d);
                nd.insert(self.uni.sym_written());
                st[self.spec.reg_index(*qd)] = nd;
            }
            (Inst::Call { .. }, Inst::Call { ret_regs, .. }) => {
                for class in RegClass::ALL {
                    for p in self.spec.caller_saved(class) {
                        st[self.spec.reg_index(p)].clear();
                    }
                }
                for &r in ret_regs {
                    let s = self.uni.sym_phys(r);
                    for set in st.iter_mut() {
                        set.remove(s);
                    }
                    let l = self.spec.reg_index(r);
                    st[l].clear();
                    st[l].insert(s);
                    st[l].insert(self.uni.sym_written());
                }
            }
            _ => {
                let mut odef = None;
                oi.for_each_def(|r| odef = Some(r));
                let mut adef = None;
                ai.for_each_def(|r| adef = Some(r));
                match (odef, adef) {
                    (None, None) => {}
                    (Some(or), Some(Reg::Phys(q))) => {
                        let d = self.def_sym(or, q, b, i)?;
                        for set in st.iter_mut() {
                            set.remove(d);
                        }
                        let l = self.spec.reg_index(q);
                        st[l].clear();
                        st[l].insert(d);
                        st[l].insert(self.uni.sym_written());
                    }
                    _ => {
                        return Err(self.mismatch(b, i, "definition shape changed".into()));
                    }
                }
            }
        }
        Ok(())
    }

    /// Transfer for one allocator-inserted instruction: pure symbol-set
    /// copies between locations. The source must hold *some* value, even
    /// when no later read needs it.
    fn step_inserted(
        &self,
        ai: &Inst,
        st: &mut State,
        b: BlockId,
        i: usize,
        report: bool,
    ) -> Result<(), CheckError> {
        let (dst, src, src_desc) = match ai {
            Inst::Mov { dst: Reg::Phys(d), src: Reg::Phys(s) } => {
                (self.spec.reg_index(*d), self.spec.reg_index(*s), s.to_string())
            }
            Inst::SpillLoad { dst: Reg::Phys(d), temp } => {
                let slot = self.slot(*temp).ok_or_else(|| {
                    self.mismatch(b, i, format!("spill load of {temp} which has no slot"))
                })?;
                let desc = format!("spill slot {} ({temp})", slot.index());
                (self.spec.reg_index(*d), self.uni.loc_slot(slot), desc)
            }
            Inst::SpillStore { src: Reg::Phys(s), temp } => {
                let slot = self.slot(*temp).ok_or_else(|| {
                    self.mismatch(b, i, format!("spill store of {temp} which has no slot"))
                })?;
                (self.uni.loc_slot(slot), self.spec.reg_index(*s), s.to_string())
            }
            other => {
                return Err(self.mismatch(
                    b,
                    i,
                    format!("unexpected allocator-inserted instruction {other:?}"),
                ));
            }
        };
        if report && !st[src].contains(self.uni.sym_written()) {
            return Err(CheckError::WrongValue {
                func: self.alloc.name.clone(),
                block: b,
                inst: i,
                what: format!("{src_desc} is read without a written value"),
            });
        }
        st[dst] = st[src].clone();
        Ok(())
    }

    /// Runs the whole-block transfer, pairing untagged instructions with the
    /// original block's instructions in order.
    fn step_block(&self, b: BlockId, st: &mut State, report: bool) -> Result<(), CheckError> {
        let appended = b.index() >= self.orig.num_blocks();
        let empty: &[lsra_ir::Ins] = &[];
        let orig_insts = if appended { empty } else { &self.orig.block(b).insts[..] };
        let mut j = 0usize;
        for (i, ins) in self.alloc.block(b).insts.iter().enumerate() {
            if ins.tag.is_spill() {
                self.step_inserted(&ins.inst, st, b, i, report)?;
            } else if appended {
                // Split blocks carry exactly one untagged instruction: the
                // jump to the original successor. It has no operands.
                if !matches!(ins.inst, Inst::Jump { .. }) {
                    return Err(self.mismatch(
                        b,
                        i,
                        "non-jump untagged instruction in split block".into(),
                    ));
                }
            } else {
                let Some(oi) = orig_insts.get(j) else {
                    return Err(self.mismatch(
                        b,
                        i,
                        "more untagged instructions than the original block".into(),
                    ));
                };
                j += 1;
                self.step_paired(&oi.inst, &ins.inst, st, b, i, report)?;
            }
        }
        if j != orig_insts.len() {
            return Err(self.mismatch(
                b,
                self.alloc.block(b).insts.len(),
                format!(
                    "original block has {} instructions, allocated block pairs only {j}",
                    orig_insts.len()
                ),
            ));
        }
        Ok(())
    }
}

/// Symbolically checks one allocated function against its pre-allocation
/// original.
///
/// # Examples
///
/// ```
/// use lsra_core::{BinpackAllocator, RegisterAllocator};
/// use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
///
/// let spec = MachineSpec::small(3, 2);
/// let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
/// let x = b.param(0);
/// let y = b.int_temp("y");
/// b.add(y, x, x);
/// b.ret(Some(y.into()));
/// let orig = b.finish();
/// let mut alloc = orig.clone();
/// BinpackAllocator::default().allocate_function(&mut alloc, &spec);
/// assert!(lsra_checker::check_function(&orig, &alloc, &spec).is_ok());
/// ```
///
/// # Errors
///
/// Returns the first structural mismatch or potentially wrong-valued read
/// found.
///
/// # Panics
///
/// Panics if `alloc` is not marked allocated.
pub fn check_function(
    orig: &Function,
    alloc: &Function,
    spec: &MachineSpec,
) -> Result<(), CheckError> {
    assert!(alloc.allocated, "symbolic check requires an allocated function");
    if alloc.num_blocks() < orig.num_blocks() {
        return Err(CheckError::Mismatch {
            func: alloc.name.clone(),
            block: BlockId(0),
            inst: 0,
            what: "allocated function has fewer blocks than the original".into(),
        });
    }
    let uni = Universe {
        spec,
        nslots: alloc.num_slots as usize,
        ntemps: orig.num_temps().max(alloc.num_temps()),
    };
    let ctx = Ctx { orig, alloc, spec, uni };
    let cfg = Cfg::compute(alloc);
    let visit: Vec<BlockId> = alloc.block_ids().filter(|&b| cfg.is_reachable(b)).collect();
    let mut all = BitSet::new(ctx.uni.num_syms());
    all.fill();
    let top: State = vec![all; ctx.uni.num_locs()];
    // Optimistic fixpoint: run effects to convergence first (spurious
    // optimism can only over-fill sets, never report false errors once
    // stable), then one reporting pass over the stable IN states.
    let sol =
        solve_must(&cfg, &visit, &ctx.entry_state(), &top, |b, st| ctx.step_block(b, st, false))?;
    for &b in &visit {
        let mut st = sol.ins[b.index()].clone().expect("visited block has an IN state");
        ctx.step_block(b, &mut st, true)?;
    }
    Ok(())
}

/// Symbolically checks every function of an allocated module against the
/// pre-allocation original. Run this *before* `remove_identity_moves`.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_module(orig: &Module, alloc: &Module, spec: &MachineSpec) -> Result<(), CheckError> {
    if orig.funcs.len() != alloc.funcs.len() {
        return Err(CheckError::Mismatch {
            func: alloc.name.clone(),
            block: BlockId(0),
            inst: 0,
            what: "function count changed during allocation".into(),
        });
    }
    for (of, af) in orig.funcs.iter().zip(&alloc.funcs) {
        check_function(of, af, spec)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, Ins, SpillTag};

    fn spec() -> MachineSpec {
        MachineSpec::alpha_like()
    }

    /// Hand-builds a diamond whose original computes `t0 + t1` at the join,
    /// with `t0 -> r8`, `t1 -> r9`, `t2 -> r8`.
    fn diamond() -> (Function, Function) {
        let mut orig = Function::new("d");
        let t0 = orig.new_temp(RegClass::Int, Some("a".into()));
        let t1 = orig.new_temp(RegClass::Int, Some("b".into()));
        let t2 = orig.new_temp(RegClass::Int, Some("c".into()));
        let b0 = orig.add_block();
        let l = orig.add_block();
        let r = orig.add_block();
        let j = orig.add_block();
        let t = Reg::Temp;
        orig.block_mut(b0).insts.extend([
            Ins::new(Inst::MovI { dst: t(t0), imm: 1 }),
            Ins::new(Inst::MovI { dst: t(t1), imm: 2 }),
            Ins::new(Inst::Branch { cond: Cond::Ne, src: t(t0), then_tgt: l, else_tgt: r }),
        ]);
        orig.block_mut(l).insts.push(Ins::new(Inst::Jump { target: j }));
        orig.block_mut(r).insts.push(Ins::new(Inst::Jump { target: j }));
        orig.block_mut(j).insts.extend([
            Ins::new(Inst::Op { op: lsra_ir::OpCode::Add, dst: t(t2), srcs: vec![t(t0), t(t1)] }),
            Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);

        let mut alloc = orig.clone();
        let r8: Reg = PhysReg::int(8).into();
        let r9: Reg = PhysReg::int(9).into();
        for blk in &mut alloc.blocks {
            for ins in &mut blk.insts {
                let rewrite = |x: &mut Reg| {
                    if let Reg::Temp(tt) = *x {
                        *x = if tt == t1 { r9 } else { r8 };
                    }
                };
                ins.inst.for_each_use_mut(rewrite);
                ins.inst.for_each_def_mut(rewrite);
            }
        }
        alloc.allocated = true;
        (orig, alloc)
    }

    #[test]
    fn accepts_clean_diamond() {
        let (orig, alloc) = diamond();
        alloc.validate().unwrap();
        assert_eq!(check_function(&orig, &alloc, &spec()), Ok(()));
    }

    #[test]
    fn rejects_swapped_resolution_pair_whose_registers_all_hold_values() {
        let (orig, mut alloc) = diamond();
        // Corrupt one edge: resolution-style moves on the left arm swap the
        // contents of r8 and r9 through r10. Every involved register still
        // holds a written value, but the join now reads t0's value from r9
        // and t1's from r8 on that path.
        let r8: Reg = PhysReg::int(8).into();
        let r9: Reg = PhysReg::int(9).into();
        let r10: Reg = PhysReg::int(10).into();
        let l = BlockId(1);
        let swap = [
            Ins::tagged(Inst::Mov { dst: r10, src: r8 }, SpillTag::ResolveMove),
            Ins::tagged(Inst::Mov { dst: r8, src: r9 }, SpillTag::ResolveMove),
            Ins::tagged(Inst::Mov { dst: r9, src: r10 }, SpillTag::ResolveMove),
        ];
        for (k, ins) in swap.into_iter().enumerate() {
            alloc.block_mut(l).insts.insert(k, ins);
        }
        alloc.validate().unwrap();
        let e = check_function(&orig, &alloc, &spec()).unwrap_err();
        match &e {
            CheckError::WrongValue { block, what, .. } => {
                assert_eq!(*block, BlockId(3), "{e}");
                assert!(what.contains("t0") || what.contains("t1"), "{e}");
            }
            other => panic!("expected WrongValue, got {other:?}"),
        }
    }

    #[test]
    fn transfers_symbols_through_spill_slots() {
        // t0 is stored to its slot, clobbered, reloaded, then used.
        let s = spec();
        let mut orig = Function::new("spill");
        let t0 = orig.new_temp(RegClass::Int, None);
        let t1 = orig.new_temp(RegClass::Int, None);
        let b0 = orig.add_block();
        let t = Reg::Temp;
        orig.block_mut(b0).insts.extend([
            Ins::new(Inst::MovI { dst: t(t0), imm: 7 }),
            Ins::new(Inst::MovI { dst: t(t1), imm: 8 }),
            Ins::new(Inst::Op { op: lsra_ir::OpCode::Add, dst: t(t1), srcs: vec![t(t0), t(t1)] }),
            Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        let mut alloc = orig.clone();
        let _ = alloc.slot_for(t0);
        let r8: Reg = PhysReg::int(8).into();
        let r9: Reg = PhysReg::int(9).into();
        alloc.block_mut(b0).insts.clear();
        alloc.block_mut(b0).insts.extend([
            Ins::new(Inst::MovI { dst: r8, imm: 7 }),
            Ins::tagged(Inst::SpillStore { src: r8, temp: t0 }, SpillTag::EvictStore),
            Ins::new(Inst::MovI { dst: r8, imm: 8 }),
            Ins::tagged(Inst::SpillLoad { dst: r9, temp: t0 }, SpillTag::EvictLoad),
            Ins::new(Inst::Op { op: lsra_ir::OpCode::Add, dst: r8, srcs: vec![r9, r8] }),
            Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        alloc.allocated = true;
        alloc.validate().unwrap();
        assert_eq!(check_function(&orig, &alloc, &s), Ok(()));

        // Reloading into the *wrong* position of the add is caught.
        let mut bad = alloc.clone();
        bad.block_mut(b0).insts[4] =
            Ins::new(Inst::Op { op: lsra_ir::OpCode::Add, dst: r8, srcs: vec![r8, r9] });
        let e = check_function(&orig, &bad, &s).unwrap_err();
        assert!(matches!(e, CheckError::WrongValue { .. }), "{e}");
    }

    #[test]
    fn rejects_broken_pairing() {
        let (orig, mut alloc) = diamond();
        // Delete an untagged original instruction from the allocation.
        alloc.block_mut(BlockId(0)).insts.remove(1);
        let e = check_function(&orig, &alloc, &spec()).unwrap_err();
        assert!(matches!(e, CheckError::Mismatch { .. }), "{e}");
    }

    #[test]
    fn call_redefines_return_symbols_and_clobbers_caller_saved() {
        let s = spec();
        let mut orig = Function::new("call");
        let t0 = orig.new_temp(RegClass::Int, None);
        let b0 = orig.add_block();
        let ret0 = s.ret_reg(RegClass::Int);
        let t = Reg::Temp;
        orig.block_mut(b0).insts.extend([
            Ins::new(Inst::Call {
                callee: lsra_ir::Callee::Ext(lsra_ir::ExtFn::GetChar),
                arg_regs: vec![],
                ret_regs: vec![ret0],
            }),
            Ins::new(Inst::Mov { dst: t(t0), src: Reg::Phys(ret0) }),
            Ins::new(Inst::Mov { dst: Reg::Phys(ret0), src: t(t0) }),
            Ins::new(Inst::Ret { ret_regs: vec![ret0] }),
        ]);
        let mut alloc = orig.clone();
        // t0 lives in callee-saved r20; the identity move back is fine.
        let r20: Reg = PhysReg::int(20).into();
        for ins in &mut alloc.block_mut(b0).insts {
            ins.inst.for_each_use_mut(|x| {
                if matches!(x, Reg::Temp(_)) {
                    *x = r20;
                }
            });
            ins.inst.for_each_def_mut(|x| {
                if matches!(x, Reg::Temp(_)) {
                    *x = r20;
                }
            });
        }
        alloc.allocated = true;
        assert_eq!(check_function(&orig, &alloc, &s), Ok(()));

        // Keeping t0 in caller-saved r10 and inserting a *second* call
        // between the two moves loses the value.
        let call = Ins::new(Inst::Call {
            callee: lsra_ir::Callee::Ext(lsra_ir::ExtFn::GetChar),
            arg_regs: vec![],
            ret_regs: vec![ret0],
        });
        let mut orig2 = orig.clone();
        orig2.block_mut(b0).insts.insert(2, call.clone());
        let mut alloc2 = orig2.clone();
        let r10: Reg = PhysReg::int(10).into();
        for ins in &mut alloc2.block_mut(b0).insts {
            ins.inst.for_each_use_mut(|x| {
                if matches!(x, Reg::Temp(_)) {
                    *x = r10;
                }
            });
            ins.inst.for_each_def_mut(|x| {
                if matches!(x, Reg::Temp(_)) {
                    *x = r10;
                }
            });
        }
        alloc2.allocated = true;
        let e = check_function(&orig2, &alloc2, &s).unwrap_err();
        assert!(matches!(e, CheckError::WrongValue { .. }), "{e}");
    }

    /// Asserts that `e` is a `WrongValue` at `(block, inst)` whose text
    /// names `what`.
    fn assert_wrong_value_at(e: CheckError, block: BlockId, inst: usize, what: &str) {
        match &e {
            CheckError::WrongValue { block: b, inst: i, what: w, .. } => {
                assert_eq!((*b, *i), (block, inst), "{e}");
                assert!(w.contains(what), "{e}");
            }
            other => panic!("expected WrongValue, got {other:?}"),
        }
    }

    /// A one-block function over one integer temporary `t0`, which has a
    /// spill slot, with the given original and allocated bodies.
    fn one_block(orig: Vec<Ins>, alloc: Vec<Ins>) -> (Function, Function) {
        let mut f = Function::new("line");
        f.new_temp(RegClass::Int, None);
        let b0 = f.add_block();
        let mut a = f.clone();
        f.block_mut(b0).insts = orig;
        let _ = a.slot_for(Temp(0));
        a.block_mut(b0).insts = alloc;
        a.allocated = true;
        (f, a)
    }

    /// `t0 = 7; ret`, allocated as `r8 = 7`, `extra`, `ret`.
    fn straight_line(extra: &[Ins]) -> (Function, Function) {
        let ret = Ins::new(Inst::Ret { ret_regs: vec![] });
        let def = |r| Ins::new(Inst::MovI { dst: r, imm: 7 });
        let mut alloc = vec![def(PhysReg::int(8).into())];
        alloc.extend_from_slice(extra);
        alloc.push(ret.clone());
        one_block(vec![def(Reg::Temp(Temp(0))), ret], alloc)
    }

    #[test]
    fn accepts_straight_line_code() {
        let (r8, r9, r10): (Reg, Reg, Reg) =
            (PhysReg::int(8).into(), PhysReg::int(9).into(), PhysReg::int(10).into());
        let (orig, alloc) = straight_line(&[
            Ins::tagged(Inst::SpillStore { src: r8, temp: Temp(0) }, SpillTag::EvictStore),
            Ins::tagged(Inst::SpillLoad { dst: r9, temp: Temp(0) }, SpillTag::EvictLoad),
            Ins::tagged(Inst::Mov { dst: r10, src: r8 }, SpillTag::ResolveMove),
        ]);
        alloc.validate().unwrap();
        assert_eq!(check_function(&orig, &alloc, &spec()), Ok(()));
    }

    #[test]
    fn rejects_tagged_move_from_a_register_never_written() {
        // On the left arm, a dead resolution move reads r12, which nothing
        // ever writes: no use of a temporary is wrong, but the copy reads
        // garbage.
        let (orig, mut alloc) = diamond();
        let mov = Inst::Mov { dst: PhysReg::int(11).into(), src: PhysReg::int(12).into() };
        alloc.block_mut(BlockId(1)).insts.insert(0, Ins::tagged(mov, SpillTag::ResolveMove));
        alloc.validate().unwrap();
        let e = check_function(&orig, &alloc, &spec()).unwrap_err();
        assert_wrong_value_at(e, BlockId(1), 0, "r12 is read without a written value");
    }

    #[test]
    fn rejects_read_written_on_one_path_only() {
        // r12 is written on the left arm only; a resolution move at the join
        // reads it.
        let (orig, mut alloc) = diamond();
        let r12: Reg = PhysReg::int(12).into();
        let left = Inst::Mov { dst: r12, src: PhysReg::int(8).into() };
        alloc.block_mut(BlockId(1)).insts.insert(0, Ins::tagged(left, SpillTag::ResolveMove));
        let join = Inst::Mov { dst: PhysReg::int(11).into(), src: r12 };
        alloc.block_mut(BlockId(3)).insts.insert(0, Ins::tagged(join, SpillTag::ResolveMove));
        alloc.validate().unwrap();
        let e = check_function(&orig, &alloc, &spec()).unwrap_err();
        assert_wrong_value_at(e, BlockId(3), 0, "r12 is read without a written value");
    }

    #[test]
    fn rejects_dead_reload_of_a_slot_never_stored() {
        let load = Inst::SpillLoad { dst: PhysReg::int(9).into(), temp: Temp(0) };
        let (orig, alloc) = straight_line(&[Ins::tagged(load, SpillTag::EvictLoad)]);
        alloc.validate().unwrap();
        let e = check_function(&orig, &alloc, &spec()).unwrap_err();
        assert_wrong_value_at(e, BlockId(0), 1, "spill slot 0 (t0) is read without a written");
    }

    #[test]
    fn rejects_spill_store_of_a_caller_saved_register_after_a_call() {
        // t0 sits in caller-saved r8; a call clobbers it before the store.
        let call = Ins::new(Inst::Call {
            callee: lsra_ir::Callee::Ext(lsra_ir::ExtFn::GetChar),
            arg_regs: vec![],
            ret_regs: vec![spec().ret_reg(RegClass::Int)],
        });
        let r8: Reg = PhysReg::int(8).into();
        let ret = Ins::new(Inst::Ret { ret_regs: vec![] });
        let (orig, alloc) = one_block(
            vec![
                Ins::new(Inst::MovI { dst: Reg::Temp(Temp(0)), imm: 7 }),
                call.clone(),
                ret.clone(),
            ],
            vec![
                Ins::new(Inst::MovI { dst: r8, imm: 7 }),
                call,
                Ins::tagged(Inst::SpillStore { src: r8, temp: Temp(0) }, SpillTag::EvictStore),
                ret,
            ],
        );
        alloc.validate().unwrap();
        let e = check_function(&orig, &alloc, &spec()).unwrap_err();
        assert_wrong_value_at(e, BlockId(0), 2, "r8 is read without a written value");
    }

    #[test]
    fn reports_spill_code_without_a_slot() {
        // `Function::validate` does not check slot assignment, so a
        // slotless spill in allocator output must be an error, not a panic.
        let r8: Reg = PhysReg::int(8).into();
        for (inst, tag) in [
            (Inst::SpillLoad { dst: r8, temp: Temp(0) }, SpillTag::EvictLoad),
            (Inst::SpillStore { src: r8, temp: Temp(0) }, SpillTag::EvictStore),
            (Inst::SpillLoad { dst: r8, temp: Temp(5) }, SpillTag::EvictLoad),
        ] {
            let (orig, mut alloc) = straight_line(&[Ins::tagged(inst, tag)]);
            alloc.spill_slots[0] = None;
            alloc.num_slots = 0;
            match check_function(&orig, &alloc, &spec()).unwrap_err() {
                CheckError::Mismatch { block, inst, what, .. } => {
                    assert_eq!((block, inst), (BlockId(0), 1));
                    assert!(what.contains("which has no slot"), "{what}");
                }
                other => panic!("expected Mismatch, got {other:?}"),
            }
        }
    }
}
