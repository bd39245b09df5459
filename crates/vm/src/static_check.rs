//! A static verifier for register-allocated code.
//!
//! Complements differential execution: instead of running the program, it
//! propagates the set of *valid* physical registers (and written spill
//! slots) forward through the CFG — calls invalidate caller-saved
//! registers, definitions validate their destinations, joins intersect —
//! and reports any instruction that can read a register whose value may
//! have been destroyed on some path. Because it covers *all* paths, it can
//! catch allocation bugs that a particular test input never executes.

use lsra_analysis::{solve_forward_must, BitSet, Order};
use lsra_ir::{BlockId, Function, Inst, MachineSpec, Module, PhysReg, Reg, RegClass, Temp};

/// A potential invalid read found by [`check_function`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticCheckError {
    /// Function name.
    pub func: String,
    /// Block containing the offending instruction.
    pub block: BlockId,
    /// Index of the instruction within the block.
    pub inst: usize,
    /// What may be read invalid.
    pub what: String,
}

impl std::fmt::Display for StaticCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "in {}, {} inst {}: {} may be read without a valid value on some path",
            self.func, self.block, self.inst, self.what
        )
    }
}

impl std::error::Error for StaticCheckError {}

/// Checks one allocated function.
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
/// let mut f = b.finish();
/// BinpackAllocator::default().allocate_function(&mut f, &spec);
/// assert!(lsra_vm::check_function(&f, &spec).is_ok());
/// ```
///
/// # Errors
///
/// Returns the first potentially-invalid read found, or the first spill
/// instruction whose temporary has no spill slot.
///
/// # Panics
///
/// Panics if the function is not allocated.
pub fn check_function(f: &Function, spec: &MachineSpec) -> Result<(), StaticCheckError> {
    assert!(f.allocated, "static check requires an allocated function");
    // Locations: the registers in `MachineSpec::reg_index` order, then the
    // spill slots.
    let nregs = spec.total_regs();
    let universe = nregs + f.num_slots as usize;
    let error = |block: BlockId, inst: usize, what: String| StaticCheckError {
        func: f.name.clone(),
        block,
        inst,
        what,
    };
    // The slot location a spill instruction touches.
    let slot = |b: BlockId, i: usize, temp: Temp| -> Result<usize, StaticCheckError> {
        match f.spill_slots.get(temp.index()).copied().flatten() {
            Some(s) => Ok(nregs + s.index()),
            None => Err(error(b, i, format!("spill slot of {temp} (none assigned)"))),
        }
    };
    let stored_slot = |b: BlockId, i: usize, inst: &Inst| match inst {
        Inst::SpillStore { temp, .. } => slot(b, i, *temp).map(Some),
        _ => Ok(None),
    };

    // Unreachable blocks never execute (and the allocators, like the
    // paper's, see empty liveness there): skip them.
    let order = Order::compute(f);
    let reachable = || f.block_ids().filter(|&b| order.is_reachable(b));

    // A gen/kill problem: definitions, call results and spill stores
    // validate their locations (gen); a call clobbers the caller-saved
    // registers (kill) before its results are validated. Spill code
    // without a slot is reported here, before any read.
    let nb = f.num_blocks();
    let mut gen = vec![BitSet::new(universe); nb];
    let mut kill = vec![BitSet::new(universe); nb];
    for b in reachable() {
        let (gen, kill) = (&mut gen[b.index()], &mut kill[b.index()]);
        for (i, ins) in f.block(b).insts.iter().enumerate() {
            if let Inst::SpillLoad { temp, .. } = ins.inst {
                slot(b, i, temp)?;
            }
            let stored = stored_slot(b, i, &ins.inst)?;
            apply(spec, &ins.inst, stored, gen, |l| {
                kill.insert(l);
            });
        }
    }
    // Entry: argument registers only (the VM marks exactly the caller-set
    // args valid; assuming all arg registers is the conservative upper
    // bound a checker without call-site knowledge can use).
    let mut entry_in = BitSet::new(universe);
    for class in RegClass::ALL {
        for &i in spec.arg_regs(class) {
            entry_in.insert(spec.reg_index(PhysReg::new(class, i)));
        }
    }
    let sol = solve_forward_must(f, universe, &gen, &kill, &entry_in, &order);

    // Reporting pass over the stable block entry states.
    for b in reachable() {
        let mut valid = sol.must_in[b.index()].clone();
        for (i, ins) in f.block(b).insts.iter().enumerate() {
            let mut bad: Option<String> = None;
            let mut require = |idx: usize, what: String| {
                if bad.is_none() && !valid.contains(idx) {
                    bad = Some(what);
                }
            };
            match &ins.inst {
                Inst::SpillLoad { temp, .. } => {
                    let l = slot(b, i, *temp)?;
                    require(l, format!("spill slot {} ({temp})", l - nregs));
                }
                other => other.for_each_use(|r| {
                    if let Reg::Phys(p) = r {
                        require(spec.reg_index(p), p.to_string());
                    }
                }),
            }
            if let Some(what) = bad {
                return Err(error(b, i, what));
            }
            apply(spec, &ins.inst, stored_slot(b, i, &ins.inst)?, &mut valid, |_| {});
        }
    }
    Ok(())
}

/// Applies one instruction to the set of valid locations: a call clobbers
/// the caller-saved registers (each also passed to `clobbered`), then its
/// definitions and, for a spill store, the slot location `stored` become
/// valid.
fn apply(
    spec: &MachineSpec,
    inst: &Inst,
    stored: Option<usize>,
    valid: &mut BitSet,
    mut clobbered: impl FnMut(usize),
) {
    if inst.is_call() {
        for class in RegClass::ALL {
            for p in spec.caller_saved(class) {
                valid.remove(spec.reg_index(p));
                clobbered(spec.reg_index(p));
            }
        }
    }
    inst.for_each_def(|r| {
        if let Reg::Phys(p) = r {
            valid.insert(spec.reg_index(p));
        }
    });
    if let Some(l) = stored {
        valid.insert(l);
    }
}

/// Checks every allocated function of a module.
///
/// Run this *before* deleting coalesced identity moves: an `rX = rX` move
/// both requires `rX` valid and re-establishes it for the checker, so it
/// proves the deletion safe — checking after the deletion can report
/// spurious errors at points the vanished move used to cover.
///
/// # Errors
///
/// Returns the first potentially-invalid read found.
pub fn check_module(m: &Module, spec: &MachineSpec) -> Result<(), StaticCheckError> {
    for f in &m.funcs {
        check_function(f, spec)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Callee, ExtFn, Ins, SpillTag};

    fn spec() -> MachineSpec {
        MachineSpec::alpha_like()
    }

    #[test]
    fn accepts_straight_line_code() {
        let mut f = Function::new("ok");
        let b0 = f.add_block();
        let r1: Reg = PhysReg::int(1).into();
        let r2: Reg = PhysReg::int(2).into();
        f.block_mut(b0).insts.extend([
            Ins::new(Inst::MovI { dst: r1, imm: 1 }),
            Ins::new(Inst::Mov { dst: r2, src: r1 }),
            Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        assert_eq!(check_function(&f, &spec()), Ok(()));
    }

    #[test]
    fn rejects_value_kept_across_call_in_caller_saved() {
        let s = spec();
        let mut f = Function::new("bad");
        let b0 = f.add_block();
        let cs: Reg = PhysReg::int(10).into(); // caller-saved
        f.block_mut(b0).insts.extend([
            Ins::new(Inst::MovI { dst: cs, imm: 1 }),
            Ins::new(Inst::Call {
                callee: Callee::Ext(ExtFn::GetChar),
                arg_regs: vec![],
                ret_regs: vec![s.ret_reg(RegClass::Int)],
            }),
            Ins::new(Inst::Mov { dst: PhysReg::int(20).into(), src: cs }),
            Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        let e = check_function(&f, &s).unwrap_err();
        assert_eq!(e.inst, 2);
        assert!(e.what.contains("r10"), "{e}");
    }

    #[test]
    fn accepts_callee_saved_across_call() {
        let s = spec();
        let mut f = Function::new("ok");
        let b0 = f.add_block();
        let callee: Reg = PhysReg::int(20).into();
        f.block_mut(b0).insts.extend([
            Ins::new(Inst::MovI { dst: callee, imm: 1 }),
            Ins::new(Inst::Call {
                callee: Callee::Ext(ExtFn::GetChar),
                arg_regs: vec![],
                ret_regs: vec![s.ret_reg(RegClass::Int)],
            }),
            Ins::new(Inst::Mov { dst: PhysReg::int(21).into(), src: callee }),
            Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        assert_eq!(check_function(&f, &s), Ok(()));
    }

    #[test]
    fn rejects_read_valid_on_one_path_only() {
        // Diamond: r5 defined on the left path only; the join reads it.
        let s = spec();
        let mut f = Function::new("onepath");
        let t = f.new_temp(RegClass::Int, None);
        let _ = t;
        let b0 = f.add_block();
        let l = f.add_block();
        let r = f.add_block();
        let j = f.add_block();
        // r8/r9 are not argument registers (those are valid at entry).
        let r5: Reg = PhysReg::int(8).into();
        let r6: Reg = PhysReg::int(9).into();
        f.block_mut(b0).insts.extend([
            Ins::new(Inst::MovI { dst: r6, imm: 0 }),
            Ins::new(Inst::Branch { cond: lsra_ir::Cond::Ne, src: r6, then_tgt: l, else_tgt: r }),
        ]);
        f.block_mut(l)
            .insts
            .extend([Ins::new(Inst::MovI { dst: r5, imm: 1 }), Ins::new(Inst::Jump { target: j })]);
        f.block_mut(r).insts.push(Ins::new(Inst::Jump { target: j }));
        f.block_mut(j).insts.extend([
            Ins::new(Inst::Mov { dst: r6, src: r5 }),
            Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        let e = check_function(&f, &s).unwrap_err();
        assert_eq!(e.block, j);
        assert!(e.what.contains("r8"), "{e}");
    }

    #[test]
    fn reports_spill_code_without_a_slot() {
        // `Function::validate` does not check slot assignment, so a
        // slotless spill in allocator output must be an error, not a panic.
        let s = spec();
        let r1: Reg = PhysReg::int(1).into();
        for (inst, tag) in [
            (Inst::SpillLoad { dst: r1, temp: Temp(0) }, SpillTag::EvictLoad),
            (Inst::SpillStore { src: r1, temp: Temp(0) }, SpillTag::EvictStore),
        ] {
            let mut f = Function::new("slotless");
            f.new_temp(RegClass::Int, None);
            let b0 = f.add_block();
            f.block_mut(b0).insts.extend([
                Ins::new(Inst::MovI { dst: r1, imm: 1 }),
                Ins::tagged(inst, tag),
                Ins::new(Inst::Ret { ret_regs: vec![] }),
            ]);
            f.allocated = true;
            let e = check_function(&f, &s).unwrap_err();
            assert_eq!((e.block, e.inst), (b0, 1));
            assert!(e.what.contains("t0") && e.what.contains("none assigned"), "{e}");
        }
    }

    #[test]
    fn tracks_spill_slots() {
        let s = spec();
        let mut f = Function::new("slots");
        let t = f.new_temp(RegClass::Int, None);
        f.slot_for(t);
        let b0 = f.add_block();
        let r1: Reg = PhysReg::int(1).into();
        f.block_mut(b0).insts.extend([
            Ins::new(Inst::SpillLoad { dst: r1, temp: t }), // never stored!
            Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        let e = check_function(&f, &s).unwrap_err();
        assert!(e.what.contains("spill slot"), "{e}");
    }
}
