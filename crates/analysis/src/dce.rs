//! Dead-code elimination.
//!
//! The paper's methodology runs DCE before register allocation in both
//! compiler configurations (§3: "register allocation is preceded by dead
//! code elimination"). This pass removes instructions that define a
//! temporary that is never subsequently read, iterating until no more can
//! be removed. Instructions with side effects (stores, calls, terminators,
//! spill code, and writes to physical registers) are never removed.

use lsra_ir::{Function, Inst, Reg};

use crate::cfg::Cfg;
use crate::liveness::Liveness;

fn has_side_effects(inst: &Inst) -> bool {
    match inst {
        Inst::Store { .. } | Inst::SpillStore { .. } | Inst::Call { .. } => true,
        Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. } => true,
        Inst::Op { op, .. } => {
            // Division can trap; keep it (like a real compiler would without
            // proving the divisor non-zero).
            matches!(op, lsra_ir::OpCode::Div | lsra_ir::OpCode::Rem)
        }
        _ => false,
    }
}

/// Removes dead instructions from `f`; returns the number removed.
///
/// An instruction is dead if it has no side effects and its only definition
/// is a temporary that is dead immediately afterwards.
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    let cfg = Cfg::compute(f); // terminators are never dead
    let mut removed_total = 0;
    loop {
        let live = Liveness::compute_on(f, &cfg, 1);
        let mut removed = 0;
        for b in f.block_ids().collect::<Vec<_>>() {
            // Backward scan with a local live set (block-local temps are not
            // in the global sets, so track everything locally).
            let nt = f.num_temps();
            let mut local_live = vec![false; nt];
            for t in live.live_out_temps(b) {
                local_live[t.index()] = true;
            }
            let block = f.block_mut(b);
            let mut keep = vec![true; block.insts.len()];
            for (i, ins) in block.insts.iter().enumerate().rev() {
                let mut defs_temp: Option<lsra_ir::Temp> = None;
                let mut defs_phys = false;
                ins.inst.for_each_def(|r| match r {
                    Reg::Temp(t) => defs_temp = Some(t),
                    Reg::Phys(_) => defs_phys = true,
                });
                let dead = !has_side_effects(&ins.inst)
                    && !defs_phys
                    && defs_temp.is_some_and(|t| !local_live[t.index()]);
                if dead {
                    keep[i] = false;
                    removed += 1;
                    continue; // do not update liveness with its uses
                }
                if let Some(t) = defs_temp {
                    local_live[t.index()] = false;
                }
                ins.inst.for_each_use(|r| {
                    if let Reg::Temp(t) = r {
                        local_live[t.index()] = true;
                    }
                });
            }
            if removed > 0 {
                let mut it = keep.iter();
                block.insts.retain(|_| *it.next().unwrap());
            }
        }
        removed_total += removed;
        if removed == 0 {
            return removed_total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{FunctionBuilder, MachineSpec};

    #[test]
    fn removes_dead_chain() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "dc", &[]);
        let a = b.int_temp("a");
        let c = b.int_temp("c");
        let d = b.int_temp("d");
        b.movi(a, 1); // feeds only dead code
        b.add(c, a, a); // dead
        b.movi(d, 5); // live (returned)
        let before = {
            // also a completely dead chain rooted at `c`
            b.ret(Some(d.into()));
            b.finish()
        };
        let mut f = before;
        let n = f.num_insts();
        let removed = eliminate_dead_code(&mut f);
        assert_eq!(removed, 2, "movi a and add c are dead (transitively)");
        assert_eq!(f.num_insts(), n - 2);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn keeps_side_effects() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "se", &[]);
        let a = b.int_temp("a");
        let q = b.int_temp("q");
        b.movi(a, 10);
        b.op2(lsra_ir::OpCode::Div, q, a, a); // q dead but div may trap
        b.store(a, a, 0); // store has side effects
        b.ret(None);
        let mut f = b.finish();
        let removed = eliminate_dead_code(&mut f);
        assert_eq!(removed, 0);
    }

    #[test]
    fn keeps_phys_defs() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "p", &[]);
        let a = b.int_temp("a");
        b.movi(a, 3);
        b.ret(Some(a.into())); // emits mov r0 <- a
        let mut f = b.finish();
        assert_eq!(eliminate_dead_code(&mut f), 0, "the move into r0 must stay");
    }
}
