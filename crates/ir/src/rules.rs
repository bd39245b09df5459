//! The IR's well-formedness rules, written once.
//!
//! One walk checks a function's block shapes, its jump and branch targets
//! and its operands ([`Function::for_each_finding`]); the module walk adds
//! the module rules, a call to a function the module lacks and a missing
//! entry ([`Module::for_each_finding`]). Each [`Finding`] has one of three
//! [`FindingKind`]s and knows nothing of lint codes. `validate` stops at the
//! first finding and allocates nothing on valid input; the input lints
//! (`lsra-lint`'s L003/L005/L006) report every finding.

use std::ops::ControlFlow;

use crate::block::BlockId;
use crate::function::{Function, ValidateError};
use crate::inst::{Callee, Inst, OpCode};
use crate::module::Module;
use crate::reg::{Reg, RegClass, Temp};

/// Which rule a [`Finding`] breaks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// A function without blocks, or a block that is empty, unterminated,
    /// or has a terminator before its end.
    MalformedBlock,
    /// A jump or branch to a block, or a call to a function, that does not
    /// exist; or a module whose entry function does not exist.
    BadTarget,
    /// An operand of the wrong register class, a temporary the function
    /// does not declare, a wrong source count, or a virtual operand in an
    /// allocated function.
    Operand,
}

/// One broken rule, at a function, block and instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding<'a> {
    /// The function, or `<module>` for the missing entry.
    pub func: &'a str,
    /// The rule broken.
    pub kind: FindingKind,
    /// The block, unless the finding is about a whole function or module.
    pub block: Option<BlockId>,
    /// The instruction within `block`, unless the finding is about a whole
    /// block.
    pub inst: Option<usize>,
    /// Human-readable description.
    pub msg: String,
}

impl From<Finding<'_>> for ValidateError {
    /// A finding without a block or instruction points at block 0 or
    /// instruction 0.
    fn from(f: Finding<'_>) -> Self {
        ValidateError {
            func: f.func.to_string(),
            block: f.block.unwrap_or(BlockId(0)),
            inst: f.inst.unwrap_or(0),
            msg: f.msg,
        }
    }
}

impl Function {
    /// Checks structural and type well-formedness.
    ///
    /// # Errors
    ///
    /// Returns the first finding of [`Function::for_each_finding`] as a
    /// [`ValidateError`].
    pub fn validate(&self) -> Result<(), ValidateError> {
        self.for_each_finding(ControlFlow::Break).break_value().map_or(Ok(()), |f| Err(f.into()))
    }

    /// Hands every rule the function breaks to `sink`, in block and
    /// instruction order, until `sink` breaks. Calls are not checked: a
    /// function alone does not know its module's functions.
    pub fn for_each_finding<'a, B>(
        &'a self,
        mut sink: impl FnMut(Finding<'a>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        walk(self, None, &mut sink)
    }
}

impl Module {
    /// Validates every function in the module, and that every `Call` names
    /// a function that exists and the entry function exists.
    ///
    /// # Errors
    ///
    /// Returns the first finding of [`Module::for_each_finding`] as a
    /// [`ValidateError`].
    pub fn validate(&self) -> Result<(), ValidateError> {
        let walk = self.for_each_finding(|_, f| ControlFlow::Break(f));
        walk.break_value().map_or(Ok(()), |f| Err(f.into()))
    }

    /// [`Function::for_each_finding`] over every function in order, with
    /// calls checked against the module, then the missing entry. `sink`
    /// gets the function's index, or `None` for the module rule.
    pub fn for_each_finding<'a, B>(
        &'a self,
        mut sink: impl FnMut(Option<usize>, Finding<'a>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let funcs = self.funcs.len();
        for (i, f) in self.funcs.iter().enumerate() {
            walk(f, Some(funcs), &mut |finding| sink(Some(i), finding))?;
        }
        if self.entry.index() >= funcs {
            let msg = format!("entry function @{} does not exist", self.entry.0);
            let kind = FindingKind::BadTarget;
            sink(None, Finding { func: "<module>", kind, block: None, inst: None, msg })?;
        }
        ControlFlow::Continue(())
    }
}

/// The one walk. `funcs` is the module's function count, when the function
/// is walked as part of a module.
/// The finding for `op` given `got` sources, unless that is its arity. The
/// reader words a source list too long to store the same way.
pub(crate) fn arity_finding(op: OpCode, got: usize) -> Option<String> {
    let want = op.arity();
    (got != want).then(|| format!("{} expects {want} sources, got {got}", op.mnemonic()))
}

fn walk<'a, B>(
    f: &'a Function,
    funcs: Option<usize>,
    sink: &mut impl FnMut(Finding<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    use FindingKind::{BadTarget, MalformedBlock, Operand};
    let mut report =
        |kind, block, inst, msg: String| sink(Finding { func: &f.name, kind, block, inst, msg });
    if f.blocks.is_empty() {
        return report(MalformedBlock, None, None, "function has no blocks".into());
    }
    // A temp's class, or the message for a temp the function lacks.
    let temp_class = |t: Temp| {
        f.temps.get(t.index()).map(|info| info.class).ok_or_else(|| format!("unknown temp {t}"))
    };
    // The message for an operand that breaks a rule, if it does.
    let operand = |r: Reg, want: Option<RegClass>| {
        let class = match r {
            Reg::Phys(p) => p.class,
            Reg::Temp(t) => match temp_class(t) {
                Err(msg) => return Some(msg),
                Ok(_) if f.allocated => {
                    return Some(format!("virtual operand {t} in allocated function"))
                }
                Ok(class) => class,
            },
        };
        want.filter(|&w| w != class).map(|w| format!("operand {r} must be class {w}"))
    };
    let class_of = |r: Reg| match r {
        Reg::Phys(p) => Some(p.class),
        Reg::Temp(t) => temp_class(t).ok(),
    };
    let block_target = |kind: &str, t: BlockId| {
        (t.index() >= f.blocks.len()).then(|| format!("{kind} to unknown block {t}"))
    };
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        let Some(last) = insts.len().checked_sub(1) else {
            report(MalformedBlock, Some(b), None, "malformed block: empty".into())?;
            continue;
        };
        for (i, ins) in insts.iter().enumerate() {
            let mut emit = |kind, msg: Option<String>| match msg {
                Some(msg) => report(kind, Some(b), Some(i), msg),
                None => ControlFlow::Continue(()),
            };
            let inst = &ins.inst;
            let shape = match (i == last, inst.is_terminator()) {
                (false, true) => Some("malformed block: terminator in the middle".into()),
                (true, false) => Some("malformed block: no terminator at the end".into()),
                _ => None,
            };
            emit(MalformedBlock, shape)?;
            match inst {
                Inst::Op { op, dst, srcs } => {
                    emit(Operand, arity_finding(*op, srcs.len()))?;
                    let (sc, dc) = op.sig();
                    for &s in srcs.iter() {
                        emit(Operand, operand(s, Some(sc)))?;
                    }
                    emit(Operand, operand(*dst, Some(dc)))?;
                }
                Inst::MovI { dst, .. } => emit(Operand, operand(*dst, Some(RegClass::Int)))?,
                Inst::MovF { dst, .. } => emit(Operand, operand(*dst, Some(RegClass::Float)))?,
                Inst::Mov { dst, src } => {
                    emit(Operand, operand(*src, None))?;
                    emit(Operand, operand(*dst, None))?;
                    let classes = (class_of(*dst), class_of(*src));
                    let mixed = matches!(classes, (Some(d), Some(s)) if d != s);
                    emit(Operand, mixed.then(|| "move between register classes".into()))?;
                }
                Inst::Load { dst: r, base, .. } | Inst::Store { src: r, base, .. } => {
                    emit(Operand, operand(*base, Some(RegClass::Int)))?;
                    emit(Operand, operand(*r, None))?;
                }
                Inst::SpillLoad { dst: r, temp } | Inst::SpillStore { src: r, temp } => {
                    let msg = temp_class(*temp).map_or_else(Some, |c| operand(*r, Some(c)));
                    emit(Operand, msg)?;
                }
                Inst::Call { callee: Callee::Func(id), .. } => {
                    let unknown = funcs.is_some_and(|n| id.index() >= n);
                    let msg = unknown.then(|| format!("call to unknown function @{}", id.0));
                    emit(BadTarget, msg)?;
                }
                Inst::Jump { target } => emit(BadTarget, block_target("jump", *target))?,
                Inst::Branch { src, then_tgt, else_tgt, .. } => {
                    emit(Operand, operand(*src, Some(RegClass::Int)))?;
                    emit(BadTarget, block_target("branch", *then_tgt))?;
                    emit(BadTarget, block_target("branch", *else_tgt))?;
                }
                Inst::Call { .. } | Inst::Ret { .. } => {}
            }
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::FuncId;
    use crate::reg::PhysReg;

    fn ret() -> crate::Ins {
        Inst::Ret { ret_regs: vec![] }.into()
    }

    fn findings(f: &Function) -> Vec<(FindingKind, Option<BlockId>, Option<usize>, String)> {
        let mut out = Vec::new();
        let _ = f.for_each_finding(|x| {
            out.push((x.kind, x.block, x.inst, x.msg));
            ControlFlow::<()>::Continue(())
        });
        out
    }

    #[test]
    fn block_shapes() {
        use FindingKind::MalformedBlock as M;
        let mut f = Function::new("t");
        assert_eq!(findings(&f), [(M, None, None, "function has no blocks".into())]);
        let b0 = f.add_block();
        assert_eq!(findings(&f), [(M, Some(b0), None, "malformed block: empty".into())]);
        f.block_mut(b0).insts.push(Inst::Jump { target: b0 }.into());
        assert_eq!(findings(&f), []);
        f.block_mut(b0).insts.push(ret());
        let mid = "malformed block: terminator in the middle".to_string();
        assert_eq!(findings(&f), [(M, Some(b0), Some(0), mid)]);
        f.block_mut(b0).insts = vec![Inst::MovI { dst: Reg::Phys(PhysReg::int(0)), imm: 1 }.into()];
        let end = "malformed block: no terminator at the end".to_string();
        assert_eq!(findings(&f), [(M, Some(b0), Some(0), end)]);
    }

    #[test]
    fn every_finding_is_reported_and_validate_stops_at_the_first() {
        let mut f = Function::new("t");
        let b0 = f.add_block();
        let x = f.new_temp(RegClass::Float, None);
        let insts = &mut f.block_mut(b0).insts;
        insts.push(Inst::MovI { dst: Reg::Temp(x), imm: 1 }.into());
        insts.push(Inst::SpillLoad { dst: Reg::Temp(x), temp: crate::Temp(7) }.into());
        insts.push(Inst::Jump { target: BlockId(3) }.into());
        let got = findings(&f);
        let kinds: Vec<_> = got.iter().map(|(k, _, i, _)| (*k, *i)).collect();
        use FindingKind::{BadTarget, Operand};
        assert_eq!(kinds, [(Operand, Some(0)), (Operand, Some(1)), (BadTarget, Some(2))]);
        assert_eq!(got[1].3, "unknown temp t7");
        assert_eq!(
            f.validate().unwrap_err().to_string(),
            "in t, b0 inst 0: operand t0 must be class i"
        );
    }

    #[test]
    fn module_rules_check_callees_and_the_entry() {
        let mut f = Function::new("main");
        let b0 = f.add_block();
        let call =
            Inst::Call { callee: Callee::Func(FuncId(1)), arg_regs: vec![], ret_regs: vec![] };
        f.block_mut(b0).insts.extend([call.into(), ret()]);
        assert_eq!(f.validate(), Ok(()), "a function alone does not know its callees");
        let mut m = Module::new("m", 0);
        m.add_func(f);
        let e = m.validate().unwrap_err();
        assert_eq!(e.to_string(), "in main, b0 inst 0: call to unknown function @1");
        m.funcs[0].block_mut(b0).insts.remove(0);
        assert_eq!(m.validate(), Ok(()));
        m.entry = FuncId(2);
        let e = m.validate().unwrap_err();
        assert_eq!(e.to_string(), "in <module>, b0 inst 0: entry function @2 does not exist");
    }
}
