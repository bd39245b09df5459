//! An ergonomic builder for IR functions.
//!
//! The builder hides the calling-convention plumbing: function parameters
//! arrive through explicit moves from argument registers (exactly the moves
//! the paper's §2.5 move optimization targets), and calls marshal arguments
//! into argument registers and results out of return registers.

use crate::block::BlockId;
use crate::function::Function;
use crate::inst::{Callee, Cond, ExtFn, FuncId, Ins, Inst, OpCode};
use crate::machine::MachineSpec;
use crate::module::Module;
use crate::reg::{Reg, RegClass, Temp};

/// Builds one [`Function`] instruction by instruction.
///
/// # Examples
///
/// ```
/// use lsra_ir::{FunctionBuilder, MachineSpec, RegClass, Cond};
///
/// let spec = MachineSpec::alpha_like();
/// let mut b = FunctionBuilder::new(&spec, "add1", &[RegClass::Int]);
/// let x = b.param(0);
/// let one = b.int_temp("one");
/// let sum = b.int_temp("sum");
/// b.movi(one, 1);
/// b.add(sum, x, one);
/// b.ret(Some(sum.into()));
/// let f = b.finish();
/// assert!(f.validate().is_ok());
/// ```
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    spec: &'a MachineSpec,
    func: Function,
    cur: BlockId,
}

impl<'a> FunctionBuilder<'a> {
    /// Starts a function with parameters of the given classes. The entry
    /// block is created and selected, and the parameter-register moves are
    /// emitted into it.
    ///
    /// # Panics
    ///
    /// Panics if a class has more parameters than the machine has argument
    /// registers (this IR does not model stack-passed arguments).
    pub fn new(spec: &'a MachineSpec, name: impl Into<String>, params: &[RegClass]) -> Self {
        let mut func = Function::new(name);
        let entry = func.add_block();
        let mut b = FunctionBuilder { spec, func, cur: entry };
        let mut counts = [0usize; 2];
        for (i, &class) in params.iter().enumerate() {
            let t = b.func.new_temp(class, Some(format!("arg{i}")));
            let argno = counts[class.index()];
            counts[class.index()] += 1;
            let phys = spec
                .arg_reg(class, argno)
                .unwrap_or_else(|| panic!("too many {class} parameters for {}", spec.name()));
            b.emit(Inst::Mov { dst: Reg::Temp(t), src: Reg::Phys(phys) });
            b.func.params.push(t);
        }
        b
    }

    /// The `i`-th parameter temporary.
    pub fn param(&self, i: usize) -> Temp {
        self.func.params[i]
    }

    /// Number of declared parameters.
    pub fn num_params(&self) -> usize {
        self.func.params.len()
    }

    /// Creates a fresh integer temporary.
    pub fn int_temp(&mut self, name: &str) -> Temp {
        self.func.new_temp(RegClass::Int, Some(name.to_string()))
    }

    /// Creates a fresh floating-point temporary.
    pub fn float_temp(&mut self, name: &str) -> Temp {
        self.func.new_temp(RegClass::Float, Some(name.to_string()))
    }

    /// Creates a fresh unnamed temporary of `class`.
    pub fn temp(&mut self, class: RegClass) -> Temp {
        self.func.new_temp(class, None)
    }

    /// Creates a new (empty, unselected) block.
    pub fn block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Selects the block receiving subsequently emitted instructions.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// The currently selected block.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    /// Emits a raw instruction into the current block.
    pub fn emit(&mut self, inst: Inst) {
        self.func.block_mut(self.cur).insts.push(Ins::new(inst));
    }

    /// `dst = imm` (integer).
    pub fn movi(&mut self, dst: impl Into<Reg>, imm: i64) {
        self.emit(Inst::MovI { dst: dst.into(), imm });
    }

    /// `dst = imm` (float).
    pub fn movf(&mut self, dst: impl Into<Reg>, imm: f64) {
        self.emit(Inst::MovF { dst: dst.into(), imm });
    }

    /// `dst = src` (same-class move).
    pub fn mov(&mut self, dst: impl Into<Reg>, src: impl Into<Reg>) {
        self.emit(Inst::Mov { dst: dst.into(), src: src.into() });
    }

    /// Emits a binary ALU operation.
    pub fn op2(&mut self, op: OpCode, dst: impl Into<Reg>, a: impl Into<Reg>, b: impl Into<Reg>) {
        debug_assert_eq!(op.arity(), 2);
        self.emit(Inst::Op { op, dst: dst.into(), srcs: [a.into(), b.into()].into() });
    }

    /// Emits a unary ALU operation.
    pub fn op1(&mut self, op: OpCode, dst: impl Into<Reg>, a: impl Into<Reg>) {
        debug_assert_eq!(op.arity(), 1);
        self.emit(Inst::Op { op, dst: dst.into(), srcs: [a.into()].into() });
    }

    /// `dst = a + b`.
    pub fn add(&mut self, dst: impl Into<Reg>, a: impl Into<Reg>, b: impl Into<Reg>) {
        self.op2(OpCode::Add, dst, a, b);
    }

    /// `dst = a - b`.
    pub fn sub(&mut self, dst: impl Into<Reg>, a: impl Into<Reg>, b: impl Into<Reg>) {
        self.op2(OpCode::Sub, dst, a, b);
    }

    /// `dst = a * b`.
    pub fn mul(&mut self, dst: impl Into<Reg>, a: impl Into<Reg>, b: impl Into<Reg>) {
        self.op2(OpCode::Mul, dst, a, b);
    }

    /// `dst = src + imm` via a fresh constant temporary (RISC style).
    pub fn addi(&mut self, dst: impl Into<Reg>, src: impl Into<Reg>, imm: i64) {
        let c = self.temp(RegClass::Int);
        self.movi(c, imm);
        self.add(dst, src, c);
    }

    /// `dst = memory[base + offset]`.
    pub fn load(&mut self, dst: impl Into<Reg>, base: impl Into<Reg>, offset: i32) {
        self.emit(Inst::Load { dst: dst.into(), base: base.into(), offset });
    }

    /// `memory[base + offset] = src`.
    pub fn store(&mut self, src: impl Into<Reg>, base: impl Into<Reg>, offset: i32) {
        self.emit(Inst::Store { src: src.into(), base: base.into(), offset });
    }

    /// Unconditional jump (terminates the current block).
    pub fn jump(&mut self, target: BlockId) {
        self.emit(Inst::Jump { target });
    }

    /// Conditional branch comparing `src` against zero.
    pub fn branch(
        &mut self,
        cond: Cond,
        src: impl Into<Reg>,
        then_tgt: BlockId,
        else_tgt: BlockId,
    ) {
        self.emit(Inst::Branch { cond, src: src.into(), then_tgt, else_tgt });
    }

    /// Returns from the function, optionally with a value (moved into the
    /// return register of its class first).
    pub fn ret(&mut self, val: Option<Reg>) {
        let mut ret_regs = Vec::new();
        if let Some(v) = val {
            let class = self.func.reg_class(v);
            let r = self.spec.ret_reg(class);
            self.emit(Inst::Mov { dst: Reg::Phys(r), src: v });
            ret_regs.push(r);
        }
        self.emit(Inst::Ret { ret_regs });
    }

    /// Calls `callee` with `args`, returning the result (if `ret_class` is
    /// given) in a fresh temporary.
    ///
    /// Marshals arguments into argument registers class by class, emits the
    /// call, and moves the return register into the result temporary —
    /// exactly the shape the paper's Alpha code generator produces.
    ///
    /// # Panics
    ///
    /// Panics if a class runs out of argument registers.
    pub fn call(
        &mut self,
        callee: Callee,
        args: &[Reg],
        ret_class: Option<RegClass>,
    ) -> Option<Temp> {
        let mut counts = [0usize; 2];
        let mut arg_regs = Vec::new();
        let moves: Vec<(Reg, Reg)> = args
            .iter()
            .map(|&a| {
                let class = self.func.reg_class(a);
                let argno = counts[class.index()];
                counts[class.index()] += 1;
                let phys = self.spec.arg_reg(class, argno).unwrap_or_else(|| {
                    panic!("too many {class} arguments for {}", self.spec.name())
                });
                arg_regs.push(phys);
                (Reg::Phys(phys), a)
            })
            .collect();
        for (dst, src) in moves {
            self.emit(Inst::Mov { dst, src });
        }
        let mut ret_regs = Vec::new();
        if let Some(c) = ret_class {
            ret_regs.push(self.spec.ret_reg(c));
        }
        self.emit(Inst::Call { callee, arg_regs, ret_regs: ret_regs.clone() });
        ret_class.map(|c| {
            let t = self.func.new_temp(c, None);
            self.emit(Inst::Mov { dst: Reg::Temp(t), src: Reg::Phys(ret_regs[0]) });
            t
        })
    }

    /// Calls an intra-module function.
    pub fn call_func(
        &mut self,
        f: FuncId,
        args: &[Reg],
        ret_class: Option<RegClass>,
    ) -> Option<Temp> {
        self.call(Callee::Func(f), args, ret_class)
    }

    /// Calls an external routine.
    pub fn call_ext(
        &mut self,
        f: ExtFn,
        args: &[Reg],
        ret_class: Option<RegClass>,
    ) -> Option<Temp> {
        self.call(Callee::Ext(f), args, ret_class)
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics (in debug form, via `validate`) if any block lacks a
    /// terminator or an operand is ill-typed.
    pub fn finish(self) -> Function {
        if let Err(e) = self.func.validate() {
            panic!("FunctionBuilder produced invalid function: {e}");
        }
        self.func
    }

    /// The machine this builder targets.
    pub fn spec(&self) -> &MachineSpec {
        self.spec
    }
}

/// Builds a [`Module`] from a set of builder-produced functions.
///
/// This is a thin convenience over [`Module`]; it exists so workload
/// generators can reserve data and declare functions in one place.
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Starts a module with `memory_words` words of data memory.
    pub fn new(name: impl Into<String>, memory_words: usize) -> Self {
        ModuleBuilder { module: Module::new(name, memory_words) }
    }

    /// Reserves static data; see [`Module::reserve`].
    pub fn reserve(&mut self, words: usize, init: &[i64]) -> i64 {
        self.module.reserve(words, init)
    }

    /// Pre-declares a function id so mutually recursive calls can be built.
    /// The returned id must later be filled by [`ModuleBuilder::define`].
    pub fn declare(&mut self) -> FuncId {
        self.module.add_func(Function::new("<declared>"))
    }

    /// Fills in a previously declared function.
    pub fn define(&mut self, id: FuncId, f: Function) {
        *self.module.func_mut(id) = f;
    }

    /// Adds a function, returning its id.
    pub fn add(&mut self, f: Function) -> FuncId {
        self.module.add_func(f)
    }

    /// Sets the entry function.
    pub fn entry(&mut self, id: FuncId) {
        self.module.entry = id;
    }

    /// Finishes the module.
    ///
    /// # Panics
    ///
    /// Panics if the module fails validation.
    pub fn finish(self) -> Module {
        if let Err(e) = self.module.validate() {
            panic!("ModuleBuilder produced invalid module: {e}");
        }
        self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_arrive_via_arg_register_moves() {
        let spec = MachineSpec::alpha_like();
        let b = FunctionBuilder::new(&spec, "f", &[RegClass::Int, RegClass::Float, RegClass::Int]);
        let f = b.func;
        // Three moves: int arg0 <- r1, float arg1 <- f1, int arg2 <- r2.
        let insts = &f.block(BlockId(0)).insts;
        assert_eq!(insts.len(), 3);
        match &insts[2].inst {
            Inst::Mov { src: Reg::Phys(p), .. } => {
                assert_eq!(*p, spec.arg_reg(RegClass::Int, 1).unwrap());
            }
            other => panic!("expected move, got {other:?}"),
        }
    }

    #[test]
    fn call_marshals_args_and_result() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "f", &[]);
        let x = b.int_temp("x");
        b.movi(x, 5);
        let r = b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int)).unwrap();
        let sum = b.int_temp("sum");
        b.add(sum, x, r);
        b.ret(Some(sum.into()));
        let f = b.finish();
        assert!(f.validate().is_ok());
        assert_eq!(f.count_insts(|i| i.is_call()), 1);
        // result move from r0 present
        let ret0 = spec.ret_reg(RegClass::Int);
        assert_eq!(
            f.count_insts(|i| matches!(i, Inst::Mov { src: Reg::Phys(p), .. } if *p == ret0)),
            1
        );
    }

    #[test]
    #[should_panic(expected = "invalid function")]
    fn finish_rejects_unterminated_blocks() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "f", &[]);
        let x = b.int_temp("x");
        b.movi(x, 5); // no terminator
        let _ = b.finish();
    }

    #[test]
    fn module_builder_declares_and_defines() {
        let spec = MachineSpec::alpha_like();
        let mut mb = ModuleBuilder::new("m", 16);
        let callee = mb.declare();
        // callee: returns 7
        let mut cb = FunctionBuilder::new(&spec, "seven", &[]);
        let c = cb.int_temp("c");
        cb.movi(c, 7);
        cb.ret(Some(c.into()));
        mb.define(callee, cb.finish());
        // main: calls callee
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let r = b.call_func(callee, &[], Some(RegClass::Int)).unwrap();
        b.ret(Some(r.into()));
        let main = mb.add(b.finish());
        mb.entry(main);
        let m = mb.finish();
        assert_eq!(m.funcs.len(), 2);
        assert!(m.validate().is_ok());
    }
}
