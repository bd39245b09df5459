//! The interpreter.
//!
//! Executes a [`Module`] either *before* register allocation (operands are
//! temporaries, each call frame has its own unbounded temporary file — the
//! "infinite register machine" of §2.2) or *after* (operands are physical
//! registers plus spill slots).
//!
//! # Calling-convention enforcement
//!
//! At every call the VM invalidates ("poisons") the caller's caller-saved
//! registers, except those receiving return values; reading a poisoned
//! register raises [`VmError::PoisonRead`]. Callee-saved registers are
//! preserved automatically (each frame has its own register file and only
//! return registers are copied back), so their save/restore cost is not
//! modeled — identically for every allocator, as in the paper where both
//! allocators pay the same prologue/epilogue costs.

use lsra_ir::{
    Callee, ExtFn, FuncId, Function, Inst, MachineSpec, Module, OpCode, PhysReg, Reg, RegClass,
};

use crate::counters::DynCounts;
use crate::error::VmError;

/// Execution limits and switches.
#[derive(Clone, Debug)]
pub struct VmOptions {
    /// Maximum number of executed instructions.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions { fuel: 2_000_000_000, max_depth: 100_000 }
    }
}

/// The most words of data memory a run gets, and the most spill slots one
/// call frame gets: 2^22, 32 MiB of `i64`s. Both sizes come from the module
/// text, so a few bytes of it could otherwise ask for gigabytes; a module
/// past either is refused with [`VmError::TooLarge`] before anything is
/// allocated.
pub const MAX_WORDS: usize = 1 << 22;

/// One event written to the output trace by an external routine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OutputEvent {
    /// `putint` payload.
    Int(i64),
    /// `putchar` payload.
    Char(u8),
    /// `putfloat` payload (stored as bits for exact comparison).
    Float(u64),
}

/// The observable outcome of a run: everything two correct compilations of
/// the same program must agree on.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// The entry function's integer return value, if it returned one.
    pub ret: Option<i64>,
    /// The output trace produced by external routines.
    pub output: Vec<OutputEvent>,
    /// Dynamic instruction counts.
    pub counts: DynCounts,
    /// FNV-1a hash of final data memory.
    pub memory_checksum: u64,
}

struct Frame {
    func: FuncId,
    block: usize,
    inst: usize,
    iregs: Vec<i64>,
    ivalid: Vec<bool>,
    fregs: Vec<f64>,
    fvalid: Vec<bool>,
    itemps: Vec<i64>,
    itvalid: Vec<bool>,
    ftemps: Vec<f64>,
    ftvalid: Vec<bool>,
    slots: Vec<i64>,
    slotvalid: Vec<bool>,
    pending_rets: Vec<PhysReg>,
}

impl Frame {
    fn new() -> Self {
        Frame {
            func: FuncId(0),
            block: 0,
            inst: 0,
            iregs: Vec::new(),
            ivalid: Vec::new(),
            fregs: Vec::new(),
            fvalid: Vec::new(),
            itemps: Vec::new(),
            itvalid: Vec::new(),
            ftemps: Vec::new(),
            ftvalid: Vec::new(),
            slots: Vec::new(),
            slotvalid: Vec::new(),
            pending_rets: Vec::new(),
        }
    }

    fn reset(&mut self, id: FuncId, func: &Function, spec: &MachineSpec) {
        self.func = id;
        self.block = 0;
        self.inst = 0;
        let ni = spec.num_regs(RegClass::Int) as usize;
        let nf = spec.num_regs(RegClass::Float) as usize;
        self.iregs.clear();
        self.iregs.resize(ni, 0);
        self.ivalid.clear();
        self.ivalid.resize(ni, false);
        self.fregs.clear();
        self.fregs.resize(nf, 0.0);
        self.fvalid.clear();
        self.fvalid.resize(nf, false);
        let nt = func.num_temps();
        self.itemps.clear();
        self.itemps.resize(nt, 0);
        self.itvalid.clear();
        self.itvalid.resize(nt, false);
        self.ftemps.clear();
        self.ftemps.resize(nt, 0.0);
        self.ftvalid.clear();
        self.ftvalid.resize(nt, false);
        let ns = func.num_slots as usize;
        self.slots.clear();
        self.slots.resize(ns, 0);
        self.slotvalid.clear();
        self.slotvalid.resize(ns, false);
        self.pending_rets.clear();
    }

    fn read_int(&self, func: &Function, r: Reg) -> Result<i64, VmError> {
        match r {
            Reg::Phys(p) => {
                debug_assert_eq!(p.class, RegClass::Int);
                if !self.ivalid[p.index as usize] {
                    return Err(VmError::PoisonRead { func: self.func, reg: r });
                }
                Ok(self.iregs[p.index as usize])
            }
            Reg::Temp(t) => {
                if !self.itvalid[t.index()] {
                    return Err(VmError::PoisonRead { func: self.func, reg: r });
                }
                let _ = func;
                Ok(self.itemps[t.index()])
            }
        }
    }

    fn read_float(&self, func: &Function, r: Reg) -> Result<f64, VmError> {
        match r {
            Reg::Phys(p) => {
                debug_assert_eq!(p.class, RegClass::Float);
                if !self.fvalid[p.index as usize] {
                    return Err(VmError::PoisonRead { func: self.func, reg: r });
                }
                Ok(self.fregs[p.index as usize])
            }
            Reg::Temp(t) => {
                if !self.ftvalid[t.index()] {
                    return Err(VmError::PoisonRead { func: self.func, reg: r });
                }
                let _ = func;
                Ok(self.ftemps[t.index()])
            }
        }
    }

    fn write_int(&mut self, r: Reg, v: i64) {
        match r {
            Reg::Phys(p) => {
                self.iregs[p.index as usize] = v;
                self.ivalid[p.index as usize] = true;
            }
            Reg::Temp(t) => {
                self.itemps[t.index()] = v;
                self.itvalid[t.index()] = true;
            }
        }
    }

    fn write_float(&mut self, r: Reg, v: f64) {
        match r {
            Reg::Phys(p) => {
                self.fregs[p.index as usize] = v;
                self.fvalid[p.index as usize] = true;
            }
            Reg::Temp(t) => {
                self.ftemps[t.index()] = v;
                self.ftvalid[t.index()] = true;
            }
        }
    }

    fn poison_caller_saved(&mut self, spec: &MachineSpec, keep: &[PhysReg]) {
        for p in spec.caller_saved(RegClass::Int) {
            if !keep.contains(&p) {
                self.ivalid[p.index as usize] = false;
            }
        }
        for p in spec.caller_saved(RegClass::Float) {
            if !keep.contains(&p) {
                self.fvalid[p.index as usize] = false;
            }
        }
    }
}

/// The interpreter. Create one per run.
pub struct Vm<'m> {
    module: &'m Module,
    spec: &'m MachineSpec,
    options: VmOptions,
    memory: Vec<i64>,
    input: Vec<u8>,
    input_pos: usize,
    output: Vec<OutputEvent>,
    counts: DynCounts,
    frames: Vec<Frame>,
    spare: Vec<Frame>,
}

impl std::fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("module", &self.module.name)
            .field("depth", &self.frames.len())
            .field("executed", &self.counts.total)
            .finish()
    }
}

impl<'m> Vm<'m> {
    /// Creates a VM for `module` on machine `spec`, feeding `input` to
    /// `getchar`. Memory is sized by [`Vm::run`], which refuses a module
    /// past [`MAX_WORDS`].
    pub fn new(
        module: &'m Module,
        spec: &'m MachineSpec,
        input: &[u8],
        options: VmOptions,
    ) -> Self {
        Vm {
            module,
            spec,
            options,
            memory: Vec::new(),
            input: input.to_vec(),
            input_pos: 0,
            output: Vec::new(),
            counts: DynCounts::default(),
            frames: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn push_frame(&mut self, id: FuncId) -> Result<(), VmError> {
        if self.frames.len() >= self.options.max_depth {
            return Err(VmError::StackOverflow);
        }
        let mut frame = self.spare.pop().unwrap_or_else(Frame::new);
        frame.reset(id, self.module.func(id), self.spec);
        self.frames.push(frame);
        Ok(())
    }

    fn mem_read(&self, func: FuncId, addr: i64) -> Result<i64, VmError> {
        if addr < 0 || addr as usize >= self.memory.len() {
            return Err(VmError::MemoryOutOfBounds { func, addr });
        }
        Ok(self.memory[addr as usize])
    }

    fn mem_write(&mut self, func: FuncId, addr: i64, v: i64) -> Result<(), VmError> {
        if addr < 0 || addr as usize >= self.memory.len() {
            return Err(VmError::MemoryOutOfBounds { func, addr });
        }
        self.memory[addr as usize] = v;
        Ok(())
    }

    /// Runs the module's entry function to completion.
    ///
    /// # Errors
    ///
    /// Returns the first [`VmError`] raised: program faults, poisoned-
    /// register reads (allocation bugs), or exhausted limits.
    pub fn run(mut self) -> Result<RunResult, VmError> {
        let words = self.module.memory_words;
        if words > MAX_WORDS {
            return Err(VmError::TooLarge { what: "words of data memory", words });
        }
        let slots = self.module.funcs.iter().map(|f| f.num_slots as usize).max().unwrap_or(0);
        if slots > MAX_WORDS {
            return Err(VmError::TooLarge { what: "spill slots in a frame", words: slots });
        }
        self.memory.extend_from_slice(&self.module.data);
        self.memory.resize(words, 0);
        self.push_frame(self.module.entry)?;
        let ret = self.exec()?;
        let memory_checksum = memory_checksum(&self.memory);
        Ok(RunResult { ret, output: self.output, counts: self.counts, memory_checksum })
    }

    fn exec(&mut self) -> Result<Option<i64>, VmError> {
        let mut fuel = self.options.fuel;
        loop {
            let depth = self.frames.len();
            let frame = self.frames.last_mut().expect("frame stack never empty while running");
            let fid = frame.func;
            let func = self.module.func(fid);
            let ins = &func.block(lsra_ir::BlockId(frame.block as u32)).insts[frame.inst];
            if fuel == 0 {
                return Err(VmError::FuelExhausted);
            }
            fuel -= 1;
            self.counts.record(ins.tag);
            frame.inst += 1;
            match &ins.inst {
                Inst::Op { op, dst, srcs } => {
                    let (sc, _) = op.sig();
                    match op {
                        OpCode::IntToFloat => {
                            let a = frame.read_int(func, srcs[0])?;
                            frame.write_float(*dst, a as f64);
                        }
                        OpCode::FloatToInt => {
                            let a = frame.read_float(func, srcs[0])?;
                            frame.write_int(*dst, a as i64);
                        }
                        OpCode::FCmpEq | OpCode::FCmpLt | OpCode::FCmpLe => {
                            let a = frame.read_float(func, srcs[0])?;
                            let b = frame.read_float(func, srcs[1])?;
                            let v = match op {
                                OpCode::FCmpEq => a == b,
                                OpCode::FCmpLt => a < b,
                                _ => a <= b,
                            };
                            frame.write_int(*dst, v as i64);
                        }
                        _ if sc == RegClass::Int => {
                            let a = frame.read_int(func, srcs[0])?;
                            let v = if op.arity() == 1 {
                                match op {
                                    OpCode::Neg => a.wrapping_neg(),
                                    OpCode::Not => !a,
                                    _ => unreachable!(),
                                }
                            } else {
                                let b = frame.read_int(func, srcs[1])?;
                                match op {
                                    OpCode::Add => a.wrapping_add(b),
                                    OpCode::Sub => a.wrapping_sub(b),
                                    OpCode::Mul => a.wrapping_mul(b),
                                    OpCode::Div => {
                                        if b == 0 {
                                            return Err(VmError::DivByZero { func: fid });
                                        }
                                        a.wrapping_div(b)
                                    }
                                    OpCode::Rem => {
                                        if b == 0 {
                                            return Err(VmError::DivByZero { func: fid });
                                        }
                                        a.wrapping_rem(b)
                                    }
                                    OpCode::And => a & b,
                                    OpCode::Or => a | b,
                                    OpCode::Xor => a ^ b,
                                    OpCode::Shl => a.wrapping_shl(b as u32 & 63),
                                    OpCode::Shr => a.wrapping_shr(b as u32 & 63),
                                    OpCode::CmpEq => (a == b) as i64,
                                    OpCode::CmpLt => (a < b) as i64,
                                    OpCode::CmpLe => (a <= b) as i64,
                                    _ => unreachable!(),
                                }
                            };
                            frame.write_int(*dst, v);
                        }
                        _ => {
                            let a = frame.read_float(func, srcs[0])?;
                            let v = if op.arity() == 1 {
                                match op {
                                    OpCode::FNeg => -a,
                                    OpCode::FAbs => a.abs(),
                                    OpCode::FSqrt => a.sqrt(),
                                    _ => unreachable!(),
                                }
                            } else {
                                let b = frame.read_float(func, srcs[1])?;
                                match op {
                                    OpCode::FAdd => a + b,
                                    OpCode::FSub => a - b,
                                    OpCode::FMul => a * b,
                                    OpCode::FDiv => a / b,
                                    _ => unreachable!(),
                                }
                            };
                            frame.write_float(*dst, v);
                        }
                    }
                }
                Inst::MovI { dst, imm } => frame.write_int(*dst, *imm),
                Inst::MovF { dst, imm } => frame.write_float(*dst, *imm),
                Inst::Mov { dst, src } => {
                    self.counts.moves += 1;
                    match func.reg_class(*src) {
                        RegClass::Int => {
                            let v = frame.read_int(func, *src)?;
                            frame.write_int(*dst, v);
                        }
                        RegClass::Float => {
                            let v = frame.read_float(func, *src)?;
                            frame.write_float(*dst, v);
                        }
                    }
                }
                Inst::Load { dst, base, offset } => {
                    self.counts.memory_ops += 1;
                    let addr = frame.read_int(func, *base)?.wrapping_add(*offset as i64);
                    let dst = *dst;
                    let word = self.mem_read(fid, addr)?;
                    let frame = self.frames.last_mut().unwrap();
                    match func.reg_class(dst) {
                        RegClass::Int => frame.write_int(dst, word),
                        RegClass::Float => frame.write_float(dst, f64::from_bits(word as u64)),
                    }
                }
                Inst::Store { src, base, offset } => {
                    self.counts.memory_ops += 1;
                    let addr = frame.read_int(func, *base)?.wrapping_add(*offset as i64);
                    let word = match func.reg_class(*src) {
                        RegClass::Int => frame.read_int(func, *src)?,
                        RegClass::Float => frame.read_float(func, *src)?.to_bits() as i64,
                    };
                    self.mem_write(fid, addr, word)?;
                }
                Inst::SpillLoad { dst, temp } => {
                    self.counts.memory_ops += 1;
                    let slot = func.spill_slots[temp.index()]
                        .expect("spill load references temp without slot");
                    if !frame.slotvalid[slot.index()] {
                        return Err(VmError::UninitializedSlot { func: fid, slot: slot.0 });
                    }
                    let word = frame.slots[slot.index()];
                    match func.temp_class(*temp) {
                        RegClass::Int => frame.write_int(*dst, word),
                        RegClass::Float => frame.write_float(*dst, f64::from_bits(word as u64)),
                    }
                }
                Inst::SpillStore { src, temp } => {
                    self.counts.memory_ops += 1;
                    let slot = func.spill_slots[temp.index()]
                        .expect("spill store references temp without slot");
                    let word = match func.temp_class(*temp) {
                        RegClass::Int => frame.read_int(func, *src)?,
                        RegClass::Float => frame.read_float(func, *src)?.to_bits() as i64,
                    };
                    frame.slots[slot.index()] = word;
                    frame.slotvalid[slot.index()] = true;
                }
                Inst::Call { callee, arg_regs, ret_regs } => {
                    self.counts.calls += 1;
                    match callee {
                        Callee::Ext(ext) => {
                            // Read arguments before clobbering.
                            let mut int_args = Vec::new();
                            let mut float_args = Vec::new();
                            for &a in arg_regs {
                                match a.class {
                                    RegClass::Int => {
                                        int_args.push(frame.read_int(func, Reg::Phys(a))?)
                                    }
                                    RegClass::Float => {
                                        float_args.push(frame.read_float(func, Reg::Phys(a))?)
                                    }
                                }
                            }
                            frame.poison_caller_saved(self.spec, ret_regs);
                            match ext {
                                ExtFn::GetChar => {
                                    let v = if self.input_pos < self.input.len() {
                                        let c = self.input[self.input_pos] as i64;
                                        self.input_pos += 1;
                                        c
                                    } else {
                                        -1
                                    };
                                    let frame = self.frames.last_mut().unwrap();
                                    frame.write_int(Reg::Phys(ret_regs[0]), v);
                                }
                                ExtFn::PutInt => {
                                    self.output.push(OutputEvent::Int(int_args[0]));
                                }
                                ExtFn::PutChar => {
                                    self.output.push(OutputEvent::Char(int_args[0] as u8));
                                }
                                ExtFn::PutFloat => {
                                    self.output.push(OutputEvent::Float(float_args[0].to_bits()));
                                }
                            }
                        }
                        Callee::Func(id) => {
                            // Capture arguments, remember expected returns.
                            frame.pending_rets = ret_regs.clone();
                            let mut iargs: Vec<(u8, i64)> = Vec::new();
                            let mut fargs: Vec<(u8, f64)> = Vec::new();
                            for &a in arg_regs {
                                match a.class {
                                    RegClass::Int => {
                                        iargs.push((a.index, frame.read_int(func, Reg::Phys(a))?))
                                    }
                                    RegClass::Float => {
                                        fargs.push((a.index, frame.read_float(func, Reg::Phys(a))?))
                                    }
                                }
                            }
                            self.push_frame(*id)?;
                            let callee_frame = self.frames.last_mut().unwrap();
                            for (i, v) in iargs {
                                callee_frame.iregs[i as usize] = v;
                                callee_frame.ivalid[i as usize] = true;
                            }
                            for (i, v) in fargs {
                                callee_frame.fregs[i as usize] = v;
                                callee_frame.fvalid[i as usize] = true;
                            }
                        }
                    }
                }
                Inst::Jump { target } => {
                    frame.block = target.index();
                    frame.inst = 0;
                }
                Inst::Branch { cond, src, then_tgt, else_tgt } => {
                    let v = frame.read_int(func, *src)?;
                    let t = if cond.eval(v) { then_tgt } else { else_tgt };
                    frame.block = t.index();
                    frame.inst = 0;
                }
                Inst::Ret { ret_regs } => {
                    if depth == 1 {
                        // Entry function returned: extract the int return
                        // value if one was declared.
                        let frame = self.frames.last().unwrap();
                        let ret = ret_regs
                            .iter()
                            .find(|p| p.class == RegClass::Int)
                            .map(|p| frame.iregs[p.index as usize]);
                        let f = self.frames.pop().unwrap();
                        self.spare.push(f);
                        return Ok(ret);
                    }
                    // Copy declared return registers to the caller, poison
                    // the caller's caller-saved registers, pop.
                    let callee = self.frames.pop().unwrap();
                    let caller = self.frames.last_mut().unwrap();
                    let expected = std::mem::take(&mut caller.pending_rets);
                    caller.poison_caller_saved(self.spec, &[]);
                    for p in &expected {
                        match p.class {
                            RegClass::Int => {
                                caller.iregs[p.index as usize] = callee.iregs[p.index as usize];
                                caller.ivalid[p.index as usize] = callee.ivalid[p.index as usize];
                            }
                            RegClass::Float => {
                                caller.fregs[p.index as usize] = callee.fregs[p.index as usize];
                                caller.fvalid[p.index as usize] = callee.fvalid[p.index as usize];
                            }
                        }
                    }
                    self.spare.push(callee);
                }
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of final data memory: the
/// [`RunResult::memory_checksum`] both execution backends report.
pub fn memory_checksum(words: &[i64]) -> u64 {
    words.iter().fold(lsra_ir::FNV64_OFFSET, |h, w| lsra_ir::fnv64_extend(h, &w.to_le_bytes()))
}

/// Runs `module` on `spec` with `input`, using default limits.
///
/// # Errors
///
/// Propagates any [`VmError`] from execution.
pub fn run_module(module: &Module, spec: &MachineSpec, input: &[u8]) -> Result<RunResult, VmError> {
    Vm::new(module, spec, input, VmOptions::default()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, ModuleBuilder, RegClass};

    fn spec() -> MachineSpec {
        MachineSpec::alpha_like()
    }

    fn single(f: lsra_ir::Function) -> Module {
        let mut mb = ModuleBuilder::new("t", 64);
        let id = mb.add(f);
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn arithmetic_and_return() {
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        let z = b.int_temp("z");
        b.movi(x, 6);
        b.movi(y, 7);
        b.mul(z, x, y);
        b.ret(Some(z.into()));
        let m = single(b.finish());
        let r = run_module(&m, &s, &[]).unwrap();
        assert_eq!(r.ret, Some(42));
        assert!(r.counts.total > 0);
    }

    #[test]
    fn loop_and_branch() {
        // sum 1..=10 = 55
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let i = b.int_temp("i");
        let acc = b.int_temp("acc");
        b.movi(i, 10);
        b.movi(acc, 0);
        let head = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.add(acc, acc, i);
        b.addi(i, i, -1);
        b.branch(Cond::Gt, i, head, exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let m = single(b.finish());
        assert_eq!(run_module(&m, &s, &[]).unwrap().ret, Some(55));
    }

    #[test]
    fn memory_and_floats() {
        let s = spec();
        let mut mb = ModuleBuilder::new("t", 64);
        let base = mb.reserve(4, &[0, 0, 0, 0]);
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let a = b.float_temp("a");
        let bb = b.float_temp("b");
        let c = b.float_temp("c");
        let addr = b.int_temp("addr");
        b.movf(a, 1.5);
        b.movf(bb, 2.25);
        b.op2(OpCode::FMul, c, a, bb);
        b.movi(addr, base);
        b.store(c, addr, 1);
        let back = b.float_temp("back");
        b.load(back, addr, 1);
        let r = b.int_temp("r");
        b.op1(OpCode::FloatToInt, r, back);
        b.ret(Some(r.into()));
        let id = mb.add(b.finish());
        mb.entry(id);
        let m = mb.finish();
        let res = run_module(&m, &s, &[]).unwrap();
        assert_eq!(res.ret, Some(3)); // 1.5 * 2.25 = 3.375, truncated
    }

    #[test]
    fn external_io() {
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let c1 = b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int)).unwrap();
        b.call_ext(ExtFn::PutInt, &[c1.into()], None);
        let c2 = b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int)).unwrap();
        b.call_ext(ExtFn::PutChar, &[c2.into()], None);
        let c3 = b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int)).unwrap();
        b.ret(Some(c3.into()));
        let m = single(b.finish());
        let r = run_module(&m, &s, b"AB").unwrap();
        assert_eq!(r.output, vec![OutputEvent::Int(65), OutputEvent::Char(b'B')]);
        assert_eq!(r.ret, Some(-1), "input exhausted returns -1");
        assert_eq!(r.counts.calls, 5);
    }

    #[test]
    fn intra_module_call_preserves_callee_saved_temps() {
        let s = spec();
        let mut mb = ModuleBuilder::new("t", 16);
        // callee: double its argument
        let mut cb = FunctionBuilder::new(&s, "dbl", &[RegClass::Int]);
        let x = cb.param(0);
        let d = cb.int_temp("d");
        cb.add(d, x, x);
        cb.ret(Some(d.into()));
        let dbl = mb.add(cb.finish());
        // main: keep a value live across the call (virtual mode keeps temps
        // per frame, so this always works pre-allocation)
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let keep = b.int_temp("keep");
        let arg = b.int_temp("arg");
        b.movi(keep, 100);
        b.movi(arg, 21);
        let r = b.call_func(dbl, &[arg.into()], Some(RegClass::Int)).unwrap();
        let total = b.int_temp("total");
        b.add(total, keep, r);
        b.ret(Some(total.into()));
        let id = mb.add(b.finish());
        mb.entry(id);
        let m = mb.finish();
        assert_eq!(run_module(&m, &s, &[]).unwrap().ret, Some(142));
    }

    #[test]
    fn poison_detects_value_lost_across_call() {
        // A function that wrongly keeps a value in a caller-saved physical
        // register across a call must fault.
        let s = spec();
        let cs: Reg = lsra_ir::PhysReg::int(10).into(); // caller-saved
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        b.movi(cs, 5);
        b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int));
        let t = b.int_temp("t");
        b.mov(t, cs); // cs was clobbered by the call
        b.ret(Some(t.into()));
        let m = single(b.finish());
        match run_module(&m, &s, &[]) {
            Err(VmError::PoisonRead { .. }) => {}
            other => panic!("expected poison fault, got {other:?}"),
        }
    }

    #[test]
    fn callee_saved_survives_call() {
        let s = spec();
        let callee_saved: Reg = lsra_ir::PhysReg::int(20).into();
        assert!(s.is_callee_saved(lsra_ir::PhysReg::int(20)));
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        b.movi(callee_saved, 11);
        b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int));
        let t = b.int_temp("t");
        b.mov(t, callee_saved);
        b.ret(Some(t.into()));
        let m = single(b.finish());
        assert_eq!(run_module(&m, &s, &[]).unwrap().ret, Some(11));
    }

    #[test]
    fn div_by_zero_faults() {
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let x = b.int_temp("x");
        let z = b.int_temp("z");
        let q = b.int_temp("q");
        b.movi(x, 1);
        b.movi(z, 0);
        b.op2(OpCode::Div, q, x, z);
        b.ret(Some(q.into()));
        let m = single(b.finish());
        assert!(matches!(run_module(&m, &s, &[]), Err(VmError::DivByZero { .. })));
    }

    #[test]
    fn memory_bounds_fault() {
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let a = b.int_temp("a");
        let v = b.int_temp("v");
        b.movi(a, 1_000_000);
        b.load(v, a, 0);
        b.ret(Some(v.into()));
        let m = single(b.finish());
        assert!(matches!(run_module(&m, &s, &[]), Err(VmError::MemoryOutOfBounds { .. })));
    }

    #[test]
    fn oversized_memory_and_frames_are_refused() {
        let s = spec();
        let body = "entry @0\nfunc @main() {\n  temps t0:i\nb0:\n  t0 = 1\n";
        let run = |text: String| run_module(&lsra_ir::parse_module(&text).unwrap(), &s, &[]);
        let data = format!("module m (4000000000 words data)\n{body}  ret\n}}\n");
        let want = VmError::TooLarge { what: "words of data memory", words: 4_000_000_000 };
        assert_eq!(run(data), Err(want));
        let slot = MAX_WORDS;
        let frame =
            format!("module m (0 words data)\n{body}  spill t0 (slot {slot}), t0\n  ret\n}}\n");
        let want = VmError::TooLarge { what: "spill slots in a frame", words: MAX_WORDS + 1 };
        assert_eq!(run(frame), Err(want));
        let fits = format!("module m (16 words data)\n{body}  spill t0 (slot 9), t0\n  ret\n}}\n");
        assert_eq!(run(fits).unwrap().ret, None);
    }

    #[test]
    fn fuel_limit() {
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let blk = b.block();
        b.jump(blk);
        b.switch_to(blk);
        b.jump(blk);
        let m = single(b.finish());
        let vm = Vm::new(&m, &s, &[], VmOptions { fuel: 1000, max_depth: 10 });
        assert_eq!(vm.run(), Err(VmError::FuelExhausted));
    }

    #[test]
    fn recursion_depth_limit() {
        let s = spec();
        let mut mb = ModuleBuilder::new("t", 0);
        let selfid = mb.declare();
        let mut b = FunctionBuilder::new(&s, "rec", &[]);
        let r = b.call_func(selfid, &[], Some(RegClass::Int)).unwrap();
        b.ret(Some(r.into()));
        mb.define(selfid, b.finish());
        mb.entry(selfid);
        let m = mb.finish();
        let vm = Vm::new(&m, &s, &[], VmOptions { fuel: 1_000_000, max_depth: 50 });
        assert_eq!(vm.run(), Err(VmError::StackOverflow));
    }

    #[test]
    fn reading_unwritten_temp_faults() {
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        b.add(y, x, x); // x never written
        b.ret(Some(y.into()));
        let m = single(b.finish());
        assert!(matches!(run_module(&m, &s, &[]), Err(VmError::PoisonRead { .. })));
    }
}
